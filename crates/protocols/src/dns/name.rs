//! Domain names: label sequences with RFC 1035 wire encoding, including
//! compression-pointer decoding and suffix-compressing encoding.

use std::fmt;
use std::str::FromStr;

use super::message::DnsError;

/// Maximum total encoded name length (RFC 1035 §2.3.4).
pub const MAX_NAME_LEN: usize = 255;
/// Maximum label length.
pub const MAX_LABEL_LEN: usize = 63;

/// A fully-qualified domain name, stored as lowercase labels.
///
/// Comparison is case-insensitive by construction (labels are normalized to
/// ASCII lowercase on creation, which is how resolvers treat names).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct DnsName {
    labels: Vec<Vec<u8>>,
}

impl DnsName {
    /// The root name (empty label sequence).
    pub fn root() -> DnsName {
        DnsName { labels: Vec::new() }
    }

    /// Build from dotted text, e.g. `"www.bbc.com"`. Trailing dots are
    /// accepted and ignored.
    pub fn parse(s: &str) -> Result<DnsName, DnsError> {
        let s = s.trim_end_matches('.');
        if s.is_empty() {
            return Ok(DnsName::root());
        }
        let mut labels = Vec::new();
        let mut total = 0usize;
        for label in s.split('.') {
            if label.is_empty() {
                return Err(DnsError::BadName("empty label"));
            }
            if label.len() > MAX_LABEL_LEN {
                return Err(DnsError::BadName("label too long"));
            }
            total += label.len() + 1;
            labels.push(label.as_bytes().to_ascii_lowercase());
        }
        if total + 1 > MAX_NAME_LEN {
            return Err(DnsError::BadName("name too long"));
        }
        Ok(DnsName { labels })
    }

    /// The labels, most-specific first.
    pub fn labels(&self) -> &[Vec<u8>] {
        &self.labels
    }

    /// Number of labels.
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// Whether this name equals `suffix` or ends with it (zone membership):
    /// `www.bbc.com` is under `bbc.com` and under the root.
    pub fn is_subdomain_of(&self, suffix: &DnsName) -> bool {
        if suffix.labels.len() > self.labels.len() {
            return false;
        }
        let skip = self.labels.len() - suffix.labels.len();
        self.labels[skip..] == suffix.labels[..]
    }

    /// The parent name (one label removed), or the root if already root.
    pub fn parent(&self) -> DnsName {
        if self.labels.is_empty() {
            return DnsName::root();
        }
        DnsName {
            labels: self.labels[1..].to_vec(),
        }
    }

    /// Prepend a label, e.g. `"mail"` + `example.com` = `mail.example.com`.
    /// Fails when the label is empty or overlong, or when the longer name
    /// would pass [`MAX_NAME_LEN`] encoded bytes.
    pub fn prepend(&self, label: &str) -> Result<DnsName, DnsError> {
        if label.is_empty() || label.len() > MAX_LABEL_LEN {
            return Err(DnsError::BadName("bad label for prepend"));
        }
        let total: usize = self.labels.iter().map(|l| l.len() + 1).sum();
        if total + label.len() + 1 + 1 > MAX_NAME_LEN {
            return Err(DnsError::BadName("name too long"));
        }
        let mut labels = Vec::with_capacity(self.labels.len() + 1);
        labels.push(label.as_bytes().to_ascii_lowercase());
        labels.extend_from_slice(&self.labels);
        Ok(DnsName { labels })
    }

    /// Encode at the end of `buf`. `offsets` lists the positions in `buf`
    /// where earlier names and their suffixes start, and is updated; a
    /// suffix equal to the name written at a listed position becomes a
    /// compression pointer to the first such position. Only the growth of
    /// `buf` and `offsets` allocates.
    pub fn encode(&self, buf: &mut Vec<u8>, offsets: &mut Vec<usize>) {
        for (idx, label) in self.labels.iter().enumerate() {
            let rest = &self.labels[idx..];
            if let Some(&off) = offsets.iter().find(|&&off| written_at(buf, off, rest)) {
                buf.push(0xc0 | ((off >> 8) as u8));
                buf.push((off & 0xff) as u8);
                return;
            }
            // A pointer offset must fit in 14 bits.
            if buf.len() < 0x3fff {
                offsets.push(buf.len());
            }
            buf.push(label.len() as u8);
            buf.extend_from_slice(label);
        }
        buf.push(0);
    }

    /// Decode a name starting at `pos` in `msg`. Returns the name and the
    /// position just past it (pointers do not advance past the pointer).
    pub fn decode(msg: &[u8], pos: usize) -> Result<(DnsName, usize), DnsError> {
        let mut labels = Vec::new();
        let mut cursor = pos;
        let mut end: Option<usize> = None;
        let mut jumps = 0usize;
        let mut total = 0usize;
        loop {
            let len = *msg.get(cursor).ok_or(DnsError::Truncated)? as usize;
            if len == 0 {
                let after = cursor + 1;
                return Ok((DnsName { labels }, end.unwrap_or(after)));
            }
            if len & 0xc0 == 0xc0 {
                // Compression pointer.
                let lo = *msg.get(cursor + 1).ok_or(DnsError::Truncated)? as usize;
                let target = ((len & 0x3f) << 8) | lo;
                if end.is_none() {
                    end = Some(cursor + 2);
                }
                if target >= cursor {
                    return Err(DnsError::BadName("forward compression pointer"));
                }
                jumps += 1;
                if jumps > 32 {
                    return Err(DnsError::BadName("compression pointer loop"));
                }
                cursor = target;
                continue;
            }
            if len > MAX_LABEL_LEN {
                return Err(DnsError::BadName("label length"));
            }
            let start = cursor + 1;
            let stop = start + len;
            let label = msg.get(start..stop).ok_or(DnsError::Truncated)?;
            total += len + 1;
            if total > MAX_NAME_LEN {
                return Err(DnsError::BadName("decoded name too long"));
            }
            labels.push(label.to_ascii_lowercase());
            cursor = stop;
        }
    }
}

/// Whether the name [`DnsName::encode`] wrote at `pos` in `buf` — labels,
/// then a zero byte or a pointer to more of them — is exactly `labels`.
fn written_at(buf: &[u8], mut pos: usize, labels: &[Vec<u8>]) -> bool {
    let mut labels = labels.iter();
    loop {
        let Some(&len) = buf.get(pos) else {
            return false;
        };
        if len & 0xc0 == 0xc0 {
            let Some(&lo) = buf.get(pos + 1) else {
                return false;
            };
            let target = (usize::from(len & 0x3f) << 8) | usize::from(lo);
            if target >= pos {
                return false;
            }
            pos = target;
            continue;
        }
        let start = pos + 1;
        pos = start + usize::from(len);
        match labels.next() {
            None => return len == 0,
            Some(label) if len > 0 && buf.get(start..pos) == Some(&label[..]) => {}
            Some(_) => return false,
        }
    }
}

impl fmt::Display for DnsName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.labels.is_empty() {
            return f.write_str(".");
        }
        let mut first = true;
        for label in &self.labels {
            if !first {
                f.write_str(".")?;
            }
            first = false;
            f.write_str(&String::from_utf8_lossy(label))?;
        }
        Ok(())
    }
}

impl FromStr for DnsName {
    type Err = DnsError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DnsName::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display() {
        let n = DnsName::parse("WWW.Example.COM").expect("parse");
        assert_eq!(n.to_string(), "www.example.com");
        assert_eq!(n.label_count(), 3);
        assert_eq!(
            DnsName::parse("example.com.")
                .expect("trailing dot")
                .to_string(),
            "example.com"
        );
        assert_eq!(DnsName::root().to_string(), ".");
    }

    #[test]
    fn rejects_bad_names() {
        assert!(DnsName::parse("a..b").is_err());
        let long_label = "x".repeat(64);
        assert!(DnsName::parse(&long_label).is_err());
        let long_name = vec!["abcdefgh"; 40].join(".");
        assert!(DnsName::parse(&long_name).is_err());
    }

    #[test]
    fn subdomain_relation() {
        let site = DnsName::parse("www.bbc.com").expect("p");
        let zone = DnsName::parse("bbc.com").expect("p");
        let other = DnsName::parse("bbc.org").expect("p");
        assert!(site.is_subdomain_of(&zone));
        assert!(site.is_subdomain_of(&DnsName::root()));
        assert!(zone.is_subdomain_of(&zone), "a zone contains itself");
        assert!(!site.is_subdomain_of(&other));
        assert!(!zone.is_subdomain_of(&site));
    }

    #[test]
    fn parent_and_prepend() {
        let n = DnsName::parse("mail.example.com").expect("p");
        assert_eq!(n.parent().to_string(), "example.com");
        let back = n.parent().prepend("MAIL").expect("prepend");
        assert_eq!(back, n);
        assert_eq!(DnsName::root().parent(), DnsName::root());
    }

    #[test]
    fn prepend_refuses_to_pass_the_name_limit() {
        // 252 characters, the longest name `parse` accepts; four fewer
        // leave exactly room for `mx1.`.
        let text = [63, 63, 63, 60].map(|n| "a".repeat(n)).join(".");
        let too_long = DnsName::parse(&text).expect("p").prepend("mx1");
        assert_eq!(too_long, Err(DnsError::BadName("name too long")));
        let at_limit = DnsName::parse(&text[4..]).expect("p").prepend("mx1");
        assert_eq!(at_limit, DnsName::parse(&format!("mx1.{}", &text[4..])));
    }

    #[test]
    fn encode_decode_roundtrip_uncompressed() {
        let n = DnsName::parse("a.bc.def.example").expect("p");
        let mut buf = Vec::new();
        let mut offsets = Vec::new();
        n.encode(&mut buf, &mut offsets);
        let (decoded, next) = DnsName::decode(&buf, 0).expect("decode");
        assert_eq!(decoded, n);
        assert_eq!(next, buf.len());
    }

    #[test]
    fn compression_reuses_suffixes() {
        let a = DnsName::parse("mail.example.com").expect("p");
        let b = DnsName::parse("www.example.com").expect("p");
        let mut buf = Vec::new();
        let mut offsets = Vec::new();
        a.encode(&mut buf, &mut offsets);
        let first_len = buf.len();
        b.encode(&mut buf, &mut offsets);
        // Second name should be "www" label (4 bytes) + pointer (2 bytes).
        assert_eq!(buf.len() - first_len, 6, "suffix compressed");
        let (da, na) = DnsName::decode(&buf, 0).expect("a");
        let (db, nb) = DnsName::decode(&buf, na).expect("b");
        assert_eq!(da, a);
        assert_eq!(db, b);
        assert_eq!(nb, buf.len());
    }

    #[test]
    fn identical_name_is_pure_pointer() {
        let a = DnsName::parse("twitter.com").expect("p");
        let mut buf = Vec::new();
        let mut offsets = Vec::new();
        a.encode(&mut buf, &mut offsets);
        let first_len = buf.len();
        a.encode(&mut buf, &mut offsets);
        assert_eq!(
            buf.len() - first_len,
            2,
            "full name collapses to one pointer"
        );
    }

    /// The encoder as it was when `offsets` held a clone of every suffix
    /// written: the oracle for [`DnsName::encode`]'s bytes.
    fn encode_with_suffix_clones(
        name: &DnsName,
        buf: &mut Vec<u8>,
        offsets: &mut Vec<(DnsName, usize)>,
    ) {
        let mut remaining = name.clone();
        let mut idx = 0usize;
        loop {
            if remaining.labels.is_empty() {
                buf.push(0);
                return;
            }
            if let Some(&(_, off)) = offsets
                .iter()
                .find(|(n, off)| *n == remaining && *off < 0x3fff)
            {
                buf.push(0xc0 | ((off >> 8) as u8));
                buf.push((off & 0xff) as u8);
                return;
            }
            if buf.len() < 0x3fff {
                offsets.push((remaining.clone(), buf.len()));
            }
            let label = &name.labels[idx];
            buf.push(label.len() as u8);
            buf.extend_from_slice(label);
            idx += 1;
            remaining = remaining.parent();
        }
    }

    #[test]
    fn encode_matches_the_suffix_clone_oracle() {
        use underradar_netsim::testprop::cases;
        // A small label pool, so suffixes recur; mixed case, so equality
        // must hold across spellings; random bytes between names, as
        // record data sits between them in a message.
        const POOL: [&str; 10] = [
            "com", "org", "bbc", "twitter", "mx1", "www", "a", "mail", "b0", "cdn",
        ];
        let mut past_pointer_limit = 0;
        cases(40, 0xD45E_0001, |g| {
            let names = if g.usize_in(0, 7) == 0 {
                g.usize_in(900, 1200)
            } else {
                g.usize_in(1, 40)
            };
            let mut buf = g.bytes(0, 12);
            let mut oracle_buf = buf.clone();
            let (mut offsets, mut oracle_offsets) = (Vec::new(), Vec::new());
            for _ in 0..names {
                let labels: Vec<String> = (0..g.usize_in(0, 4))
                    .map(|_| {
                        g.choose(&POOL)
                            .chars()
                            .map(|c| if g.bool() { c.to_ascii_uppercase() } else { c })
                            .collect()
                    })
                    .collect();
                let name = DnsName::parse(&labels.join(".")).expect("pool names parse");
                name.encode(&mut buf, &mut offsets);
                encode_with_suffix_clones(&name, &mut oracle_buf, &mut oracle_offsets);
                let between = g.bytes(0, 40);
                buf.extend_from_slice(&between);
                oracle_buf.extend_from_slice(&between);
            }
            assert_eq!(buf, oracle_buf);
            if buf.len() > 0x3fff {
                past_pointer_limit += 1;
            }
        });
        assert!(past_pointer_limit > 0, "some buffer must pass 0x3fff");
    }

    #[test]
    fn decode_rejects_pointer_loops_and_forward_pointers() {
        // Self-pointing pointer at offset 0.
        let looped = [0xc0u8, 0x00];
        assert!(DnsName::decode(&looped, 0).is_err());
        // Forward pointer.
        let fwd = [0xc0u8, 0x04, 0, 0, 1, b'a', 0];
        assert!(DnsName::decode(&fwd, 0).is_err());
        // Truncated label.
        let trunc = [5u8, b'a', b'b'];
        assert!(DnsName::decode(&trunc, 0).is_err());
    }

    #[test]
    fn case_insensitive_equality() {
        let a = DnsName::parse("Twitter.COM").expect("p");
        let b = DnsName::parse("twitter.com").expect("p");
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut ha = DefaultHasher::new();
        let mut hb = DefaultHasher::new();
        a.hash(&mut ha);
        b.hash(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
    }
}
