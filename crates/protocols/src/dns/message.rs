//! DNS messages: header, questions, resource records, wire encode/decode.

use std::fmt;
use std::net::Ipv4Addr;

use super::name::DnsName;

/// Errors from DNS parsing and construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DnsError {
    /// The buffer ended before the structure did.
    Truncated,
    /// A malformed name (bad label, pointer loop, overlength).
    BadName(&'static str),
    /// A structurally invalid message.
    Malformed(&'static str),
}

impl fmt::Display for DnsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DnsError::Truncated => write!(f, "truncated DNS message"),
            DnsError::BadName(w) => write!(f, "bad DNS name: {w}"),
            DnsError::Malformed(w) => write!(f, "malformed DNS message: {w}"),
        }
    }
}

impl std::error::Error for DnsError {}

/// Query/record types the simulator understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QType {
    /// IPv4 address record.
    A,
    /// Authoritative name server.
    Ns,
    /// Canonical name (alias).
    Cname,
    /// Mail exchanger — the record the spam method queries first.
    Mx,
    /// Free-form text.
    Txt,
    /// Any other type, carried numerically.
    Other(u16),
}

impl QType {
    /// Wire value.
    pub fn number(self) -> u16 {
        match self {
            QType::A => 1,
            QType::Ns => 2,
            QType::Cname => 5,
            QType::Mx => 15,
            QType::Txt => 16,
            QType::Other(n) => n,
        }
    }

    /// From wire value.
    pub fn from_number(n: u16) -> QType {
        match n {
            1 => QType::A,
            2 => QType::Ns,
            5 => QType::Cname,
            15 => QType::Mx,
            16 => QType::Txt,
            other => QType::Other(other),
        }
    }
}

impl fmt::Display for QType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QType::A => write!(f, "A"),
            QType::Ns => write!(f, "NS"),
            QType::Cname => write!(f, "CNAME"),
            QType::Mx => write!(f, "MX"),
            QType::Txt => write!(f, "TXT"),
            QType::Other(n) => write!(f, "TYPE{n}"),
        }
    }
}

/// Record class; only IN is used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DnsClass {
    /// Internet.
    In,
    /// Anything else.
    Other(u16),
}

impl DnsClass {
    fn number(self) -> u16 {
        match self {
            DnsClass::In => 1,
            DnsClass::Other(n) => n,
        }
    }
    fn from_number(n: u16) -> DnsClass {
        match n {
            1 => DnsClass::In,
            other => DnsClass::Other(other),
        }
    }
}

/// Response codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rcode {
    /// No error.
    NoError,
    /// Format error.
    FormErr,
    /// Server failure.
    ServFail,
    /// Name does not exist — the verdict-relevant code for DNS censorship
    /// measurements.
    NxDomain,
    /// Not implemented.
    NotImp,
    /// Refused.
    Refused,
    /// Any other code.
    Other(u8),
}

impl Rcode {
    fn number(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
            Rcode::Other(n) => n,
        }
    }
    fn from_number(n: u8) -> Rcode {
        match n {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            other => Rcode::Other(other),
        }
    }
}

/// A question entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Question {
    /// Queried name.
    pub name: DnsName,
    /// Queried type.
    pub qtype: QType,
    /// Class (IN).
    pub class: DnsClass,
}

/// Record data by type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordData {
    /// An IPv4 address.
    A(Ipv4Addr),
    /// A name server.
    Ns(DnsName),
    /// An alias target.
    Cname(DnsName),
    /// A mail exchanger with preference.
    Mx {
        /// Lower is preferred.
        preference: u16,
        /// The exchanger host name.
        exchange: DnsName,
    },
    /// Text data.
    Txt(Vec<u8>),
    /// Opaque data under an unknown type.
    Other {
        /// Wire type.
        rtype: u16,
        /// Raw RDATA.
        data: Vec<u8>,
    },
}

impl RecordData {
    /// The record type of this data.
    pub fn qtype(&self) -> QType {
        match self {
            RecordData::A(_) => QType::A,
            RecordData::Ns(_) => QType::Ns,
            RecordData::Cname(_) => QType::Cname,
            RecordData::Mx { .. } => QType::Mx,
            RecordData::Txt(_) => QType::Txt,
            RecordData::Other { rtype, .. } => QType::Other(*rtype),
        }
    }
}

/// A resource record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Owner name.
    pub name: DnsName,
    /// Time to live in seconds.
    pub ttl: u32,
    /// Typed data.
    pub data: RecordData,
}

/// A DNS message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsMessage {
    /// Transaction id.
    pub id: u16,
    /// Whether this is a response.
    pub is_response: bool,
    /// Authoritative-answer flag.
    pub authoritative: bool,
    /// Recursion-desired flag.
    pub recursion_desired: bool,
    /// Recursion-available flag.
    pub recursion_available: bool,
    /// Response code.
    pub rcode: Rcode,
    /// Question section.
    pub questions: Vec<Question>,
    /// Answer section.
    pub answers: Vec<Record>,
    /// Authority section.
    pub authorities: Vec<Record>,
}

impl DnsMessage {
    /// Build a standard recursive query.
    pub fn query(id: u16, name: DnsName, qtype: QType) -> DnsMessage {
        DnsMessage {
            id,
            is_response: false,
            authoritative: false,
            recursion_desired: true,
            recursion_available: false,
            rcode: Rcode::NoError,
            questions: vec![Question {
                name,
                qtype,
                class: DnsClass::In,
            }],
            answers: Vec::new(),
            authorities: Vec::new(),
        }
    }

    /// Build a response skeleton echoing `query`'s id and question.
    pub fn response_to(query: &DnsMessage, rcode: Rcode) -> DnsMessage {
        DnsMessage {
            id: query.id,
            is_response: true,
            authoritative: true,
            recursion_desired: query.recursion_desired,
            recursion_available: true,
            rcode,
            questions: query.questions.clone(),
            answers: Vec::new(),
            authorities: Vec::new(),
        }
    }

    /// First question, if present.
    pub fn question(&self) -> Option<&Question> {
        self.questions.first()
    }

    /// All A addresses in the answer section.
    pub fn a_records(&self) -> Vec<Ipv4Addr> {
        self.answers
            .iter()
            .filter_map(|r| match &r.data {
                RecordData::A(a) => Some(*a),
                _ => None,
            })
            .collect()
    }

    /// All MX (preference, exchange) pairs in the answer section, sorted by
    /// preference.
    pub fn mx_records(&self) -> Vec<(u16, DnsName)> {
        let mut v: Vec<(u16, DnsName)> = self
            .answers
            .iter()
            .filter_map(|r| match &r.data {
                RecordData::Mx {
                    preference,
                    exchange,
                } => Some((*preference, exchange.clone())),
                _ => None,
            })
            .collect();
        v.sort();
        v
    }

    /// Serialize to wire bytes (with name compression).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        let mut offsets: Vec<usize> = Vec::new();
        buf.extend_from_slice(&self.id.to_be_bytes());
        let mut flags: u16 = 0;
        if self.is_response {
            flags |= 0x8000;
        }
        if self.authoritative {
            flags |= 0x0400;
        }
        if self.recursion_desired {
            flags |= 0x0100;
        }
        if self.recursion_available {
            flags |= 0x0080;
        }
        flags |= u16::from(self.rcode.number() & 0x0f);
        buf.extend_from_slice(&flags.to_be_bytes());
        buf.extend_from_slice(&(self.questions.len() as u16).to_be_bytes());
        buf.extend_from_slice(&(self.answers.len() as u16).to_be_bytes());
        buf.extend_from_slice(&(self.authorities.len() as u16).to_be_bytes());
        buf.extend_from_slice(&0u16.to_be_bytes()); // no additionals
        for q in &self.questions {
            q.name.encode(&mut buf, &mut offsets);
            buf.extend_from_slice(&q.qtype.number().to_be_bytes());
            buf.extend_from_slice(&q.class.number().to_be_bytes());
        }
        for r in self.answers.iter().chain(self.authorities.iter()) {
            Self::encode_record(r, &mut buf, &mut offsets);
        }
        buf
    }

    fn encode_record(r: &Record, buf: &mut Vec<u8>, offsets: &mut Vec<usize>) {
        r.name.encode(buf, offsets);
        buf.extend_from_slice(&r.data.qtype().number().to_be_bytes());
        buf.extend_from_slice(&DnsClass::In.number().to_be_bytes());
        buf.extend_from_slice(&r.ttl.to_be_bytes());
        let rdlen_pos = buf.len();
        buf.extend_from_slice(&[0, 0]); // RDLENGTH placeholder
        let rdata_start = buf.len();
        match &r.data {
            RecordData::A(a) => buf.extend_from_slice(&a.octets()),
            RecordData::Ns(n) => n.encode(buf, offsets),
            RecordData::Cname(n) => n.encode(buf, offsets),
            RecordData::Mx {
                preference,
                exchange,
            } => {
                buf.extend_from_slice(&preference.to_be_bytes());
                exchange.encode(buf, offsets);
            }
            RecordData::Txt(t) => {
                // Single character-string; long TXT split into 255-byte runs.
                for chunk in t.chunks(255) {
                    buf.push(chunk.len() as u8);
                    buf.extend_from_slice(chunk);
                }
                if t.is_empty() {
                    buf.push(0);
                }
            }
            RecordData::Other { data, .. } => buf.extend_from_slice(data),
        }
        let rdlen = (buf.len() - rdata_start) as u16;
        buf[rdlen_pos..rdlen_pos + 2].copy_from_slice(&rdlen.to_be_bytes());
    }

    /// Parse from wire bytes.
    pub fn decode(msg: &[u8]) -> Result<DnsMessage, DnsError> {
        if msg.len() < 12 {
            return Err(DnsError::Truncated);
        }
        let id = u16::from_be_bytes([msg[0], msg[1]]);
        let flags = u16::from_be_bytes([msg[2], msg[3]]);
        let qd = u16::from_be_bytes([msg[4], msg[5]]) as usize;
        let an = u16::from_be_bytes([msg[6], msg[7]]) as usize;
        let ns = u16::from_be_bytes([msg[8], msg[9]]) as usize;
        let ar = u16::from_be_bytes([msg[10], msg[11]]) as usize;
        let mut pos = 12usize;

        let mut questions = Vec::with_capacity(qd.min(32));
        for _ in 0..qd {
            let (name, next) = DnsName::decode(msg, pos)?;
            pos = next;
            let qt = msg.get(pos..pos + 2).ok_or(DnsError::Truncated)?;
            let cl = msg.get(pos + 2..pos + 4).ok_or(DnsError::Truncated)?;
            questions.push(Question {
                name,
                qtype: QType::from_number(u16::from_be_bytes([qt[0], qt[1]])),
                class: DnsClass::from_number(u16::from_be_bytes([cl[0], cl[1]])),
            });
            pos += 4;
        }

        let mut sections = [Vec::new(), Vec::new()];
        for (idx, count) in [(0usize, an), (1usize, ns)] {
            for _ in 0..count {
                let (record, next) = Self::decode_record(msg, pos)?;
                pos = next;
                sections[idx].push(record);
            }
        }
        // Skip additionals (parsed for position correctness only).
        for _ in 0..ar {
            let (_, next) = Self::decode_record(msg, pos)?;
            pos = next;
        }

        let [answers, authorities] = sections;
        Ok(DnsMessage {
            id,
            is_response: flags & 0x8000 != 0,
            authoritative: flags & 0x0400 != 0,
            recursion_desired: flags & 0x0100 != 0,
            recursion_available: flags & 0x0080 != 0,
            rcode: Rcode::from_number((flags & 0x0f) as u8),
            questions,
            answers,
            authorities,
        })
    }

    fn decode_record(msg: &[u8], pos: usize) -> Result<(Record, usize), DnsError> {
        let (name, next) = DnsName::decode(msg, pos)?;
        let fixed = msg.get(next..next + 10).ok_or(DnsError::Truncated)?;
        let rtype = u16::from_be_bytes([fixed[0], fixed[1]]);
        let ttl = u32::from_be_bytes([fixed[4], fixed[5], fixed[6], fixed[7]]);
        let rdlen = u16::from_be_bytes([fixed[8], fixed[9]]) as usize;
        let rdata_start = next + 10;
        let rdata_end = rdata_start + rdlen;
        let rdata = msg.get(rdata_start..rdata_end).ok_or(DnsError::Truncated)?;
        let data = match QType::from_number(rtype) {
            QType::A => {
                if rdata.len() != 4 {
                    return Err(DnsError::Malformed("A RDATA length"));
                }
                RecordData::A(Ipv4Addr::new(rdata[0], rdata[1], rdata[2], rdata[3]))
            }
            QType::Ns => {
                let (n, _) = DnsName::decode(msg, rdata_start)?;
                RecordData::Ns(n)
            }
            QType::Cname => {
                let (n, _) = DnsName::decode(msg, rdata_start)?;
                RecordData::Cname(n)
            }
            QType::Mx => {
                if rdata.len() < 3 {
                    return Err(DnsError::Malformed("MX RDATA length"));
                }
                let preference = u16::from_be_bytes([rdata[0], rdata[1]]);
                let (exchange, _) = DnsName::decode(msg, rdata_start + 2)?;
                RecordData::Mx {
                    preference,
                    exchange,
                }
            }
            QType::Txt => {
                let mut text = Vec::new();
                let mut p = 0usize;
                while p < rdata.len() {
                    let l = rdata[p] as usize;
                    let chunk = rdata.get(p + 1..p + 1 + l).ok_or(DnsError::Truncated)?;
                    text.extend_from_slice(chunk);
                    p += 1 + l;
                }
                RecordData::Txt(text)
            }
            QType::Other(t) => RecordData::Other {
                rtype: t,
                data: rdata.to_vec(),
            },
        };
        Ok((Record { name, ttl, data }, rdata_end))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> DnsName {
        DnsName::parse(s).expect("name")
    }

    #[test]
    fn query_roundtrip() {
        let q = DnsMessage::query(0x1234, name("twitter.com"), QType::Mx);
        let decoded = DnsMessage::decode(&q.encode()).expect("decode");
        assert_eq!(decoded, q);
        assert!(!decoded.is_response);
        assert_eq!(decoded.question().expect("q").qtype, QType::Mx);
    }

    #[test]
    fn response_with_all_record_types_roundtrips() {
        let q = DnsMessage::query(7, name("example.com"), QType::A);
        let mut r = DnsMessage::response_to(&q, Rcode::NoError);
        r.answers = vec![
            Record {
                name: name("example.com"),
                ttl: 300,
                data: RecordData::A("93.184.216.34".parse().expect("ip")),
            },
            Record {
                name: name("example.com"),
                ttl: 300,
                data: RecordData::Cname(name("edge.example.com")),
            },
            Record {
                name: name("example.com"),
                ttl: 3600,
                data: RecordData::Mx {
                    preference: 10,
                    exchange: name("mail.example.com"),
                },
            },
            Record {
                name: name("example.com"),
                ttl: 60,
                data: RecordData::Txt(b"v=spf1 -all".to_vec()),
            },
        ];
        r.authorities = vec![Record {
            name: name("example.com"),
            ttl: 86400,
            data: RecordData::Ns(name("ns1.example.com")),
        }];
        let decoded = DnsMessage::decode(&r.encode()).expect("decode");
        assert_eq!(decoded, r);
    }

    #[test]
    fn compression_shrinks_repeated_names() {
        let q = DnsMessage::query(7, name("very.long.domain.example.com"), QType::A);
        let mut r = DnsMessage::response_to(&q, Rcode::NoError);
        for i in 0..5u8 {
            r.answers.push(Record {
                name: name("very.long.domain.example.com"),
                ttl: 60,
                data: RecordData::A(Ipv4Addr::new(10, 0, 0, i)),
            });
        }
        let encoded = r.encode();
        // Uncompressed, 6 copies of a 30-byte name would dominate; with
        // compression each repeat is a 2-byte pointer.
        assert!(encoded.len() < 150, "compressed size {}", encoded.len());
        assert_eq!(DnsMessage::decode(&encoded).expect("decode"), r);
    }

    #[test]
    fn helpers_extract_records() {
        let q = DnsMessage::query(1, name("site.test"), QType::A);
        let mut r = DnsMessage::response_to(&q, Rcode::NoError);
        r.answers = vec![
            Record {
                name: name("site.test"),
                ttl: 1,
                data: RecordData::A(Ipv4Addr::new(1, 1, 1, 1)),
            },
            Record {
                name: name("site.test"),
                ttl: 1,
                data: RecordData::Mx {
                    preference: 20,
                    exchange: name("mx2.site.test"),
                },
            },
            Record {
                name: name("site.test"),
                ttl: 1,
                data: RecordData::Mx {
                    preference: 10,
                    exchange: name("mx1.site.test"),
                },
            },
        ];
        assert_eq!(r.a_records(), vec![Ipv4Addr::new(1, 1, 1, 1)]);
        let mx = r.mx_records();
        assert_eq!(mx[0], (10, name("mx1.site.test")));
        assert_eq!(mx[1], (20, name("mx2.site.test")));
    }

    #[test]
    fn nxdomain_flag_roundtrip() {
        let q = DnsMessage::query(9, name("blocked.example"), QType::A);
        let r = DnsMessage::response_to(&q, Rcode::NxDomain);
        let decoded = DnsMessage::decode(&r.encode()).expect("decode");
        assert_eq!(decoded.rcode, Rcode::NxDomain);
        assert!(decoded.is_response);
        assert!(decoded.authoritative);
    }

    #[test]
    fn truncated_and_garbage_inputs_error() {
        assert_eq!(DnsMessage::decode(&[0; 5]), Err(DnsError::Truncated));
        let q = DnsMessage::query(1, name("a.b"), QType::A).encode();
        for cut in [6usize, 13, q.len() - 1] {
            assert!(DnsMessage::decode(&q[..cut]).is_err());
        }
        // Random bytes must never panic (also covered by proptests).
        let garbage = [0xffu8; 40];
        let _ = DnsMessage::decode(&garbage);
    }

    #[test]
    fn empty_txt_roundtrips() {
        let q = DnsMessage::query(2, name("t.test"), QType::Txt);
        let mut r = DnsMessage::response_to(&q, Rcode::NoError);
        r.answers = vec![Record {
            name: name("t.test"),
            ttl: 1,
            data: RecordData::Txt(Vec::new()),
        }];
        assert_eq!(DnsMessage::decode(&r.encode()).expect("d"), r);
    }

    #[test]
    fn long_txt_splits_and_rejoins() {
        let big = vec![b'x'; 700];
        let q = DnsMessage::query(2, name("t.test"), QType::Txt);
        let mut r = DnsMessage::response_to(&q, Rcode::NoError);
        r.answers = vec![Record {
            name: name("t.test"),
            ttl: 1,
            data: RecordData::Txt(big.clone()),
        }];
        let decoded = DnsMessage::decode(&r.encode()).expect("d");
        match &decoded.answers[0].data {
            RecordData::Txt(t) => assert_eq!(t, &big),
            other => panic!("wrong type {other:?}"),
        }
    }
}
