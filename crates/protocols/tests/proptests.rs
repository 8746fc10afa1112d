//! Property tests for the protocol substrates: DNS wire roundtrips with
//! arbitrary record sets, name encode/decode with compression, email wire
//! safety, HTTP parser robustness and agreement with the owned parsers the
//! borrowed views replaced. Inputs come from the in-tree seeded generator
//! ([`underradar_netsim::testprop`]).

use std::net::Ipv4Addr;

use underradar_netsim::testprop::{cases, Gen};
use underradar_protocols::dns::{DnsMessage, DnsName, QType, Rcode, Record, RecordData};
use underradar_protocols::email::EmailMessage;
use underradar_protocols::http::{HttpRequest, HttpResponse};

const LABEL_ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";

fn arb_label(g: &mut Gen) -> String {
    let len = g.usize_in(1, 13);
    g.string_from(LABEL_ALPHABET, len)
}

fn arb_name(g: &mut Gen) -> DnsName {
    let n = g.usize_in(1, 5);
    let labels: Vec<String> = (0..n).map(|_| arb_label(g)).collect();
    DnsName::parse(&labels.join(".")).expect("generated name is valid")
}

fn arb_rdata(g: &mut Gen) -> RecordData {
    match g.usize_in(0, 5) {
        0 => RecordData::A(Ipv4Addr::from(g.u32())),
        1 => RecordData::Ns(arb_name(g)),
        2 => RecordData::Cname(arb_name(g)),
        3 => RecordData::Mx {
            preference: g.u16(),
            exchange: arb_name(g),
        },
        _ => RecordData::Txt(g.bytes(0, 300)),
    }
}

fn arb_record(g: &mut Gen) -> Record {
    Record {
        name: arb_name(g),
        ttl: g.u32_in(0, 100_000),
        data: arb_rdata(g),
    }
}

fn arb_message(g: &mut Gen) -> DnsMessage {
    let qtype = *g.choose(&[QType::A, QType::Mx, QType::Ns, QType::Txt, QType::Cname]);
    let rcode = *g.choose(&[Rcode::NoError, Rcode::NxDomain, Rcode::ServFail]);
    let mut m = DnsMessage::query(g.u16(), arb_name(g), qtype);
    if g.bool() {
        m = DnsMessage::response_to(&m, rcode);
        m.answers = (0..g.usize_in(0, 6)).map(|_| arb_record(g)).collect();
        m.authorities = (0..g.usize_in(0, 3)).map(|_| arb_record(g)).collect();
    }
    m
}

/// DNS messages roundtrip the wire exactly, whatever the record mix.
#[test]
fn dns_message_roundtrip() {
    cases(256, 0xB001, |g| {
        let msg = arb_message(g);
        let decoded = DnsMessage::decode(&msg.encode()).expect("own encoding parses");
        assert_eq!(decoded, msg);
    });
}

/// Arbitrary bytes never panic the DNS decoder.
#[test]
fn dns_decoder_total() {
    cases(512, 0xB002, |g| {
        let bytes = g.bytes(0, 400);
        let _ = DnsMessage::decode(&bytes);
    });
}

/// Name compression never changes the decoded names, in any order.
#[test]
fn name_compression_transparent() {
    cases(256, 0xB003, |g| {
        let n = g.usize_in(1, 10);
        let names: Vec<DnsName> = (0..n).map(|_| arb_name(g)).collect();
        let mut buf = Vec::new();
        let mut offsets = Vec::new();
        for name in &names {
            name.encode(&mut buf, &mut offsets);
        }
        let mut pos = 0usize;
        for name in &names {
            let (decoded, next) = DnsName::decode(&buf, pos).expect("decode");
            assert_eq!(&decoded, name);
            pos = next;
        }
        assert_eq!(pos, buf.len());
    });
}

/// Subdomain relation is reflexive and respects label suffixes.
#[test]
fn subdomain_properties() {
    cases(256, 0xB004, |g| {
        let a = arb_name(g);
        let label = arb_label(g);
        assert!(a.is_subdomain_of(&a));
        let child = a.prepend(&label).expect("prepend");
        assert!(child.is_subdomain_of(&a));
        assert!(!a.is_subdomain_of(&child));
    });
}

/// Email messages survive the wire whatever the body shape (including
/// dot-stuffing hazards).
#[test]
fn email_roundtrip() {
    cases(256, 0xB005, |g| {
        let subject = g.printable(0, 60);
        let n_lines = g.usize_in(0, 9);
        let mut body_lines: Vec<String> = (0..n_lines).map(|_| g.printable(0, 40)).collect();
        body_lines.push(g.printable(0, 40));
        let body = body_lines.join("\n");
        let msg = EmailMessage::new("a@b.example", "c@d.example", &subject, &body);
        let parsed = EmailMessage::from_wire(&msg.to_wire()).expect("parse back");
        assert_eq!(parsed.subject.trim(), subject.trim());
        assert_eq!(parsed.body, body.replace('\r', ""));
    });
}

/// HTTP request roundtrip for safe path/host charsets.
#[test]
fn http_request_roundtrip() {
    cases(256, 0xB006, |g| {
        let host_len = g.usize_in(1, 31);
        let host = g.string_from(b"abcdefghijklmnopqrstuvwxyz0123456789.", host_len);
        let path_len = g.usize_in(0, 41);
        let path = format!(
            "/{}",
            g.string_from(
                b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789/_-",
                path_len
            )
        );
        let req = HttpRequest::render_get(&host, &path, &[]);
        let parsed = HttpRequest::parse(&req).expect("parse");
        assert_eq!(parsed.host, host.as_bytes());
        assert_eq!(parsed.path, path.as_bytes());
    });
}

/// HTTP parsers are total over arbitrary bytes.
#[test]
fn http_parsers_total() {
    cases(512, 0xB007, |g| {
        let bytes = g.bytes(0, 300);
        let _ = HttpRequest::parse(&bytes);
        let _ = HttpResponse::parse(&bytes);
    });
}

/// Response status/body survive the wire.
#[test]
fn http_response_roundtrip() {
    cases(256, 0xB008, |g| {
        let status = g.u32_in(100, 600) as u16;
        let body = g.bytes(0, 200);
        let resp = oracle::HttpResponse {
            status,
            reason: "Custom".to_string(),
            headers: vec![("X-Test".to_string(), "v".to_string())],
            body: body.clone(),
        };
        let wire = resp.to_wire();
        let parsed = HttpResponse::parse(&wire).expect("parse");
        assert_eq!(parsed.status, status);
        assert_eq!(parsed.reason, b"Custom");
        assert_eq!(parsed.body, body);
    });
}

/// The owned HTTP parsers that the borrowed views replaced, kept as the
/// differential oracle. They decode the head with `String::from_utf8_lossy`
/// and split it with `str` methods, which are Unicode-aware. One change:
/// the body is sliced at the blank line's offset in the input bytes. The
/// old parsers took the offset from the lossy decoding, which is longer
/// than the input when it replaced invalid UTF-8, and so panicked or
/// misplaced the body.
mod oracle {
    use underradar_protocols::http::HttpError;

    /// An owned HTTP request.
    #[derive(Debug)]
    pub struct HttpRequest {
        pub method: String,
        pub path: String,
        pub host: String,
    }

    impl HttpRequest {
        pub fn parse(data: &[u8]) -> Result<HttpRequest, HttpError> {
            let text = String::from_utf8_lossy(data);
            let head_end = text.find("\r\n\r\n").ok_or(HttpError::Incomplete)?;
            let head = &text[..head_end];
            let mut lines = head.split("\r\n");
            let start = lines.next().ok_or(HttpError::BadStartLine)?;
            let mut parts = start.split_whitespace();
            let method = parts.next().ok_or(HttpError::BadStartLine)?.to_string();
            let path = parts.next().ok_or(HttpError::BadStartLine)?.to_string();
            let version = parts.next().ok_or(HttpError::BadStartLine)?;
            if !version.starts_with("HTTP/") {
                return Err(HttpError::BadStartLine);
            }
            let mut host = String::new();
            for line in lines {
                let (name, value) = line.split_once(':').ok_or(HttpError::BadHeader)?;
                if name.eq_ignore_ascii_case("host") {
                    host = value.trim().to_string();
                }
            }
            Ok(HttpRequest { method, path, host })
        }
    }

    /// An owned HTTP response.
    #[derive(Debug)]
    pub struct HttpResponse {
        pub status: u16,
        pub reason: String,
        pub headers: Vec<(String, String)>,
        pub body: Vec<u8>,
    }

    impl HttpResponse {
        pub fn to_wire(&self) -> Vec<u8> {
            let mut out = format!("HTTP/1.0 {} {}\r\n", self.status, self.reason);
            for (name, value) in &self.headers {
                out.push_str(&format!("{name}: {value}\r\n"));
            }
            out.push_str(&format!("Content-Length: {}\r\n\r\n", self.body.len()));
            let mut bytes = out.into_bytes();
            bytes.extend_from_slice(&self.body);
            bytes
        }

        pub fn parse(data: &[u8]) -> Result<HttpResponse, HttpError> {
            let text = String::from_utf8_lossy(data);
            let head_end = text.find("\r\n\r\n").ok_or(HttpError::Incomplete)?;
            let head = &text[..head_end];
            let mut lines = head.split("\r\n");
            let start = lines.next().ok_or(HttpError::BadStartLine)?;
            let mut parts = start.splitn(3, ' ');
            let version = parts.next().ok_or(HttpError::BadStartLine)?;
            if !version.starts_with("HTTP/") {
                return Err(HttpError::BadStartLine);
            }
            let status: u16 = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or(HttpError::BadStartLine)?;
            let reason = parts.next().unwrap_or("").to_string();
            let mut headers = Vec::new();
            for line in lines {
                let (name, value) = line.split_once(':').ok_or(HttpError::BadHeader)?;
                if !name.eq_ignore_ascii_case("content-length") {
                    headers.push((name.to_string(), value.trim().to_string()));
                }
            }
            let body_at = data
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
                .expect("the lossy head ends where the bytes' head does")
                + 4;
            Ok(HttpResponse {
                status,
                reason,
                headers,
                body: data[body_at..].to_vec(),
            })
        }
    }
}

/// Pieces of words: tokens a request or status line carries, near misses
/// of them, and bytes that are not UTF-8 (a lone continuation byte, a
/// truncated two- and three-byte sequence, a byte no UTF-8 uses).
const WORD_PIECES: &[&[u8]] = &[
    b"GET",
    b"HTTP/1.0",
    b"HTTP/",
    b"HTTP",
    b"http/1.0",
    b"200",
    b"+200",
    b"404",
    b"65536",
    b"OK",
    b"/",
    b"/news",
    b"Host",
    b"host",
    b"a",
    b"\x80",
    b"\xc2",
    b"\xe2\x80",
    b"\xff",
];

/// Separators: what `str::split_whitespace` splits at (ASCII whitespace
/// and U+0085, U+00A0, U+2028, U+3000), and near misses it does not split
/// at (U+200B, an invalid byte, nothing).
const SEPARATORS: &[&[u8]] = &[
    b" ",
    b"  ",
    b"\t",
    b"\x0b",
    b"\r",
    b"\n",
    "\u{85}".as_bytes(),
    "\u{a0}".as_bytes(),
    "\u{2028}".as_bytes(),
    "\u{3000}".as_bytes(),
    "\u{200b}".as_bytes(),
    b"\xa0",
    b"",
];

/// A uniform element of `items`.
fn pick(g: &mut Gen, items: &[&'static [u8]]) -> &'static [u8] {
    items[g.usize_in(0, items.len())]
}

/// Words from [`WORD_PIECES`] joined by [`SEPARATORS`].
fn arb_words(g: &mut Gen, out: &mut Vec<u8>) {
    for i in 0..g.usize_in(0, 5) {
        if i > 0 {
            out.extend_from_slice(pick(g, SEPARATORS));
        }
        for _ in 0..g.usize_in(1, 3) {
            out.extend_from_slice(pick(g, WORD_PIECES));
        }
    }
}

/// A separator, half the time the plain space a status line needs.
fn arb_separator(g: &mut Gen) -> &'static [u8] {
    if g.bool() {
        b" "
    } else {
        pick(g, SEPARATORS)
    }
}

/// A start line: free-form words, or a request or status line whose slots
/// hold a valid token or a near miss of one.
fn arb_start_line(g: &mut Gen, out: &mut Vec<u8>) {
    let versions: [&[u8]; 4] = [b"HTTP/1.0", b"HTTP/", b"HTTP", b"\xffHTTP/1.0"];
    match g.usize_in(0, 3) {
        0 => arb_words(g, out),
        1 => {
            let methods: [&[u8]; 3] = [b"GET", b"G\xc2T", b""];
            out.extend_from_slice(pick(g, &methods));
            out.extend_from_slice(arb_separator(g));
            out.extend_from_slice(pick(g, WORD_PIECES));
            out.extend_from_slice(arb_separator(g));
            out.extend_from_slice(pick(g, &versions));
        }
        _ => {
            let statuses: [&[u8]; 6] = [b"200", b"+200", b"404", b"65536", b"2\xff", b""];
            out.extend_from_slice(pick(g, &versions));
            out.extend_from_slice(arb_separator(g));
            out.extend_from_slice(pick(g, &statuses));
            out.extend_from_slice(arb_separator(g));
        }
    }
    if g.bool() {
        arb_words(g, out);
    }
}

/// Bytes shaped like an HTTP message: a start line, header lines (some
/// with no colon, some naming Host), usually a blank line, then a body.
/// Every part mixes in Unicode whitespace and bytes that are not UTF-8.
fn arb_http_message(g: &mut Gen) -> Vec<u8> {
    let mut out = Vec::new();
    arb_start_line(g, &mut out);
    for _ in 0..g.usize_in(0, 3) {
        out.extend_from_slice(b"\r\n");
        if g.usize_in(0, 6) > 0 {
            let names: [&[u8]; 5] = [b"Host", b"HOST", b"X-Seen", b"\xffHost", b""];
            out.extend_from_slice(pick(g, &names));
            out.push(b':');
        }
        out.extend_from_slice(pick(g, SEPARATORS));
        arb_words(g, &mut out);
        out.extend_from_slice(pick(g, SEPARATORS));
    }
    if g.usize_in(0, 8) > 0 {
        out.extend_from_slice(b"\r\n\r\n");
    }
    out.extend(g.bytes(0, 12));
    out
}

/// The borrowed-view parsers accept exactly what the owned parsers
/// accepted, fail with the same error otherwise, and read the same status,
/// method, path and Host value: on message-shaped bytes full of Unicode
/// whitespace and invalid UTF-8, and on arbitrary bytes.
#[test]
fn http_views_agree_with_the_owned_parsers() {
    fn same_text(view: &[u8], owned: &str) {
        assert_eq!(String::from_utf8_lossy(view), owned);
    }
    let mut accepted = (0, 0);
    cases(16_384, 0xB009, |g| {
        let bytes = if g.usize_in(0, 8) > 0 {
            arb_http_message(g)
        } else {
            g.bytes(0, 64)
        };
        match (
            HttpRequest::parse(&bytes),
            oracle::HttpRequest::parse(&bytes),
        ) {
            (Ok(view), Ok(owned)) => {
                same_text(view.method, &owned.method);
                same_text(view.path, &owned.path);
                same_text(view.host, &owned.host);
                accepted.0 += 1;
            }
            (Err(e), Err(o)) => assert_eq!(e, o, "request {bytes:?}"),
            (view, owned) => panic!("request {bytes:?}: view {view:?}, owned {owned:?}"),
        }
        match (
            HttpResponse::parse(&bytes),
            oracle::HttpResponse::parse(&bytes),
        ) {
            (Ok(view), Ok(owned)) => {
                assert_eq!(view.status, owned.status, "response {bytes:?}");
                same_text(view.reason, &owned.reason);
                assert_eq!(view.body, owned.body);
                accepted.1 += 1;
            }
            (Err(e), Err(o)) => assert_eq!(e, o, "response {bytes:?}"),
            (view, owned) => panic!("response {bytes:?}: view {view:?}, owned {owned:?}"),
        }
    });
    // The generator must reach the accepting paths, not only the errors.
    assert!(
        accepted.0 >= 100 && accepted.1 >= 100,
        "accepted {accepted:?}"
    );
}
