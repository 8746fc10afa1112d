//! A small HTTP/1.0 implementation.
//!
//! Used by the DDoS-mimicry measurement (§3.1, Method #3) — repeated GETs
//! whose responses double as per-sample censorship measurements — and by
//! keyword-censorship tests (the GFC-style censor matches on request URLs
//! and payload keywords).

use std::sync::Arc;

use underradar_netsim::host::{Service, ServiceApi};

/// Errors from HTTP parsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpError {
    /// Request/status line missing or malformed.
    BadStartLine,
    /// A header line had no colon.
    BadHeader,
    /// The message is incomplete.
    Incomplete,
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::BadStartLine => write!(f, "malformed HTTP start line"),
            HttpError::BadHeader => write!(f, "malformed HTTP header"),
            HttpError::Incomplete => write!(f, "incomplete HTTP message"),
        }
    }
}

impl std::error::Error for HttpError {}

/// A parsed HTTP request: a view into the bytes it was parsed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpRequest<'a> {
    /// Method (GET, POST, ...).
    pub method: &'a [u8],
    /// Request path, e.g. `/news/article-7`.
    pub path: &'a [u8],
    /// The last Host header's value, trimmed (empty without one).
    pub host: &'a [u8],
}

impl<'a> HttpRequest<'a> {
    /// The wire bytes of a GET for `path` on `host`, with `headers` after
    /// the Host header, in order.
    pub fn render_get(host: &str, path: &str, headers: &[(&str, &str)]) -> Vec<u8> {
        let mut out = format!("GET {path} HTTP/1.0\r\nHost: {host}\r\n");
        for (name, value) in headers {
            out.push_str(&format!("{name}: {value}\r\n"));
        }
        out.push_str("\r\n");
        out.into_bytes()
    }

    /// Parse a complete request head from wire bytes, without copying.
    pub fn parse(data: &'a [u8]) -> Result<HttpRequest<'a>, HttpError> {
        let (head, _body) = split_head(data)?;
        let mut lines = lines(head);
        let mut words = words(lines.next().unwrap_or_default());
        let (Some(method), Some(path), Some(version)) = (words.next(), words.next(), words.next())
        else {
            return Err(HttpError::BadStartLine);
        };
        if !version.starts_with(b"HTTP/") {
            return Err(HttpError::BadStartLine);
        }
        let mut host: &[u8] = &[];
        for line in lines {
            let (name, value) = split_header(line)?;
            if name.eq_ignore_ascii_case(b"host") {
                host = trim(value);
            }
        }
        Ok(HttpRequest { method, path, host })
    }
}

/// A parsed HTTP response: a view into the bytes it was parsed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpResponse<'a> {
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: &'a [u8],
    /// Body bytes: everything after the blank line.
    pub body: &'a [u8],
}

impl<'a> HttpResponse<'a> {
    /// The wire bytes of a 200 OK with an HTML body.
    pub fn render_ok(body: &str) -> Vec<u8> {
        format!(
            "HTTP/1.0 200 OK\r\nContent-Type: text/html\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    /// Parse a complete response from wire bytes, without copying.
    pub fn parse(data: &'a [u8]) -> Result<HttpResponse<'a>, HttpError> {
        let (head, body) = split_head(data)?;
        let mut lines = lines(head);
        let start = lines.next().unwrap_or_default();
        let mut parts = start.splitn(3, |&b| b == b' ');
        let version = parts.next().unwrap_or_default();
        if !version.starts_with(b"HTTP/") {
            return Err(HttpError::BadStartLine);
        }
        let status: u16 = parts
            .next()
            .and_then(|s| std::str::from_utf8(s).ok()?.parse().ok())
            .ok_or(HttpError::BadStartLine)?;
        let reason = parts.next().unwrap_or_default();
        for line in lines {
            split_header(line)?;
        }
        Ok(HttpResponse {
            status,
            reason,
            body,
        })
    }
}

/// Split a message at its first blank line into the head and the body.
fn split_head(data: &[u8]) -> Result<(&[u8], &[u8]), HttpError> {
    let head_end = find(data, b"\r\n\r\n").ok_or(HttpError::Incomplete)?;
    Ok((&data[..head_end], &data[head_end + 4..]))
}

/// The head's CRLF-separated lines; the first is the start line.
fn lines(head: &[u8]) -> impl Iterator<Item = &[u8]> {
    let mut rest = Some(head);
    std::iter::from_fn(move || {
        let line = rest?;
        match find(line, b"\r\n") {
            Some(i) => {
                rest = Some(&line[i + 2..]);
                Some(&line[..i])
            }
            None => rest.take(),
        }
    })
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// A header line's name and value, split at the first colon.
fn split_header(line: &[u8]) -> Result<(&[u8], &[u8]), HttpError> {
    let colon = line
        .iter()
        .position(|&b| b == b':')
        .ok_or(HttpError::BadHeader)?;
    Ok((&line[..colon], &line[colon + 1..]))
}

/// `bytes` as characters: `(start, end, is whitespace)` for each, decoded
/// the way `String::from_utf8_lossy` decodes. Whitespace is Unicode's, as
/// `str::split_whitespace` and `str::trim` read it; a sequence that is not
/// UTF-8 (U+FFFD once decoded) is one character that is not whitespace.
fn chars(bytes: &[u8]) -> impl Iterator<Item = (usize, usize, bool)> + '_ {
    let mut at = 0;
    bytes.utf8_chunks().flat_map(move |chunk| {
        let base = at;
        let valid = chunk.valid();
        at += valid.len() + chunk.invalid().len();
        let invalid = (!chunk.invalid().is_empty()).then_some((base + valid.len(), at, false));
        valid
            .char_indices()
            .map(move |(i, c)| (base + i, base + i + c.len_utf8(), c.is_whitespace()))
            .chain(invalid)
    })
}

/// The whitespace-separated words of `line` (`str::split_whitespace` over
/// its lossy decoding, as byte slices of `line`).
fn words(line: &[u8]) -> impl Iterator<Item = &[u8]> {
    let mut chars = chars(line);
    std::iter::from_fn(move || {
        let (start, mut end, _) = chars.find(|&(_, _, ws)| !ws)?;
        for (_, e, ws) in chars.by_ref() {
            if ws {
                break;
            }
            end = e;
        }
        Some(&line[start..end])
    })
}

/// `bytes` without leading and trailing whitespace (`str::trim` over its
/// lossy decoding).
fn trim(bytes: &[u8]) -> &[u8] {
    let mut span: Option<(usize, usize)> = None;
    for (start, end, ws) in chars(bytes) {
        if !ws {
            span = Some((span.map_or(start, |(s, _)| s), end));
        }
    }
    span.map_or(&[], |(s, e)| &bytes[s..e])
}

/// A static-content HTTP server service answering every request with the
/// same response (one request per connection, HTTP/1.0 style: respond
/// then close).
pub struct HttpServer {
    response: Arc<[u8]>,
    buffer: Vec<u8>,
}

impl HttpServer {
    /// A server answering every request with `response`, the wire bytes of
    /// a complete response (see [`HttpResponse::render_ok`]), rendered once
    /// and shared by every connection.
    pub fn new(response: Arc<[u8]>) -> HttpServer {
        HttpServer {
            response,
            buffer: Vec::new(),
        }
    }
}

impl Service for HttpServer {
    fn on_data(&mut self, api: &mut ServiceApi<'_, '_>, data: &[u8]) {
        self.buffer.extend_from_slice(data);
        // HTTP/1.0 GETs: complete once the blank line arrives.
        if HttpRequest::parse(&self.buffer).is_err() {
            return;
        }
        self.buffer.clear();
        api.send(&self.response);
        api.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let wire = HttpRequest::render_get("bbc.com", "/news", &[("User-Agent", "probe/1.0")]);
        assert_eq!(
            wire,
            b"GET /news HTTP/1.0\r\nHost: bbc.com\r\nUser-Agent: probe/1.0\r\n\r\n"
        );
        let parsed = HttpRequest::parse(&wire).expect("parse");
        assert_eq!(parsed.method, b"GET");
        assert_eq!(parsed.path, b"/news");
        assert_eq!(parsed.host, b"bbc.com");
    }

    #[test]
    fn response_roundtrip() {
        let wire = HttpResponse::render_ok("<html>hello</html>");
        assert_eq!(
            wire,
            b"HTTP/1.0 200 OK\r\nContent-Type: text/html\r\nContent-Length: 18\r\n\r\n<html>hello</html>"
        );
        let parsed = HttpResponse::parse(&wire).expect("parse");
        assert_eq!(parsed.status, 200);
        assert_eq!(parsed.reason, b"OK");
        assert_eq!(parsed.body, b"<html>hello</html>");
    }

    #[test]
    fn body_follows_a_head_that_is_not_utf8() {
        // Lossy decoding lengthens such a head; the body is still found
        // at the blank line's offset in the bytes.
        let resp = HttpResponse::parse(b"HTTP/1.0 200 \xff\xff\xff\r\n\r\nab").expect("parse");
        assert_eq!((resp.reason, resp.body), (&b"\xff\xff\xff"[..], &b"ab"[..]));
    }

    #[test]
    fn incomplete_and_malformed_inputs() {
        assert_eq!(
            HttpRequest::parse(b"GET / HTTP/1.0\r\n"),
            Err(HttpError::Incomplete)
        );
        assert_eq!(
            HttpRequest::parse(b"NONSENSE\r\n\r\n"),
            Err(HttpError::BadStartLine)
        );
        assert_eq!(
            HttpRequest::parse(b"GET / HTTP/1.0\r\nBadHeader\r\n\r\n"),
            Err(HttpError::BadHeader)
        );
        assert_eq!(
            HttpResponse::parse(b"HTTP/1.0 abc OK\r\n\r\n"),
            Err(HttpError::BadStartLine)
        );
    }

    #[test]
    fn server_answers_every_path_over_sim() {
        use std::net::Ipv4Addr;
        use underradar_netsim::{
            ConnId, Host, HostApi, HostTask, LinkConfig, SimDuration, SimTime, Simulator, TcpEvent,
            HOST_IFACE,
        };

        struct Fetcher {
            server: Ipv4Addr,
            path: String,
            response: Vec<u8>,
            status: Option<u16>,
            body: Vec<u8>,
        }
        impl HostTask for Fetcher {
            fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
                api.tcp_connect(self.server, 80);
            }
            fn on_tcp(&mut self, api: &mut HostApi<'_, '_>, conn: ConnId, ev: TcpEvent) {
                match ev {
                    TcpEvent::Connected => {
                        let req = HttpRequest::render_get("news.example", &self.path, &[]);
                        api.tcp_send(conn, &req);
                    }
                    TcpEvent::Data(d) => {
                        self.response.extend_from_slice(&d);
                        if let Ok(resp) = HttpResponse::parse(&self.response) {
                            self.status = Some(resp.status);
                            self.body = resp.body.to_vec();
                        }
                    }
                    _ => {}
                }
            }
        }

        let client_ip = Ipv4Addr::new(10, 0, 1, 2);
        let server_ip = Ipv4Addr::new(10, 0, 2, 80);
        let mut sim = Simulator::new(13);
        let client = sim.add_node(Box::new(Host::new("client", client_ip)));
        let mut server = Host::new("web", server_ip);
        let page: Arc<[u8]> = HttpResponse::render_ok("<html>headlines</html>").into();
        server.add_tcp_listener(80, move || Box::new(HttpServer::new(page.clone())));
        let server = sim.add_node(Box::new(server));
        sim.wire(
            client,
            HOST_IFACE,
            server,
            HOST_IFACE,
            LinkConfig::default(),
        )
        .expect("wire");
        sim.node_mut::<Host>(client).expect("c").spawn_task_at(
            SimTime::ZERO,
            Box::new(Fetcher {
                server: server_ip,
                path: "/news".to_string(),
                response: Vec::new(),
                status: None,
                body: Vec::new(),
            }),
        );
        sim.node_mut::<Host>(client).expect("c").spawn_task_at(
            SimTime::from_nanos(1),
            Box::new(Fetcher {
                server: server_ip,
                path: "/missing".to_string(),
                response: Vec::new(),
                status: None,
                body: Vec::new(),
            }),
        );
        sim.run_for(SimDuration::from_secs(5)).expect("run");
        let host = sim.node_ref::<Host>(client).expect("c");
        for i in 0..2 {
            let fetcher = host.task_ref::<Fetcher>(i).expect("fetcher");
            assert_eq!(fetcher.status, Some(200));
            assert_eq!(fetcher.body, b"<html>headlines</html>");
        }
    }
}
