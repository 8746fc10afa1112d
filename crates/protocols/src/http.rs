//! A small HTTP/1.0 implementation.
//!
//! Used by the DDoS-mimicry measurement (§3.1, Method #3) — repeated GETs
//! whose responses double as per-sample censorship measurements — and by
//! keyword-censorship tests (the GFC-style censor matches on request URLs
//! and payload keywords).

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

/// An HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Method (GET, POST, ...).
    pub method: String,
    /// Request path, e.g. `/news/article-7`.
    pub path: String,
    /// Host header value.
    pub host: String,
    /// Other headers, in order.
    pub headers: Vec<(String, String)>,
    /// Body (empty for GET).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// Build a GET request.
    pub fn get(host: &str, path: &str) -> HttpRequest {
        HttpRequest {
            method: "GET".to_string(),
            path: path.to_string(),
            host: host.to_string(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    /// Add a header (builder style).
    pub fn with_header(mut self, name: &str, value: &str) -> HttpRequest {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Serialize to wire bytes.
    pub fn to_wire(&self) -> Vec<u8> {
        let mut out = format!(
            "{} {} HTTP/1.0\r\nHost: {}\r\n",
            self.method, self.path, self.host
        );
        for (name, value) in &self.headers {
            out.push_str(&format!("{name}: {value}\r\n"));
        }
        if !self.body.is_empty() {
            out.push_str(&format!("Content-Length: {}\r\n", self.body.len()));
        }
        out.push_str("\r\n");
        let mut bytes = out.into_bytes();
        bytes.extend_from_slice(&self.body);
        bytes
    }

    /// Parse a complete request from wire bytes.
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
        let mut headers = Vec::new();
        for line in lines {
            let (name, value) = line.split_once(':').ok_or(HttpError::BadHeader)?;
            let value = value.trim().to_string();
            if name.eq_ignore_ascii_case("host") {
                host = value;
            } else if !name.eq_ignore_ascii_case("content-length") {
                headers.push((name.to_string(), value));
            }
        }
        let body = data[head_end + 4..].to_vec();
        Ok(HttpRequest {
            method,
            path,
            host,
            headers,
            body,
        })
    }
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: String,
    /// Headers.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// A 200 OK with an HTML body.
    pub fn ok(body: &str) -> HttpResponse {
        HttpResponse {
            status: 200,
            reason: "OK".to_string(),
            headers: vec![("Content-Type".to_string(), "text/html".to_string())],
            body: body.as_bytes().to_vec(),
        }
    }

    /// Serialize to wire bytes.
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

    /// Parse a complete response from wire bytes.
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
        Ok(HttpResponse {
            status,
            reason,
            headers,
            body: data[head_end + 4..].to_vec(),
        })
    }
}

/// A static-content HTTP server service answering every path with the
/// same body (one request per connection, HTTP/1.0 style: respond then
/// close).
pub struct HttpServer {
    body: String,
    buffer: Vec<u8>,
}

impl HttpServer {
    /// A server answering every path with `body`.
    pub fn catch_all(body: &str) -> HttpServer {
        HttpServer {
            body: body.to_string(),
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
        api.send(&HttpResponse::ok(&self.body).to_wire());
        api.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let req = HttpRequest::get("bbc.com", "/news").with_header("User-Agent", "probe/1.0");
        let parsed = HttpRequest::parse(&req.to_wire()).expect("parse");
        assert_eq!(parsed.method, "GET");
        assert_eq!(parsed.path, "/news");
        assert_eq!(parsed.host, "bbc.com");
        assert_eq!(
            parsed.headers,
            vec![("User-Agent".to_string(), "probe/1.0".to_string())]
        );
    }

    #[test]
    fn response_roundtrip() {
        let resp = HttpResponse::ok("<html>hello</html>");
        let parsed = HttpResponse::parse(&resp.to_wire()).expect("parse");
        assert_eq!(parsed.status, 200);
        assert_eq!(parsed.reason, "OK");
        assert_eq!(parsed.body, b"<html>hello</html>");
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
    fn catch_all_server_answers_every_path_over_sim() {
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
                        let req = HttpRequest::get("news.example", &self.path);
                        api.tcp_send(conn, &req.to_wire());
                    }
                    TcpEvent::Data(d) => {
                        self.response.extend_from_slice(&d);
                        if let Ok(resp) = HttpResponse::parse(&self.response) {
                            self.status = Some(resp.status);
                            self.body = resp.body;
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
        server.add_tcp_listener(80, || {
            Box::new(HttpServer::catch_all("<html>headlines</html>"))
        });
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
