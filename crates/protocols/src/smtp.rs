//! A minimal SMTP implementation (RFC 5321 subset).
//!
//! Supplies both halves the spam method (§3.1, Method #2) needs: an SMTP
//! server [`Service`] to run on simulated mail exchangers, and a client
//! state machine a measurement task drives over its TCP connection.
//!
//! The dialogue covered: `220` greeting, `HELO`, `MAIL FROM`, `RCPT TO`,
//! `DATA`/`354`, message terminated by `<CRLF>.<CRLF>`, `QUIT`/`221`.

use underradar_netsim::host::{Service, ServiceApi};

use crate::email::EmailMessage;

/// Server-side SMTP session states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ServerState {
    Greeted,
    Helo,
    Mail,
    Rcpt,
    Data,
    Done,
}

/// An SMTP server service: accepts one mail transaction per connection and
/// stores received messages for inspection.
///
/// Received messages are kept in the service instance; since the host keeps
/// the instance alive until the connection closes, experiments usually use
/// [`SmtpServerService::with_sink`] to collect messages into a shared log.
pub struct SmtpServerService {
    state: ServerState,
    buffer: String,
    data: String,
    sender: String,
    recipient: String,
    /// Messages received over this connection.
    pub received: Vec<EmailMessage>,
    sink: Option<std::rc::Rc<std::cell::RefCell<Vec<EmailMessage>>>>,
}

impl SmtpServerService {
    /// New session handler with no shared sink.
    pub fn new() -> SmtpServerService {
        SmtpServerService {
            state: ServerState::Greeted,
            buffer: String::new(),
            data: String::new(),
            sender: String::new(),
            recipient: String::new(),
            received: Vec::new(),
            sink: None,
        }
    }

    /// New session handler that appends completed messages to `sink`.
    pub fn with_sink(
        sink: std::rc::Rc<std::cell::RefCell<Vec<EmailMessage>>>,
    ) -> SmtpServerService {
        let mut s = SmtpServerService::new();
        s.sink = Some(sink);
        s
    }

    fn handle_line(&mut self, api: &mut ServiceApi<'_, '_>, line: &str) {
        if self.state == ServerState::Data {
            if line == "." {
                if let Some(msg) = EmailMessage::from_wire(&self.data) {
                    if let Some(sink) = &self.sink {
                        sink.borrow_mut().push(msg.clone());
                    }
                    self.received.push(msg);
                    api.send(b"250 OK: queued\r\n");
                } else {
                    api.send(b"554 Transaction failed: unparseable message\r\n");
                }
                self.data.clear();
                self.state = ServerState::Helo;
            } else {
                // Reverse dot-stuffing happens in EmailMessage parsing; keep
                // the raw line (including the stuffed dot) here.
                self.data.push_str(line);
                self.data.push_str("\r\n");
            }
            return;
        }

        let upper = line.to_ascii_uppercase();
        if upper.starts_with("HELO") || upper.starts_with("EHLO") {
            self.state = ServerState::Helo;
            api.send(b"250 mx.sim Hello\r\n");
        } else if upper.starts_with("MAIL FROM:") {
            if self.state == ServerState::Helo {
                self.sender = line[10..].trim().trim_matches(['<', '>']).to_string();
                self.state = ServerState::Mail;
                api.send(b"250 OK\r\n");
            } else {
                api.send(b"503 Bad sequence of commands\r\n");
            }
        } else if upper.starts_with("RCPT TO:") {
            if self.state == ServerState::Mail || self.state == ServerState::Rcpt {
                self.recipient = line[8..].trim().trim_matches(['<', '>']).to_string();
                self.state = ServerState::Rcpt;
                api.send(b"250 OK\r\n");
            } else {
                api.send(b"503 Bad sequence of commands\r\n");
            }
        } else if upper.starts_with("DATA") {
            if self.state == ServerState::Rcpt {
                self.state = ServerState::Data;
                api.send(b"354 End data with <CR><LF>.<CR><LF>\r\n");
            } else {
                api.send(b"503 Bad sequence of commands\r\n");
            }
        } else if upper.starts_with("QUIT") {
            self.state = ServerState::Done;
            api.send(b"221 Bye\r\n");
            api.close();
        } else if upper.starts_with("RSET") {
            self.state = ServerState::Helo;
            self.data.clear();
            api.send(b"250 OK\r\n");
        } else {
            api.send(b"502 Command not implemented\r\n");
        }
    }
}

impl Default for SmtpServerService {
    fn default() -> Self {
        Self::new()
    }
}

impl Service for SmtpServerService {
    fn on_connected(&mut self, api: &mut ServiceApi<'_, '_>) {
        api.send(b"220 mx.sim ESMTP ready\r\n");
    }

    fn on_data(&mut self, api: &mut ServiceApi<'_, '_>, data: &[u8]) {
        self.buffer.push_str(&String::from_utf8_lossy(data));
        while let Some(idx) = self.buffer.find("\r\n") {
            let line: String = self.buffer[..idx].to_string();
            self.buffer.drain(..idx + 2);
            self.handle_line(api, &line);
        }
    }

    fn on_peer_closed(&mut self, api: &mut ServiceApi<'_, '_>) {
        api.close();
    }
}

/// Phases of the client-side SMTP dialogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmtpPhase {
    /// Waiting for the 220 greeting.
    AwaitGreeting,
    /// Sent HELO, waiting for 250.
    AwaitHelo,
    /// Sent MAIL FROM, waiting for 250.
    AwaitMail,
    /// Sent RCPT TO, waiting for 250.
    AwaitRcpt,
    /// Sent DATA, waiting for 354.
    AwaitDataGo,
    /// Sent message, waiting for 250.
    AwaitAccept,
    /// Sent QUIT, waiting for 221.
    AwaitQuit,
    /// Transaction finished successfully.
    Done,
    /// Server rejected a step.
    Failed,
}

/// Client-side SMTP state machine.
///
/// Feed it server bytes with [`SmtpClientMachine::on_data`]; it returns the
/// next bytes to send. The owning task moves data over its TCP connection.
#[derive(Debug)]
pub struct SmtpClientMachine {
    phase: SmtpPhase,
    message: EmailMessage,
    helo_name: String,
    buffer: String,
    /// The last status code received from the server.
    pub last_code: Option<u16>,
}

impl SmtpClientMachine {
    /// Prepare to deliver `message`, announcing `helo_name`.
    pub fn new(helo_name: &str, message: EmailMessage) -> SmtpClientMachine {
        SmtpClientMachine {
            phase: SmtpPhase::AwaitGreeting,
            message,
            helo_name: helo_name.to_string(),
            buffer: String::new(),
            last_code: None,
        }
    }

    /// Current phase.
    pub fn phase(&self) -> SmtpPhase {
        self.phase
    }

    /// Whether the transaction completed (message accepted and QUIT acked).
    pub fn is_done(&self) -> bool {
        self.phase == SmtpPhase::Done
    }

    /// Consume server bytes; returns client bytes to transmit (possibly
    /// empty).
    pub fn on_data(&mut self, data: &[u8]) -> Vec<u8> {
        self.buffer.push_str(&String::from_utf8_lossy(data));
        let mut out = Vec::new();
        while let Some(idx) = self.buffer.find("\r\n") {
            let line: String = self.buffer[..idx].to_string();
            self.buffer.drain(..idx + 2);
            out.extend_from_slice(&self.on_line(&line));
        }
        out
    }

    fn on_line(&mut self, line: &str) -> Vec<u8> {
        let code: u16 = line.get(..3).and_then(|c| c.parse().ok()).unwrap_or(0);
        self.last_code = Some(code);
        let ok = (200..400).contains(&code);
        match self.phase {
            SmtpPhase::AwaitGreeting if ok => {
                self.phase = SmtpPhase::AwaitHelo;
                format!("HELO {}\r\n", self.helo_name).into_bytes()
            }
            SmtpPhase::AwaitHelo if ok => {
                self.phase = SmtpPhase::AwaitMail;
                format!("MAIL FROM:<{}>\r\n", self.message.from).into_bytes()
            }
            SmtpPhase::AwaitMail if ok => {
                self.phase = SmtpPhase::AwaitRcpt;
                format!("RCPT TO:<{}>\r\n", self.message.to).into_bytes()
            }
            SmtpPhase::AwaitRcpt if ok => {
                self.phase = SmtpPhase::AwaitDataGo;
                b"DATA\r\n".to_vec()
            }
            SmtpPhase::AwaitDataGo if ok => {
                self.phase = SmtpPhase::AwaitAccept;
                let mut payload = self.message.to_wire().into_bytes();
                payload.extend_from_slice(b".\r\n");
                payload
            }
            SmtpPhase::AwaitAccept if ok => {
                self.phase = SmtpPhase::AwaitQuit;
                b"QUIT\r\n".to_vec()
            }
            SmtpPhase::AwaitQuit if ok => {
                self.phase = SmtpPhase::Done;
                Vec::new()
            }
            SmtpPhase::Done | SmtpPhase::Failed => Vec::new(),
            _ => {
                self.phase = SmtpPhase::Failed;
                b"QUIT\r\n".to_vec()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::net::Ipv4Addr;
    use std::rc::Rc;
    use underradar_netsim::{
        ConnId, Host, HostApi, HostTask, LinkConfig, SimDuration, SimTime, Simulator, TcpEvent,
        HOST_IFACE,
    };

    fn spam() -> EmailMessage {
        EmailMessage::new(
            "winner@prizes.example",
            "user@twitter.com",
            "You WON",
            "Claim at http://prizes.example/claim",
        )
    }

    /// Drive client machine against server service over a real simulated
    /// TCP connection.
    struct SmtpClientTask {
        server: Ipv4Addr,
        machine: SmtpClientMachine,
        conn: Option<ConnId>,
    }

    impl HostTask for SmtpClientTask {
        fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
            self.conn = Some(api.tcp_connect(self.server, 25));
        }
        fn on_tcp(&mut self, api: &mut HostApi<'_, '_>, conn: ConnId, event: TcpEvent) {
            if let TcpEvent::Data(d) = event {
                let reply = self.machine.on_data(&d);
                if !reply.is_empty() {
                    api.tcp_send(conn, &reply);
                }
                if self.machine.is_done() {
                    api.tcp_close(conn);
                }
            }
        }
    }

    #[test]
    fn full_transaction_over_simulated_tcp() {
        let client_ip = Ipv4Addr::new(10, 0, 1, 2);
        let server_ip = Ipv4Addr::new(10, 0, 2, 25);
        let inbox: Rc<RefCell<Vec<EmailMessage>>> = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(8);
        let client = sim.add_node(Box::new(Host::new("client", client_ip)));
        let mut server = Host::new("mx", server_ip);
        let sink = inbox.clone();
        server.add_tcp_listener(25, move || {
            Box::new(SmtpServerService::with_sink(sink.clone()))
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
            Box::new(SmtpClientTask {
                server: server_ip,
                machine: SmtpClientMachine::new("client.sim", spam()),
                conn: None,
            }),
        );
        sim.run_for(SimDuration::from_secs(10)).expect("run");
        let delivered = inbox.borrow();
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].subject, "You WON");
        assert_eq!(delivered[0].to, "user@twitter.com");
        let task = sim
            .node_ref::<Host>(client)
            .expect("c")
            .task_ref::<SmtpClientTask>(0)
            .expect("t");
        assert!(task.machine.is_done());
    }

    #[test]
    fn client_machine_happy_path_scripted() {
        let mut m = SmtpClientMachine::new("probe.sim", spam());
        let helo = m.on_data(b"220 mx.sim ESMTP ready\r\n");
        assert_eq!(helo, b"HELO probe.sim\r\n");
        let mail = m.on_data(b"250 mx.sim Hello\r\n");
        assert!(mail.starts_with(b"MAIL FROM:<winner@prizes.example>"));
        let rcpt = m.on_data(b"250 OK\r\n");
        assert!(rcpt.starts_with(b"RCPT TO:<user@twitter.com>"));
        let data = m.on_data(b"250 OK\r\n");
        assert_eq!(data, b"DATA\r\n");
        let body = m.on_data(b"354 go\r\n");
        assert!(body.ends_with(b"\r\n.\r\n"));
        let quit = m.on_data(b"250 OK: queued\r\n");
        assert_eq!(quit, b"QUIT\r\n");
        assert!(!m.is_done());
        let end = m.on_data(b"221 Bye\r\n");
        assert!(end.is_empty());
        assert!(m.is_done());
        assert_eq!(m.last_code, Some(221));
    }

    #[test]
    fn rejection_fails_the_machine() {
        let mut m = SmtpClientMachine::new("probe.sim", spam());
        let _ = m.on_data(b"220 ready\r\n");
        let _ = m.on_data(b"250 hello\r\n");
        let out = m.on_data(b"550 blocked sender\r\n");
        assert_eq!(out, b"QUIT\r\n");
        assert_eq!(m.phase(), SmtpPhase::Failed);
    }

    #[test]
    fn split_lines_across_packets_reassembled() {
        let mut m = SmtpClientMachine::new("probe.sim", spam());
        assert!(m.on_data(b"22").is_empty());
        assert!(m.on_data(b"0 ready\r").is_empty());
        let helo = m.on_data(b"\n");
        assert_eq!(helo, b"HELO probe.sim\r\n");
    }

    #[test]
    fn server_enforces_command_order() {
        // Scripted through the service trait using a fake connection is
        // heavyweight; instead check ordering logic through the sim in
        // `full_transaction_over_simulated_tcp` and unit-test the state
        // transitions here via a minimal harness below.
        // Out-of-order DATA before RCPT: replies 503 but session survives.
        let client_ip = Ipv4Addr::new(10, 0, 1, 2);
        let server_ip = Ipv4Addr::new(10, 0, 2, 25);
        struct BadClient {
            server: Ipv4Addr,
            responses: Vec<String>,
        }
        impl HostTask for BadClient {
            fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
                api.tcp_connect(self.server, 25);
            }
            fn on_tcp(&mut self, api: &mut HostApi<'_, '_>, conn: ConnId, ev: TcpEvent) {
                if let TcpEvent::Data(d) = ev {
                    let text = String::from_utf8_lossy(&d).to_string();
                    let first = self.responses.is_empty();
                    self.responses.push(text);
                    if first {
                        api.tcp_send(conn, b"DATA\r\n"); // skipped HELO/MAIL/RCPT
                    }
                }
            }
        }
        let mut sim = Simulator::new(9);
        let client = sim.add_node(Box::new(Host::new("client", client_ip)));
        let mut server = Host::new("mx", server_ip);
        server.add_tcp_listener(25, || Box::new(SmtpServerService::new()));
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
            Box::new(BadClient {
                server: server_ip,
                responses: vec![],
            }),
        );
        sim.run_for(SimDuration::from_secs(5)).expect("run");
        let task = sim
            .node_ref::<Host>(client)
            .expect("c")
            .task_ref::<BadClient>(0)
            .expect("t");
        assert!(
            task.responses.iter().any(|r| r.starts_with("503")),
            "{:?}",
            task.responses
        );
    }
}
