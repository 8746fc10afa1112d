//! The in-path (inline) censor.
//!
//! Some blocking mechanisms cannot be done off-path: blackholing IPs and
//! ports, and reliably killing HTTP requests for blocked URLs. The inline
//! censor is a two-interface bump-in-the-wire: traffic entering interface 0
//! leaves interface 1 and vice versa, unless the policy says drop.
//!
//! For URL/keyword blocks it behaves like commercial filters: drop the
//! offending request *and* inject a RST back at the client so the browser
//! fails fast (rather than hanging until timeout).

use std::any::Any;

use underradar_ids::stream::{ReassemblyConfig, StreamReassembler};
use underradar_netsim::node::{IfaceId, Node, NodeCtx};
use underradar_netsim::packet::Packet;
use underradar_netsim::telemetry::{TraceRecord, Tracer};
use underradar_netsim::wire::tcp::TcpFlags;

use crate::policy::{CensorAction, CensorActionKind, CensorPolicy};

/// Counters for the inline censor.
#[derive(Debug, Clone, Copy, Default)]
pub struct InlineCensorStats {
    /// Packets forwarded.
    pub forwarded: u64,
    /// Packets dropped by IP blackholing.
    pub ip_drops: u64,
    /// Packets dropped by port blackholing.
    pub port_drops: u64,
    /// Requests killed by URL filtering.
    pub url_blocks: u64,
}

/// A two-port inline censor. Wire interface 0 toward the clients and
/// interface 1 toward the wider network.
pub struct InlineCensor {
    name: String,
    policy: CensorPolicy,
    /// The flows; a flow holds its (unit) consumer state once a URL on it
    /// was blocked, until the reassembler forgets the flow.
    reassembler: StreamReassembler,
    actions: Vec<CensorAction>,
    stats: InlineCensorStats,
    tracer: Tracer,
}

impl InlineCensor {
    /// Build from a policy with default reassembly limits.
    pub fn new(name: &str, policy: CensorPolicy) -> InlineCensor {
        Self::with_reassembly(name, policy, ReassemblyConfig::default())
    }

    /// Build from a policy with explicit reassembly limits (flow-table
    /// capacity and per-direction buffering caps).
    pub fn with_reassembly(
        name: &str,
        policy: CensorPolicy,
        cfg: ReassemblyConfig,
    ) -> InlineCensor {
        InlineCensor {
            name: name.to_string(),
            policy,
            reassembler: StreamReassembler::with_config(cfg),
            actions: Vec::new(),
            stats: InlineCensorStats::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Attach a flight-recorder trace. Records one decision per drop or
    /// block (stage `censor`); the private reassembler records its own
    /// stream decisions.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.reassembler.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Logged actions (ground truth for experiments).
    pub fn actions(&self) -> &[CensorAction] {
        &self.actions
    }

    /// Counters.
    pub fn stats(&self) -> InlineCensorStats {
        self.stats
    }

    /// Mirror inline-censor totals into `tel` under `censor.inline.*`:
    /// forward/drop counters, per-mechanism action counts, and one
    /// structured event per logged action. Call once, at the end of a run
    /// (the events append).
    pub fn export_telemetry(&self, tel: &underradar_telemetry::Telemetry) {
        if !tel.is_enabled() {
            return;
        }
        tel.set_counter("censor.inline.forwarded", self.stats.forwarded);
        tel.set_counter("censor.inline.ip_drops", self.stats.ip_drops);
        tel.set_counter("censor.inline.port_drops", self.stats.port_drops);
        tel.set_counter("censor.inline.url_blocks", self.stats.url_blocks);
        tel.set_gauge(
            "censor.inline.live_flows",
            self.reassembler.flow_count() as i64,
        );
        tel.set_counter(
            "censor.inline.flows.evicted",
            self.reassembler.stats().evicted,
        );
        crate::policy::export_actions(tel, "censor.inline", "censor.inline.action", &self.actions);
    }

    fn other(iface: IfaceId) -> IfaceId {
        IfaceId(1 - iface.0.min(1))
    }
}

impl Node for InlineCensor {
    fn name(&self) -> &str {
        &self.name
    }

    /// Forget every flow, action, count and the tracer; the policy stays.
    fn reset(&mut self) {
        self.reassembler.reset();
        self.actions.clear();
        self.stats = InlineCensorStats::default();
        self.tracer = Tracer::disabled();
    }

    fn receive(&mut self, ctx: &mut NodeCtx<'_>, iface: IfaceId, packet: Packet) {
        if self.tracer.is_live() {
            self.reassembler.set_now(ctx.now().as_nanos());
        }
        // IP blackhole.
        if self.policy.is_ip_blocked(packet.dst) {
            self.stats.ip_drops += 1;
            if self.tracer.is_live() {
                self.tracer.record(TraceRecord {
                    t_ns: ctx.now().as_nanos(),
                    seq: 0,
                    stage: "censor",
                    kind: "ip_drop",
                    flow: Some(packet.trace_flow()),
                    fields: vec![("dst", packet.dst.to_string().into())],
                });
            }
            self.actions.push(CensorAction {
                time: ctx.now(),
                kind: CensorActionKind::IpDrop { dst: packet.dst },
                client: packet.src,
            });
            return;
        }
        // Port blackhole.
        if let Some(port) = packet.dst_port() {
            if self.policy.is_port_blocked(packet.dst, port) {
                self.stats.port_drops += 1;
                if self.tracer.is_live() {
                    self.tracer.record(TraceRecord {
                        t_ns: ctx.now().as_nanos(),
                        seq: 0,
                        stage: "censor",
                        kind: "port_drop",
                        flow: Some(packet.trace_flow()),
                        fields: vec![("port", u64::from(port).into())],
                    });
                }
                self.actions.push(CensorAction {
                    time: ctx.now(),
                    kind: CensorActionKind::PortDrop {
                        dst: packet.dst,
                        port,
                    },
                    client: packet.src,
                });
                return;
            }
        }
        // URL filtering over the reassembled request stream. The URL list
        // is small and anchored scans are cheap, so the window is rescanned
        // on append (unlike keyword matching, which is incremental).
        if let Some(seg) = packet.as_tcp() {
            if let Some(flow_ctx) = self.reassembler.process(&packet) {
                let id = flow_ctx.id.filter(|_| flow_ctx.appended);
                if let Some(id) = id.filter(|&id| self.reassembler.state(id).is_none()) {
                    let stream = self.reassembler.stream_of_id(id, flow_ctx.direction);
                    if let Some(frag) = self.policy.matching_url(stream) {
                        // Mark the flow: one block per flow.
                        self.reassembler.state_mut(id);
                        self.stats.url_blocks += 1;
                        if self.tracer.is_live() {
                            self.tracer.record(TraceRecord {
                                t_ns: ctx.now().as_nanos(),
                                seq: 0,
                                stage: "censor",
                                kind: "url_block",
                                flow: Some(packet.trace_flow()),
                                fields: vec![("url", frag.to_string().into())],
                            });
                        }
                        self.actions.push(CensorAction {
                            time: ctx.now(),
                            kind: CensorActionKind::UrlBlock {
                                url_fragment: frag.to_string(),
                                dst: packet.dst,
                            },
                            client: packet.src,
                        });
                        // Kill the client's connection; drop the request.
                        let rst = Packet::tcp(
                            packet.dst,
                            packet.src,
                            seg.dst_port,
                            seg.src_port,
                            seg.ack,
                            seg.seq.wrapping_add(seg.payload.len() as u32),
                            TcpFlags::rst_ack(),
                            Vec::new(),
                        );
                        ctx.send(iface, rst);
                        return;
                    }
                }
            }
        }
        self.stats.forwarded += 1;
        ctx.send(Self::other(iface), packet);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use underradar_netsim::addr::Cidr;
    use underradar_netsim::host::{Host, HOST_IFACE};
    use underradar_netsim::link::LinkConfig;
    use underradar_netsim::time::{SimDuration, SimTime};
    use underradar_netsim::{ConnId, HostApi, HostTask, NodeId, Simulator, TcpEvent};
    use underradar_protocols::http::{HttpResponse, HttpServer};

    const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 2);
    const SERVER: Ipv4Addr = Ipv4Addr::new(10, 0, 2, 80);

    /// client -- inline censor -- server.
    fn testbed(policy: CensorPolicy) -> (Simulator, NodeId, NodeId, NodeId) {
        let mut sim = Simulator::new(31);
        let client = sim.add_node(Box::new(Host::new("client", CLIENT)));
        let mut server_host = Host::new("server", SERVER);
        for (port, body) in [(80, "<html>ok</html>"), (443, "<html>tls</html>")] {
            let page: std::sync::Arc<[u8]> = HttpResponse::render_ok(body).into();
            server_host.add_tcp_listener(port, move || Box::new(HttpServer::new(page.clone())));
        }
        let server = sim.add_node(Box::new(server_host));
        let censor = sim.add_node(Box::new(InlineCensor::new("censor", policy)));
        sim.wire(
            client,
            HOST_IFACE,
            censor,
            IfaceId(0),
            LinkConfig::default(),
        )
        .expect("wire c");
        sim.wire(
            server,
            HOST_IFACE,
            censor,
            IfaceId(1),
            LinkConfig::default(),
        )
        .expect("wire s");
        (sim, client, server, censor)
    }

    struct Probe {
        server: Ipv4Addr,
        port: u16,
        path: String,
        response: Vec<u8>,
        got_reset: bool,
        timed_out: bool,
    }

    impl Probe {
        fn new(server: Ipv4Addr, port: u16, path: &str) -> Probe {
            Probe {
                server,
                port,
                path: path.to_string(),
                response: Vec::new(),
                got_reset: false,
                timed_out: false,
            }
        }
    }

    impl HostTask for Probe {
        fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
            api.tcp_connect(self.server, self.port);
        }
        fn on_tcp(&mut self, api: &mut HostApi<'_, '_>, conn: ConnId, ev: TcpEvent) {
            match ev {
                TcpEvent::Connected => {
                    let req = format!("GET {} HTTP/1.0\r\nHost: s\r\n\r\n", self.path);
                    api.tcp_send(conn, req.as_bytes());
                }
                TcpEvent::Data(d) => self.response.extend_from_slice(&d),
                TcpEvent::Reset => self.got_reset = true,
                TcpEvent::TimedOut => self.timed_out = true,
                _ => {}
            }
        }
    }

    fn run_probe(policy: CensorPolicy, port: u16, path: &str) -> (Probe, InlineCensorStats) {
        let (mut sim, client, _server, censor) = testbed(policy);
        sim.node_mut::<Host>(client)
            .expect("c")
            .spawn_task_at(SimTime::ZERO, Box::new(Probe::new(SERVER, port, path)));
        sim.run_for(SimDuration::from_secs(20)).expect("run");
        let host = sim.node_ref::<Host>(client).expect("c");
        let p = host.task_ref::<Probe>(0).expect("t");
        let stats = sim
            .node_ref::<InlineCensor>(censor)
            .expect("censor")
            .stats();
        (
            Probe {
                server: p.server,
                port: p.port,
                path: p.path.clone(),
                response: p.response.clone(),
                got_reset: p.got_reset,
                timed_out: p.timed_out,
            },
            stats,
        )
    }

    #[test]
    fn clean_traffic_passes() {
        let (probe, stats) = run_probe(CensorPolicy::new(), 80, "/fine");
        assert!(String::from_utf8_lossy(&probe.response).contains("200 OK"));
        assert!(stats.forwarded > 0);
        assert_eq!(stats.ip_drops + stats.port_drops + stats.url_blocks, 0);
    }

    #[test]
    fn blackholed_ip_causes_syn_timeout() {
        let policy = CensorPolicy::new().block_ip(Cidr::host(SERVER));
        let (probe, stats) = run_probe(policy, 80, "/x");
        assert!(probe.timed_out, "SYNs die in the blackhole");
        assert!(probe.response.is_empty());
        assert!(stats.ip_drops >= 1, "every retransmitted SYN dropped");
    }

    #[test]
    fn blocked_port_dropped_but_other_ports_pass() {
        let any = Cidr::new(Ipv4Addr::new(0, 0, 0, 0), 0);
        let policy = CensorPolicy::new().block_port(any, 443);
        let (probe443, stats) = run_probe(policy.clone(), 443, "/x");
        assert!(probe443.timed_out);
        assert!(stats.port_drops >= 1);
        let (probe80, _) = run_probe(policy, 80, "/x");
        assert!(String::from_utf8_lossy(&probe80.response).contains("200 OK"));
    }

    #[test]
    fn blocked_url_reset_and_never_reaches_server() {
        let policy = CensorPolicy::new().block_url("/banned");
        let (mut sim, client, server, censor) = testbed(policy);
        sim.node_mut::<Host>(client).expect("c").spawn_task_at(
            SimTime::ZERO,
            Box::new(Probe::new(SERVER, 80, "/banned-page")),
        );
        sim.run_for(SimDuration::from_secs(20)).expect("run");
        let probe = sim
            .node_ref::<Host>(client)
            .expect("c")
            .task_ref::<Probe>(0)
            .expect("t");
        assert!(probe.got_reset, "client reset");
        assert!(probe.response.is_empty(), "no content returned");
        let stats = sim
            .node_ref::<InlineCensor>(censor)
            .expect("censor")
            .stats();
        assert_eq!(stats.url_blocks, 1);
        // The server host never served the request.
        let _ = server;
        let allowed = run_probe(CensorPolicy::new().block_url("/banned"), 80, "/allowed");
        assert!(String::from_utf8_lossy(&allowed.0.response).contains("200 OK"));
    }

    #[test]
    fn actions_record_ground_truth() {
        let policy = CensorPolicy::new().block_ip(Cidr::host(SERVER));
        let (mut sim, client, _server, censor) = testbed(policy);
        sim.node_mut::<Host>(client)
            .expect("c")
            .spawn_task_at(SimTime::ZERO, Box::new(Probe::new(SERVER, 80, "/x")));
        sim.run_for(SimDuration::from_secs(5)).expect("run");
        let actions = sim
            .node_ref::<InlineCensor>(censor)
            .expect("c")
            .actions()
            .to_vec();
        assert!(!actions.is_empty());
        assert!(actions.iter().all(|a| a.client == CLIENT));
        assert!(matches!(actions[0].kind, CensorActionKind::IpDrop { dst } if dst == SERVER));
    }
}
