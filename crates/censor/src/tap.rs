//! The off-path (tap-attached) censor.
//!
//! This is the paper's reference censor (§3.2.1): a Snort-like observer on
//! a switch tap that *injects* packets rather than dropping them — RST
//! pairs for keyword hits (the Clayton et al. GFC behaviour) and forged
//! DNS answers for blocked names. Because it is off-path it cannot prevent
//! packets from flowing; it races the endpoints instead, which is exactly
//! the behaviour the measurement techniques detect.

use std::any::Any;
use std::sync::Arc;

use underradar_ids::dfa::{PrefilterDfa, DFA_START};
use underradar_ids::stream::{Direction, FlowId, ReassemblyConfig, StreamReassembler};
use underradar_netsim::node::{IfaceId, Node, NodeCtx};
use underradar_netsim::packet::Packet;
use underradar_netsim::telemetry::{TraceRecord, Tracer};
use underradar_netsim::wire::tcp::TcpFlags;

use crate::dns::DnsInjector;
use crate::policy::{CensorAction, CensorActionKind, CensorPolicy};

/// Case-insensitive substring test (shared with policy matching).
pub fn contains_nocase(haystack: &[u8], needle: &[u8]) -> bool {
    underradar_ids::rule::find_sub(haystack, needle, true, 0).is_some()
}

/// Counters for the tap censor.
#[derive(Debug, Clone, Copy, Default)]
pub struct TapCensorStats {
    /// Packets observed from the tap.
    pub observed: u64,
    /// RST pairs injected.
    pub rst_injections: u64,
    /// DNS forgeries injected.
    pub dns_injections: u64,
}

/// Dense per-flow censor state, indexed by the reassembler's
/// [`FlowId::index`]. Meaningful only while `live` with a matching
/// generation; a recycled arena slot is reset in place on first touch.
#[derive(Debug)]
struct TapFlowState {
    gen: u32,
    live: bool,
    /// Persistent matcher cursor per direction.
    c2s: u32,
    s2c: u32,
    /// Keyword indexes already RST on this flow — one strike per flow.
    fired: Vec<usize>,
}

impl Default for TapFlowState {
    fn default() -> TapFlowState {
        TapFlowState {
            gen: 0,
            live: false,
            c2s: DFA_START,
            s2c: DFA_START,
            fired: Vec::new(),
        }
    }
}

/// A censor policy compiled for the tap censor: the policy plus one dense
/// DFA over all its keywords (case-insensitive — the DFA's case folding
/// is exact here), whose pattern ids index `policy.keywords`.
///
/// Immutable and `Send + Sync`: compile it once per policy and share it
/// by [`Arc`] across every tap censor enforcing that policy
/// ([`TapCensor::from_compiled`]); each censor keeps only its own flow
/// state, actions and counters.
#[derive(Debug)]
pub struct CompiledPolicy {
    policy: CensorPolicy,
    keywords: PrefilterDfa,
}

impl CompiledPolicy {
    /// Compile `policy`'s keyword matcher.
    pub fn new(policy: CensorPolicy) -> CompiledPolicy {
        let keywords = PrefilterDfa::new(&policy.keywords);
        CompiledPolicy { policy, keywords }
    }
}

/// An off-path censor node. Attach its interface 0 to a switch tap port.
pub struct TapCensor {
    name: String,
    /// The shared policy and keyword DFA, matched incrementally against
    /// each flow direction.
    compiled: Arc<CompiledPolicy>,
    reassembler: StreamReassembler,
    injector: DnsInjector,
    /// Per-flow cursors and strike lists, dense by [`FlowId::index`].
    flow_states: Vec<TapFlowState>,
    /// Slots currently live (telemetry / leak introspection).
    live_states: usize,
    actions: Vec<CensorAction>,
    stats: TapCensorStats,
    tracer: Tracer,
}

impl TapCensor {
    /// Build from a policy with default reassembly limits.
    pub fn new(name: &str, policy: CensorPolicy) -> TapCensor {
        Self::with_reassembly(name, policy, ReassemblyConfig::default())
    }

    /// Build from a policy with explicit reassembly limits (flow-table
    /// capacity and per-direction buffering caps) — the monitor-resource
    /// knobs population-scale experiments sweep.
    pub fn with_reassembly(name: &str, policy: CensorPolicy, cfg: ReassemblyConfig) -> TapCensor {
        Self::from_compiled(name, Arc::new(CompiledPolicy::new(policy)), cfg)
    }

    /// Build over an already compiled, shared policy with explicit
    /// reassembly limits: builds only the per-censor state.
    pub fn from_compiled(
        name: &str,
        compiled: Arc<CompiledPolicy>,
        cfg: ReassemblyConfig,
    ) -> TapCensor {
        let injector = DnsInjector::new(&compiled.policy);
        let mut reassembler = StreamReassembler::with_config(cfg);
        reassembler.track_removals(true);
        TapCensor {
            name: name.to_string(),
            compiled,
            reassembler,
            injector,
            flow_states: Vec::new(),
            live_states: 0,
            actions: Vec::new(),
            stats: TapCensorStats::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// The state slot for `id`, creating or recycling it in place.
    fn ensure_state(&mut self, id: FlowId) -> &mut TapFlowState {
        let idx = id.index();
        if idx >= self.flow_states.len() {
            self.flow_states.resize_with(idx + 1, TapFlowState::default);
        }
        let st = &mut self.flow_states[idx];
        if !st.live || st.gen != id.generation() {
            if !st.live {
                self.live_states += 1;
            }
            st.gen = id.generation();
            st.live = true;
            st.c2s = DFA_START;
            st.s2c = DFA_START;
            st.fired.clear();
        }
        st
    }

    /// Attach a flight-recorder trace. The censor records one decision per
    /// injected action (stage `censor`), and its private reassembler records
    /// its own stream decisions, so a trace shows *why* the censor saw (or
    /// missed) a keyword.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.reassembler.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Disable RST-teardown in the censor's own reassembler (ablation: a
    /// censor that keeps tracking flows after RSTs).
    pub fn set_rst_teardown(&mut self, on: bool) {
        self.reassembler.rst_teardown = on;
    }

    /// Logged censorship actions (ground truth for experiments).
    pub fn actions(&self) -> &[CensorAction] {
        &self.actions
    }

    /// Counters.
    pub fn stats(&self) -> TapCensorStats {
        self.stats
    }

    /// The policy in force.
    pub fn policy(&self) -> &CensorPolicy {
        &self.compiled.policy
    }

    /// Mirror tap-censor totals into `tel` under `censor.tap.*`: packet
    /// and injection counters, live flow-tracking state, per-mechanism
    /// action counts, and one structured event per logged action. Call
    /// once, at the end of a run (the events append).
    pub fn export_telemetry(&self, tel: &underradar_telemetry::Telemetry) {
        if !tel.is_enabled() {
            return;
        }
        tel.set_counter("censor.tap.observed", self.stats.observed);
        tel.set_counter("censor.tap.rst_injections", self.stats.rst_injections);
        tel.set_counter("censor.tap.dns_injections", self.stats.dns_injections);
        tel.set_gauge(
            "censor.tap.live_flows",
            self.reassembler.flow_count() as i64,
        );
        tel.set_gauge("censor.tap.cursors", self.live_states as i64);
        tel.set_counter("censor.tap.flows.evicted", self.reassembler.stats().evicted);
        crate::policy::export_actions(tel, "censor.tap", &self.actions);
    }

    fn keyword_hit(&mut self, ctx: &mut NodeCtx<'_>, iface: IfaceId, pkt: &Packet) {
        let Some(seg) = pkt.as_tcp() else { return };
        let Some(flow_ctx) = self.reassembler.process(pkt) else {
            return;
        };
        // Drop matcher state in lockstep with reassembler teardowns — this
        // is exactly the forgetting the paper's RST mimicry (§4.1) induces.
        for (_key, id) in self.reassembler.take_removed() {
            if let Some(st) = self.flow_states.get_mut(id.index()) {
                if st.live && st.gen == id.generation() {
                    st.live = false;
                    st.fired.clear();
                    self.live_states -= 1;
                }
            }
        }
        if !flow_ctx.appended {
            return;
        }
        let id = flow_ctx.id.expect("appended bytes imply a live flow");
        self.ensure_state(id);
        // Feed only the newly reassembled tail to this direction's
        // persistent cursor: keywords straddling segment boundaries still
        // complete, without rescanning the buffered stream per segment.
        // The tail — not the raw segment — is what the hold-back queue
        // actually appended (it may splice in held out-of-order segments
        // or drop an overlap-trimmed prefix).
        let view = self.reassembler.stream_of_id(id, flow_ctx.direction);
        let tail = &view[view.len() - flow_ctx.new_bytes.min(view.len())..];
        let st = &mut self.flow_states[id.index()];
        let cursor = match flow_ctx.direction {
            Direction::ToServer => &mut st.c2s,
            Direction::ToClient => &mut st.s2c,
        };
        let mut hits: Vec<usize> = Vec::new();
        self.compiled.keywords.feed(cursor, tail, |idx, _end| {
            if !hits.contains(&idx) {
                hits.push(idx);
            }
        });
        for idx in hits {
            let kw = &self.compiled.policy.keywords[idx];
            if st.fired.contains(&idx) {
                continue;
            }
            st.fired.push(idx);
            // Inject the GFC RST pair: one at each endpoint, sequenced off
            // the observed segment so both stacks accept them.
            let next_client_seq = seg.seq.wrapping_add(seg.payload.len() as u32);
            let rst_to_server = Packet::tcp(
                pkt.src,
                pkt.dst,
                seg.src_port,
                seg.dst_port,
                next_client_seq,
                seg.ack,
                TcpFlags::rst_ack(),
                Vec::new(),
            );
            let rst_to_client = Packet::tcp(
                pkt.dst,
                pkt.src,
                seg.dst_port,
                seg.src_port,
                seg.ack,
                next_client_seq,
                TcpFlags::rst_ack(),
                Vec::new(),
            );
            ctx.send(iface, rst_to_server);
            ctx.send(iface, rst_to_client);
            self.stats.rst_injections += 1;
            if self.tracer.is_live() {
                self.tracer.record(TraceRecord {
                    t_ns: ctx.now().as_nanos(),
                    seq: 0,
                    stage: "censor",
                    kind: "rst_pair",
                    flow: Some(pkt.trace_flow()),
                    fields: vec![("keyword", kw.clone().into())],
                });
            }
            self.actions.push(CensorAction {
                time: ctx.now(),
                kind: CensorActionKind::KeywordRst {
                    keyword: kw.clone(),
                },
                client: pkt.src,
            });
        }
    }
}

impl Node for TapCensor {
    fn name(&self) -> &str {
        &self.name
    }

    // Inspection draws no randomness, so same-instant deliveries can be
    // coalesced into one dispatch.
    fn wants_batch(&self) -> bool {
        true
    }

    fn receive(&mut self, ctx: &mut NodeCtx<'_>, iface: IfaceId, packet: Packet) {
        self.stats.observed += 1;
        if self.tracer.is_live() {
            self.reassembler.set_now(ctx.now().as_nanos());
        }

        // DNS injection.
        if let Some((forged, qname, qtype)) = self.injector.inspect(&self.compiled.policy, &packet)
        {
            ctx.send(iface, forged);
            self.stats.dns_injections += 1;
            if self.tracer.is_live() {
                self.tracer.record(TraceRecord {
                    t_ns: ctx.now().as_nanos(),
                    seq: 0,
                    stage: "censor",
                    kind: "dns_injection",
                    flow: Some(packet.trace_flow()),
                    fields: vec![
                        ("name", qname.to_string().into()),
                        ("qtype", u64::from(qtype.number()).into()),
                    ],
                });
            }
            self.actions.push(CensorAction {
                time: ctx.now(),
                kind: CensorActionKind::DnsInjection {
                    name: qname,
                    qtype: qtype.number(),
                },
                client: packet.src,
            });
        }

        // Keyword RST injection (TCP only).
        if packet.as_tcp().is_some() {
            self.keyword_hit(ctx, iface, &packet);
        }
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
    use underradar_netsim::host::Host;
    use underradar_netsim::link::LinkConfig;
    use underradar_netsim::switch::Switch;
    use underradar_netsim::time::{SimDuration, SimTime};
    use underradar_netsim::topology::TopologyBuilder;
    use underradar_netsim::{ConnId, HostApi, HostTask, NodeId, Simulator, TcpEvent};
    use underradar_protocols::dns::{DnsMessage, DnsName, QType};
    use underradar_protocols::http::HttpServer;

    const CLIENT: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 2);
    const SERVER: Ipv4Addr = Ipv4Addr::new(10, 0, 2, 80);

    /// Figure-1 testbed: client -- switch -- server, censor on a tap.
    fn testbed(policy: CensorPolicy) -> (Simulator, NodeId, NodeId, NodeId) {
        let mut topo = TopologyBuilder::new(21);
        let client = topo.add_host(Host::new("client", CLIENT));
        let mut server_host = Host::new("server", SERVER);
        server_host.add_tcp_listener(80, || Box::new(HttpServer::catch_all("<html>page</html>")));
        let server = topo.add_host(server_host);
        let censor = topo.add_node(Box::new(TapCensor::new("censor", policy)));
        let sw = topo.add_switch(Switch::new("ovs"));
        topo.attach_host(client, CLIENT, sw, LinkConfig::default())
            .expect("client");
        topo.attach_host(server, SERVER, sw, LinkConfig::default())
            .expect("server");
        // The tap link is faster than the host links so injected packets
        // win the race, as in the real GFC deployment.
        topo.attach_tap(censor, sw, LinkConfig::ideal())
            .expect("tap");
        (topo.finish(), client, server, censor)
    }

    /// Client that sends an HTTP request containing a given path.
    struct HttpProbe {
        server: Ipv4Addr,
        path: String,
        got_reset: bool,
        response: Vec<u8>,
        conn: Option<ConnId>,
    }

    impl HttpProbe {
        fn new(server: Ipv4Addr, path: &str) -> Self {
            HttpProbe {
                server,
                path: path.to_string(),
                got_reset: false,
                response: Vec::new(),
                conn: None,
            }
        }
    }

    impl HostTask for HttpProbe {
        fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
            self.conn = Some(api.tcp_connect(self.server, 80));
        }
        fn on_tcp(&mut self, api: &mut HostApi<'_, '_>, conn: ConnId, ev: TcpEvent) {
            match ev {
                TcpEvent::Connected => {
                    let req = format!("GET {} HTTP/1.0\r\nHost: site\r\n\r\n", self.path);
                    api.tcp_send(conn, req.as_bytes());
                }
                TcpEvent::Data(d) => self.response.extend_from_slice(&d),
                TcpEvent::Reset => self.got_reset = true,
                _ => {}
            }
        }
    }

    #[test]
    fn keyword_request_gets_rst_both_ways() {
        let policy = CensorPolicy::new().block_keyword("falun");
        let (mut sim, client, server, censor) = testbed(policy);
        sim.node_mut::<Host>(client).expect("client").spawn_task_at(
            SimTime::ZERO,
            Box::new(HttpProbe::new(SERVER, "/falun-news")),
        );
        sim.run_for(SimDuration::from_secs(10)).expect("run");
        let probe = sim
            .node_ref::<Host>(client)
            .expect("c")
            .task_ref::<HttpProbe>(0)
            .expect("t");
        assert!(probe.got_reset, "client connection reset by injected RST");
        let censor_node = sim.node_ref::<TapCensor>(censor).expect("censor");
        assert_eq!(censor_node.stats().rst_injections, 1);
        assert!(matches!(
            censor_node.actions()[0].kind,
            CensorActionKind::KeywordRst { .. }
        ));
        let _ = server;
    }

    #[test]
    fn innocuous_request_passes_untouched() {
        let policy = CensorPolicy::new().block_keyword("falun");
        let (mut sim, client, _server, censor) = testbed(policy);
        sim.node_mut::<Host>(client)
            .expect("client")
            .spawn_task_at(SimTime::ZERO, Box::new(HttpProbe::new(SERVER, "/weather")));
        sim.run_for(SimDuration::from_secs(10)).expect("run");
        let probe = sim
            .node_ref::<Host>(client)
            .expect("c")
            .task_ref::<HttpProbe>(0)
            .expect("t");
        assert!(!probe.got_reset);
        assert!(
            String::from_utf8_lossy(&probe.response).contains("200 OK"),
            "got: {}",
            String::from_utf8_lossy(&probe.response)
        );
        assert_eq!(
            sim.node_ref::<TapCensor>(censor)
                .expect("c")
                .stats()
                .rst_injections,
            0
        );
    }

    #[test]
    fn keyword_split_across_segments_still_caught() {
        // Force segmentation by sending the request in two writes.
        struct SplitProbe {
            server: Ipv4Addr,
            got_reset: bool,
        }
        impl HostTask for SplitProbe {
            fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
                api.tcp_connect(self.server, 80);
            }
            fn on_tcp(&mut self, api: &mut HostApi<'_, '_>, conn: ConnId, ev: TcpEvent) {
                match ev {
                    TcpEvent::Connected => {
                        api.tcp_send(conn, b"GET /fal");
                        api.tcp_send(conn, b"un HTTP/1.0\r\nHost: s\r\n\r\n");
                    }
                    TcpEvent::Reset => self.got_reset = true,
                    _ => {}
                }
            }
        }
        let policy = CensorPolicy::new().block_keyword("falun");
        let (mut sim, client, _server, censor) = testbed(policy);
        sim.node_mut::<Host>(client).expect("client").spawn_task_at(
            SimTime::ZERO,
            Box::new(SplitProbe {
                server: SERVER,
                got_reset: false,
            }),
        );
        sim.run_for(SimDuration::from_secs(10)).expect("run");
        assert!(
            sim.node_ref::<Host>(client)
                .expect("c")
                .task_ref::<SplitProbe>(0)
                .expect("t")
                .got_reset,
            "reassembly caught the split keyword"
        );
        assert_eq!(
            sim.node_ref::<TapCensor>(censor)
                .expect("c")
                .stats()
                .rst_injections,
            1
        );
    }

    #[test]
    fn dns_query_for_blocked_name_poisoned() {
        struct DnsProbe {
            resolver: Ipv4Addr,
            qtype: QType,
            answers: Vec<Ipv4Addr>,
            responses: u32,
        }
        impl HostTask for DnsProbe {
            fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
                let port = api.udp_bind(0).expect("bind");
                let q = DnsMessage::query(7, DnsName::parse("twitter.com").expect("n"), self.qtype);
                api.udp_send(port, self.resolver, 53, q.encode());
            }
            fn on_udp(
                &mut self,
                _api: &mut HostApi<'_, '_>,
                _l: u16,
                _s: Ipv4Addr,
                _sp: u16,
                payload: &[u8],
            ) {
                if let Ok(resp) = DnsMessage::decode(payload) {
                    // First response wins (resolver behaviour).
                    if self.responses == 0 {
                        self.answers = resp.a_records();
                    }
                    self.responses += 1;
                }
            }
        }
        let policy = CensorPolicy::new().block_domain(&DnsName::parse("twitter.com").expect("n"));
        let poison = policy.dns_poison_ip;
        let (mut sim, client, _server, censor) = testbed(policy);
        for (at, qtype) in [(0u64, QType::A), (1, QType::Mx)] {
            sim.node_mut::<Host>(client).expect("c").spawn_task_at(
                SimTime::ZERO + SimDuration::from_secs(at),
                Box::new(DnsProbe {
                    resolver: SERVER,
                    qtype,
                    answers: vec![],
                    responses: 0,
                }),
            );
        }
        sim.run_for(SimDuration::from_secs(10)).expect("run");
        let host = sim.node_ref::<Host>(client).expect("c");
        let a_probe = host.task_ref::<DnsProbe>(0).expect("t0");
        let mx_probe = host.task_ref::<DnsProbe>(1).expect("t1");
        assert_eq!(a_probe.answers, vec![poison], "A query poisoned");
        assert_eq!(
            mx_probe.answers,
            vec![poison],
            "MX query answered with bad A — the tell"
        );
        assert_eq!(
            sim.node_ref::<TapCensor>(censor)
                .expect("c")
                .stats()
                .dns_injections,
            2
        );
    }

    #[test]
    fn one_rst_per_flow_not_per_segment() {
        struct RepeatProbe {
            server: Ipv4Addr,
            resets: u32,
        }
        impl HostTask for RepeatProbe {
            fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
                api.tcp_connect(self.server, 80);
            }
            fn on_tcp(&mut self, api: &mut HostApi<'_, '_>, conn: ConnId, ev: TcpEvent) {
                match ev {
                    TcpEvent::Connected => {
                        api.tcp_send(conn, b"falun one");
                        api.tcp_send(conn, b"falun two");
                        api.tcp_send(conn, b"falun three");
                    }
                    TcpEvent::Reset => self.resets += 1,
                    _ => {}
                }
            }
        }
        let policy = CensorPolicy::new().block_keyword("falun");
        let (mut sim, client, _server, censor) = testbed(policy);
        sim.node_mut::<Host>(client).expect("c").spawn_task_at(
            SimTime::ZERO,
            Box::new(RepeatProbe {
                server: SERVER,
                resets: 0,
            }),
        );
        sim.run_for(SimDuration::from_secs(10)).expect("run");
        let stats = sim.node_ref::<TapCensor>(censor).expect("c").stats();
        assert_eq!(stats.rst_injections, 1, "deduped per flow");
    }

    #[test]
    fn blocked_ip_is_not_dropped_by_offpath_censor() {
        // Off-path censors cannot blackhole; that needs the inline censor.
        let policy = CensorPolicy::new().block_ip(Cidr::host(SERVER));
        let (mut sim, client, _server, _censor) = testbed(policy);
        sim.node_mut::<Host>(client)
            .expect("c")
            .spawn_task_at(SimTime::ZERO, Box::new(HttpProbe::new(SERVER, "/x")));
        sim.run_for(SimDuration::from_secs(10)).expect("run");
        let probe = sim
            .node_ref::<Host>(client)
            .expect("c")
            .task_ref::<HttpProbe>(0)
            .expect("t");
        assert!(
            !probe.response.is_empty(),
            "off-path censor cannot drop packets"
        );
    }
}
