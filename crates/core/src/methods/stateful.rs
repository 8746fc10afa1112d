//! Stateful mimicry with TTL-limited replies (§4.1, Figure 3b).
//!
//! For stateful protocols, cover traffic is only possible toward servers
//! the measurer controls. The client spoofs a whole TCP conversation from
//! a neighbor address Y:
//!
//! 1. `<SRC=Y, SYN>` — spoofed by the measurement client;
//! 2. `<DST=Y, SYN/ACK>` — the controlled server replies toward Y with a
//!    **TTL-limited** packet that "dies in the network" after passing the
//!    surveillance system but before reaching Y;
//! 3. `<SRC=Y, ACK>` — the client, knowing the server's agreed ISN, ACKs
//!    blindly; data (carrying the measured keyword) follows the same way.
//!
//! The TTL limit solves the *replay problem*: if the SYN/ACK reached the
//! real Y, Y's kernel would answer RST, killing the server's connection
//! state and making the censor's reassembler stop looking at the flow.
//!
//! Censorship is read from the server side (which the measurer controls):
//! an injected RST arriving at the server after the keyword segment means
//! the flow was censored; clean delivery means reachable.

use std::net::Ipv4Addr;
use std::sync::Arc;

use underradar_censor::{CensorPolicy, CompiledPolicy};
use underradar_ids::engine::CompiledRuleset;
use underradar_ids::rule::Rule;
use underradar_netsim::host::{Host, HostApi, HostTask, RawVerdict};
use underradar_netsim::node::NodeId;
use underradar_netsim::packet::Packet;
use underradar_netsim::time::{SimDuration, SimTime};
use underradar_netsim::wire::tcp::TcpFlags;

use crate::monitors::MonitorSet;
use crate::probe::{Evidence, Probe};
use crate::testbed::{wire_chain, TestbedConfig, TestbedTemplate};
use crate::verdict::{Mechanism, Verdict};

/// Gap between spoofed conversation steps.
const STEP_GAP: SimDuration = SimDuration::from_millis(50);

/// Events the measurer-controlled server records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerEvent {
    /// A SYN arrived from (addr, port).
    Syn(Ipv4Addr, u16),
    /// The blind ACK completed the spoofed handshake.
    Established,
    /// Payload bytes arrived.
    Data(Vec<u8>),
    /// A RST arrived (either injected by a censor, or the replay problem:
    /// the spoofed client answered a reply it should never have seen).
    Rst,
}

/// The measurer-controlled endpoint (runs on a host outside the censored
/// network, e.g. "hosted on AWS" per §4.1).
pub struct MimicServer {
    /// Port the server answers on.
    pub port: u16,
    /// Pre-agreed initial sequence number (lets the client ACK blindly).
    pub agreed_iss: u32,
    /// TTL stamped on replies; `None` sends normal TTL (the replay-problem
    /// configuration).
    pub reply_ttl: Option<u8>,
    /// Everything observed, in order.
    pub events: Vec<ServerEvent>,
    /// Reassembled payload received from the spoofed flow.
    pub received: Vec<u8>,
    rst_seen: bool,
    expected_seq: Option<u32>,
}

impl MimicServer {
    /// A server on `port` with the agreed ISN.
    pub fn new(port: u16, agreed_iss: u32, reply_ttl: Option<u8>) -> MimicServer {
        MimicServer {
            port,
            agreed_iss,
            reply_ttl,
            events: Vec::new(),
            received: Vec::new(),
            rst_seen: false,
            expected_seq: None,
        }
    }

    /// Whether the flow was reset.
    pub fn was_reset(&self) -> bool {
        self.rst_seen
    }

    /// Whether any SYN arrived at all.
    pub fn saw_syn(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e, ServerEvent::Syn(..)))
    }

    fn reply(
        &self,
        api: &mut HostApi<'_, '_>,
        dst: Ipv4Addr,
        dst_port: u16,
        seq: u32,
        ack: u32,
        flags: TcpFlags,
    ) {
        let mut pkt = Packet::tcp(api.ip(), dst, self.port, dst_port, seq, ack, flags, vec![]);
        if let Some(ttl) = self.reply_ttl {
            pkt = pkt.with_ttl(ttl);
        }
        api.raw_send(pkt);
    }
}

impl Probe for MimicServer {
    fn label(&self) -> &'static str {
        "stateful"
    }

    /// The server half is where the stateful verdict is read; it is
    /// "finished" whenever its observations are conclusive (even a silent
    /// run concludes blackhole — no SYN arrived at all).
    fn is_finished(&self) -> bool {
        !matches!(self.verdict(), Verdict::Inconclusive(_))
    }

    /// The measurement verdict, read from the server's point of view.
    fn verdict(&self) -> Verdict {
        if !self.saw_syn() {
            return Verdict::Censored(Mechanism::Blackhole);
        }
        if self.rst_seen {
            return Verdict::Censored(Mechanism::RstInjection);
        }
        if !self.received.is_empty() {
            return Verdict::Reachable;
        }
        Verdict::Inconclusive("handshake only; no data arrived".to_string())
    }

    fn evidence(&self) -> Evidence {
        vec![
            ("saw_syn", self.saw_syn().to_string()),
            ("was_reset", self.was_reset().to_string()),
            ("received_bytes", self.received.len().to_string()),
            ("events", self.events.len().to_string()),
            (
                "reply_ttl",
                self.reply_ttl.map_or("-".to_string(), |t| t.to_string()),
            ),
        ]
    }
}

impl HostTask for MimicServer {
    fn on_start(&mut self, _api: &mut HostApi<'_, '_>) {}

    fn on_raw(&mut self, api: &mut HostApi<'_, '_>, packet: &Packet) -> RawVerdict {
        if packet.dst != api.ip() {
            return RawVerdict::Continue;
        }
        let Some(seg) = packet.as_tcp() else {
            return RawVerdict::Continue;
        };
        if seg.dst_port != self.port {
            return RawVerdict::Continue;
        }
        if seg.flags.has_rst() {
            self.rst_seen = true;
            self.events.push(ServerEvent::Rst);
            return RawVerdict::Consume;
        }
        if seg.flags.has_syn() && !seg.flags.has_ack() {
            self.events.push(ServerEvent::Syn(packet.src, seg.src_port));
            self.expected_seq = Some(seg.seq.wrapping_add(1));
            self.reply(
                api,
                packet.src,
                seg.src_port,
                self.agreed_iss,
                seg.seq.wrapping_add(1),
                TcpFlags::syn_ack(),
            );
            return RawVerdict::Consume;
        }
        if seg.flags.has_ack() && seg.payload.is_empty() {
            if seg.ack == self.agreed_iss.wrapping_add(1)
                && !self.events.contains(&ServerEvent::Established)
            {
                self.events.push(ServerEvent::Established);
            }
            return RawVerdict::Consume;
        }
        if !seg.payload.is_empty() {
            if Some(seg.seq) == self.expected_seq {
                self.expected_seq = Some(seg.seq.wrapping_add(seg.payload.len() as u32));
                self.received.extend_from_slice(&seg.payload);
            }
            self.events.push(ServerEvent::Data(seg.payload.clone()));
            self.reply(
                api,
                packet.src,
                seg.src_port,
                self.agreed_iss.wrapping_add(1),
                seg.seq.wrapping_add(seg.payload.len() as u32),
                TcpFlags::ack(),
            );
            return RawVerdict::Consume;
        }
        RawVerdict::Consume
    }
}

/// The client half: blindly drives the spoofed conversation.
pub struct StatefulMimicry {
    /// The address the conversation is spoofed from (a same-AS neighbor).
    pub spoof_src: Ipv4Addr,
    /// Source port used in the spoofed flow.
    pub spoof_sport: u16,
    /// The controlled server.
    pub server: Ipv4Addr,
    /// The server's port.
    pub server_port: u16,
    /// Pre-agreed server ISN.
    pub agreed_iss: u32,
    /// Our own ISN.
    pub client_iss: u32,
    /// The payload whose censorship is being measured.
    pub payload: Vec<u8>,
    /// Split the payload into two segments (exercises the censor's
    /// reassembler).
    pub split_payload: bool,
    step: u32,
}

impl StatefulMimicry {
    /// Build the client half.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        spoof_src: Ipv4Addr,
        server: Ipv4Addr,
        server_port: u16,
        agreed_iss: u32,
        payload: &[u8],
    ) -> StatefulMimicry {
        StatefulMimicry {
            spoof_src,
            spoof_sport: 42777,
            server,
            server_port,
            agreed_iss,
            client_iss: 0x1357_9bdf,
            payload: payload.to_vec(),
            split_payload: false,
            step: 0,
        }
    }

    /// Split the payload across two segments (builder style).
    pub fn with_split_payload(mut self) -> StatefulMimicry {
        self.split_payload = true;
        self
    }

    fn spoofed(&self, seq: u32, ack: u32, flags: TcpFlags, payload: Vec<u8>) -> Packet {
        Packet::tcp(
            self.spoof_src,
            self.server,
            self.spoof_sport,
            self.server_port,
            seq,
            ack,
            flags,
            payload,
        )
    }
}

impl Probe for StatefulMimicry {
    fn label(&self) -> &'static str {
        "stateful"
    }

    /// Whether every spoofed conversation step has been sent.
    fn is_finished(&self) -> bool {
        self.step >= if self.split_payload { 3 } else { 2 }
    }

    /// The client half drives the conversation blind — replies go to the
    /// spoofed neighbor, never here. The verdict is always read from the
    /// [`MimicServer`] half.
    fn verdict(&self) -> Verdict {
        Verdict::Inconclusive("blind spoofed client; read the MimicServer verdict".to_string())
    }

    fn evidence(&self) -> Evidence {
        vec![
            ("steps_sent", self.step.to_string()),
            ("payload_bytes", self.payload.len().to_string()),
            ("split_payload", self.split_payload.to_string()),
        ]
    }
}

impl HostTask for StatefulMimicry {
    fn on_start(&mut self, api: &mut HostApi<'_, '_>) {
        api.raw_send(self.spoofed(self.client_iss, 0, TcpFlags::syn(), vec![]));
        api.set_timer(STEP_GAP, 1);
    }

    fn on_timer(&mut self, api: &mut HostApi<'_, '_>, _token: u64) {
        self.step += 1;
        let data_seq = self.client_iss.wrapping_add(1);
        let srv_ack = self.agreed_iss.wrapping_add(1);
        match self.step {
            1 => {
                // Blind ACK completes the spoofed handshake.
                api.raw_send(self.spoofed(data_seq, srv_ack, TcpFlags::ack(), vec![]));
                api.set_timer(STEP_GAP, 2);
            }
            2 => {
                if self.split_payload && self.payload.len() >= 2 {
                    let mid = self.payload.len() / 2;
                    let first = self.payload[..mid].to_vec();
                    api.raw_send(self.spoofed(data_seq, srv_ack, TcpFlags::psh_ack(), first));
                    api.set_timer(STEP_GAP, 3);
                } else {
                    api.raw_send(self.spoofed(
                        data_seq,
                        srv_ack,
                        TcpFlags::psh_ack(),
                        self.payload.clone(),
                    ));
                }
            }
            3 => {
                let mid = self.payload.len() / 2;
                let rest = self.payload[mid..].to_vec();
                let seq = data_seq.wrapping_add(mid as u32);
                api.raw_send(self.spoofed(seq, srv_ack, TcpFlags::psh_ack(), rest));
            }
            _ => {}
        }
    }
}

/// A routed topology for the TTL sweep (Fig 3b / experiment E7):
///
/// ```text
/// client, Y (cover) - sw1 - R1 - R2(censor+mvr taps) - R3 - sw2 - mserver
/// ```
///
/// Replies from `mserver` toward Y cross three TTL-decrementing routers;
/// a reply TTL of exactly 3 passes the taps at R2 and dies at R1.
pub struct RoutedMimicryNet {
    /// The simulator.
    pub sim: underradar_netsim::Simulator,
    /// The measurement client node.
    pub client: NodeId,
    /// The spoofed neighbor node.
    pub cover: NodeId,
    /// The off-path censor (tapped at R2).
    pub censor: NodeId,
    /// The surveillance system (tapped at R2).
    pub surveillance: NodeId,
    /// The controlled server node.
    pub mserver: NodeId,
    /// Client address.
    pub client_ip: Ipv4Addr,
    /// Neighbor address used as spoof source.
    pub cover_ip: Ipv4Addr,
    /// Server address.
    pub mserver_ip: Ipv4Addr,
}

impl RoutedMimicryNet {
    /// Number of router hops a server reply must survive to reach the
    /// taps at R2 (inclusive).
    pub const HOPS_TO_TAP: u8 = 2;
    /// Number of router hops from the server to the cover client.
    pub const HOPS_TO_COVER: u8 = 3;

    /// Build the routed network, deriving the surveillance ruleset from
    /// the policy. One-shot path; campaigns build many through one
    /// [`TestbedTemplate::instantiate_routed`] per policy column.
    pub fn build(seed: u64, policy: CensorPolicy) -> RoutedMimicryNet {
        TestbedTemplate::prepare(TestbedConfig {
            policy,
            ..TestbedConfig::default()
        })
        .instantiate_routed(seed)
    }

    /// Build the routed network with a pre-parsed surveillance ruleset,
    /// compiling the monitors for this one network.
    pub fn build_with_rules(seed: u64, policy: CensorPolicy, rules: Vec<Rule>) -> RoutedMimicryNet {
        wire_chain(
            seed,
            &TestbedConfig::default(),
            &Arc::new(CompiledPolicy::new(policy)),
            &Arc::new(CompiledRuleset::new(rules)),
        )
    }

    /// Start `task` at time zero on `host`, one of the net's hosts
    /// ([`underradar_netsim::Simulator::spawn_task`]: works before and
    /// between runs), and return its task index.
    pub fn spawn(&mut self, host: NodeId, task: Box<dyn HostTask>) -> usize {
        self.sim
            .spawn_task(host, SimTime::ZERO, task)
            .expect("node is a host")
    }

    /// A typed view of an mserver task after the run.
    pub fn mserver_task<T: HostTask>(&self, idx: usize) -> Option<&T> {
        self.sim.node_ref::<Host>(self.mserver)?.task_ref::<T>(idx)
    }

    /// The world's monitors: the tap censor and surveillance at R2 (the
    /// routed net has no inline censor).
    pub fn monitors(&self) -> MonitorSet {
        MonitorSet {
            tap: self.censor,
            inline: None,
            surveillance: self.surveillance,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use underradar_censor::CensorPolicy;
    use underradar_netsim::host::Host;

    const PORT: u16 = 7443;
    const ISS: u32 = 0xaa55_aa55;

    fn run(
        policy: CensorPolicy,
        reply_ttl: Option<u8>,
        payload: &[u8],
        split: bool,
    ) -> RoutedMimicryNet {
        let mut net = RoutedMimicryNet::build(3, policy);
        net.sim.enable_capture();
        let server = MimicServer::new(PORT, ISS, reply_ttl);
        net.spawn(net.mserver, Box::new(server));
        let mut client = StatefulMimicry::new(net.cover_ip, net.mserver_ip, PORT, ISS, payload);
        if split {
            client = client.with_split_payload();
        }
        net.spawn(net.client, Box::new(client));
        net.run_secs(10);
        net
    }

    fn server_of(net: &RoutedMimicryNet) -> &MimicServer {
        net.mserver_task::<MimicServer>(0).expect("server task")
    }

    #[test]
    fn ttl_limited_flow_completes_without_replay() {
        let net = run(
            CensorPolicy::new(),
            Some(RoutedMimicryNet::HOPS_TO_COVER), // dies after the taps, before Y
            b"GET /innocuous HTTP/1.0\r\n\r\n",
            false,
        );
        let server = server_of(&net);
        assert!(server.saw_syn());
        assert!(
            !server.was_reset(),
            "Y never saw the SYN/ACK, so no RST: {:?}",
            server.events
        );
        assert_eq!(server.received, b"GET /innocuous HTTP/1.0\r\n\r\n");
        assert_eq!(server.verdict(), Verdict::Reachable);
        // And the cover host truly received nothing.
        let cover = net.sim.node_ref::<Host>(net.cover).expect("cover");
        assert_eq!(cover.counters().tcp_in, 0);
        assert_eq!(cover.counters().rst_sent, 0);
    }

    #[test]
    fn unlimited_ttl_triggers_the_replay_problem() {
        let net = run(CensorPolicy::new(), None, b"GET /x HTTP/1.0\r\n\r\n", false);
        let server = server_of(&net);
        assert!(
            server.was_reset(),
            "Y's kernel RST killed the flow: {:?}",
            server.events
        );
        let cover = net.sim.node_ref::<Host>(net.cover).expect("cover");
        assert!(
            cover.counters().rst_sent >= 1,
            "the neighbor answered the stray SYN/ACK"
        );
    }

    #[test]
    fn keyword_censorship_detected_from_server_side() {
        let policy = CensorPolicy::new().block_keyword("falun");
        let net = run(
            policy,
            Some(RoutedMimicryNet::HOPS_TO_COVER),
            b"GET /falun HTTP/1.0\r\n\r\n",
            false,
        );
        let server = server_of(&net);
        assert!(
            server.was_reset(),
            "censor injected RST at the flow: {:?}",
            server.events
        );
        assert_eq!(server.verdict(), Verdict::Censored(Mechanism::RstInjection));
        let actions = net.censor_actions();
        assert_eq!(actions.len(), 1);
        // Ground truth: the censor attributes the action to the *spoofed*
        // neighbor, not the measurement client.
        assert_eq!(actions[0].client, net.cover_ip);
    }

    #[test]
    fn split_keyword_still_censored_thanks_to_reassembly() {
        let policy = CensorPolicy::new().block_keyword("falun");
        let net = run(
            policy,
            Some(RoutedMimicryNet::HOPS_TO_COVER),
            b"GET /falun HTTP/1.0\r\n\r\n",
            true,
        );
        let server = server_of(&net);
        assert!(server.was_reset(), "{:?}", server.events);
    }

    #[test]
    fn uncensored_keyword_flow_reads_reachable() {
        let policy = CensorPolicy::new().block_keyword("falun");
        let net = run(
            policy,
            Some(RoutedMimicryNet::HOPS_TO_COVER),
            b"GET /weather HTTP/1.0\r\n\r\n",
            false,
        );
        let server = server_of(&net);
        assert_eq!(server.verdict(), Verdict::Reachable);
        assert!(!net.censor_acted());
    }

    #[test]
    fn too_small_ttl_never_reaches_the_taps() {
        // Reply TTL below the tap distance: the monitors never see the
        // SYN/ACK, so a censor cannot even observe the flow's reverse path.
        let net = run(
            CensorPolicy::new(),
            Some(1),
            b"GET /x HTTP/1.0\r\n\r\n",
            false,
        );
        let cap = net.sim.capture().expect("capture");
        let synacks_at_tap = cap
            .records()
            .iter()
            .filter(|r| {
                r.to_node == net.censor
                    && r.packet
                        .as_tcp()
                        .map(|t| t.flags.has_syn() && t.flags.has_ack())
                        .unwrap_or(false)
            })
            .count();
        assert_eq!(synacks_at_tap, 0, "SYN/ACK died before the tap");
        // The flow still "works" from the server's blind perspective.
        let server = server_of(&net);
        assert!(!server.received.is_empty());
    }

    #[test]
    fn capture_is_off_until_a_reader_enables_it() {
        let net = RoutedMimicryNet::build(3, CensorPolicy::new());
        assert!(
            net.sim.capture().is_none(),
            "instantiated worlds capture nothing"
        );
        // E7's path: enable capture, run, and read the reply at the tap.
        let net = run(
            CensorPolicy::new(),
            Some(RoutedMimicryNet::HOPS_TO_COVER),
            b"GET /x HTTP/1.0\r\n\r\n",
            false,
        );
        let cap = net.sim.capture().expect("capture enabled by the reader");
        assert!(cap.records().iter().any(|r| {
            r.to_node == net.surveillance
                && r.packet.src == net.mserver_ip
                && r.packet
                    .as_tcp()
                    .map(|t| t.flags.has_syn() && t.flags.has_ack())
                    .unwrap_or(false)
        }));
    }

    #[test]
    fn surveillance_attributes_the_neighbor_not_the_client() {
        let policy = CensorPolicy::new().block_keyword("falun");
        let net = run(
            policy,
            Some(RoutedMimicryNet::HOPS_TO_COVER),
            b"GET /falun HTTP/1.0\r\n\r\n",
            false,
        );
        let surv = net.surveillance();
        assert_eq!(
            surv.alerts_for(net.client_ip),
            0,
            "nothing points at the client"
        );
        // The keyword rule fired — on the spoofed source.
        assert!(surv.alerts_for(net.cover_ip) > 0);
    }
}
