//! The simulator: owns nodes, links and the event queue, and runs the
//! discrete-event loop.
//!
//! ```
//! use underradar_netsim::{Simulator, LinkConfig, Packet, SimTime, SimDuration};
//! use underradar_netsim::node::{Node, NodeCtx, IfaceId};
//! use std::any::Any;
//!
//! struct Sink { name: String, got: usize }
//! impl Node for Sink {
//!     fn name(&self) -> &str { &self.name }
//!     fn receive(&mut self, _: &mut NodeCtx<'_>, _: IfaceId, _: Packet) { self.got += 1; }
//!     fn as_any(&self) -> &dyn Any { self }
//!     fn as_any_mut(&mut self) -> &mut dyn Any { self }
//! }
//!
//! let mut sim = Simulator::new(1);
//! let a = sim.add_node(Box::new(Sink { name: "a".into(), got: 0 }));
//! let b = sim.add_node(Box::new(Sink { name: "b".into(), got: 0 }));
//! sim.wire(a, IfaceId(0), b, IfaceId(0), LinkConfig::default()).expect("fresh ifaces wire");
//! let pkt = Packet::udp([10,0,0,1].into(), [10,0,0,2].into(), 1, 2, vec![]);
//! sim.send_from(a, IfaceId(0), pkt, SimTime::ZERO).expect("node a exists");
//! sim.run_for(SimDuration::from_secs(1)).expect("within event budget");
//! assert_eq!(sim.node_ref::<Sink>(b).expect("node b exists").got, 1);
//! ```

use crate::capture::{Capture, CapturedPacket};
use crate::error::NetsimError;
use crate::event::{EventKind, EventQueue, TimerToken};
use crate::host::{Host, HostTask};
use crate::link::{Endpoint, Link, LinkConfig, LinkId, TxOutcome};
use crate::node::{Emit, IfaceId, Node, NodeCtx, NodeId};
use crate::packet::Packet;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use underradar_telemetry::{Histogram, Telemetry, TraceRecord, Tracer};

/// Default cap on processed events, a guard against runaway packet storms.
pub const DEFAULT_EVENT_BUDGET: u64 = 50_000_000;

/// The scheduler's own counts, kept plain (one add per event, no branch)
/// and written by name by [`Simulator::export_telemetry`].
#[derive(Default)]
struct SimStats {
    events_deliver: u64,
    events_timer: u64,
    events_transmit: u64,
    link_transmits: u64,
    link_tx_bytes: u64,
    link_drops: u64,
    link_reordered: u64,
    link_duplicates: u64,
    link_corrupted: u64,
}

/// A link-stage flight-recorder record: an impairment draw that fired.
/// `seq` is the scheduler's transmit counter; `cap` (when a capture is
/// attached) is the index this packet occupies in it.
fn link_record(
    when: SimTime,
    seq: u64,
    kind: &'static str,
    packet: &Packet,
    capture: Option<&Capture>,
) -> TraceRecord {
    let mut fields: Vec<(&'static str, underradar_telemetry::FieldValue)> = Vec::with_capacity(2);
    fields.push(("bytes", (packet.wire_len() as u64).into()));
    if let Some(cap) = capture {
        fields.push(("cap", (cap.len() as u64).into()));
    }
    TraceRecord {
        t_ns: when.as_nanos(),
        seq,
        stage: "link",
        kind,
        flow: Some(packet.trace_flow()),
        fields,
    }
}

/// The discrete-event network simulator.
pub struct Simulator {
    nodes: Vec<Option<Box<dyn Node>>>,
    names: Vec<String>,
    /// Per node, per interface: the link it is wired to (if any).
    wiring: Vec<Vec<Option<LinkId>>>,
    links: Vec<Link>,
    queue: EventQueue,
    rng: SimRng,
    now: SimTime,
    started: bool,
    capture: Option<Capture>,
    event_budget: u64,
    events_processed: u64,
    next_timer: u64,
    emits: Vec<Emit>,
    stats: SimStats,
    /// The queue depth each event sees, sampled only while an enabled
    /// telemetry handle is attached; boxed so a detached simulator does
    /// not carry the histogram body.
    queue_depth: Option<Box<Histogram>>,
    tracer: Tracer,
    /// Running transmit attempt counter (1-based); stamps link-stage
    /// flight-recorder records so they correlate with the pcap capture.
    tx_seq: u64,
}

impl Simulator {
    /// Create a simulator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Simulator {
            nodes: Vec::new(),
            names: Vec::new(),
            wiring: Vec::new(),
            links: Vec::new(),
            queue: EventQueue::new(),
            rng: SimRng::seed_from_u64(seed),
            now: SimTime::ZERO,
            started: false,
            capture: None,
            event_budget: DEFAULT_EVENT_BUDGET,
            events_processed: 0,
            next_timer: 0,
            emits: Vec::new(),
            stats: SimStats::default(),
            queue_depth: None,
            tracer: Tracer::disabled(),
            tx_seq: 0,
        }
    }

    /// Attach a telemetry handle. When it is enabled, the scheduler
    /// samples the queue depth at every event from here on, and
    /// [`Simulator::export_telemetry`] also writes the per-kind event and
    /// link counts and that histogram. The handle's tracer, if any, records
    /// the link impairments that fire. When the handle is disabled — the
    /// default — the hot loop pays one branch per event.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.queue_depth = tel.is_enabled().then(Box::default);
        self.tracer = tel.tracer();
    }

    /// The resolved flight-recorder handle (disabled unless the attached
    /// telemetry was built with tracing).
    pub fn tracer(&self) -> Tracer {
        self.tracer.clone()
    }

    /// Write the scheduler's state into `tel` by name: total events
    /// processed, node/link counts, pending events and the simulated
    /// clock; and, when an enabled handle was attached with
    /// [`Simulator::set_telemetry`], events by kind, link transmits,
    /// bytes and impairments (zeros included) and the queue-depth
    /// histogram. Idempotent (absolute totals), so it can be called at
    /// any point.
    pub fn export_telemetry(&self, tel: &Telemetry) {
        if !tel.is_enabled() {
            return;
        }
        tel.set_counter("netsim.events_processed", self.events_processed);
        tel.set_gauge("netsim.nodes", self.nodes.len() as i64);
        tel.set_gauge("netsim.links", self.links.len() as i64);
        tel.set_gauge("netsim.pending_events", self.queue.len() as i64);
        tel.set_gauge("netsim.now_ns", self.now.as_nanos() as i64);
        let Some(depth) = &self.queue_depth else {
            return;
        };
        let s = &self.stats;
        for (name, total) in [
            ("netsim.events.deliver", s.events_deliver),
            ("netsim.events.timer", s.events_timer),
            ("netsim.events.transmit", s.events_transmit),
            ("netsim.link.transmits", s.link_transmits),
            ("netsim.link.tx_bytes", s.link_tx_bytes),
            ("netsim.link.drops", s.link_drops),
            ("netsim.link.reordered", s.link_reordered),
            ("netsim.link.duplicates", s.link_duplicates),
            ("netsim.link.corrupted", s.link_corrupted),
        ] {
            tel.set_counter(name, total);
        }
        tel.set_histogram("netsim.queue.depth", depth);
    }

    /// Enable global packet capture (every packet accepted onto any link).
    pub fn enable_capture(&mut self) {
        if self.capture.is_none() {
            self.capture = Some(Capture::new());
        }
    }

    /// The capture, if enabled.
    pub fn capture(&self) -> Option<&Capture> {
        self.capture.as_ref()
    }

    /// Override the runaway-guard event budget.
    pub fn set_event_budget(&mut self, budget: u64) {
        self.event_budget = budget;
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Register a node, returning its id.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.names.push(node.name().to_string());
        self.nodes.push(Some(node));
        self.wiring.push(Vec::new());
        id
    }

    /// All node names indexed by id (for [`Capture::render`]).
    pub fn node_names(&self) -> &[String] {
        &self.names
    }

    /// Typed shared access to a node.
    pub fn node_ref<T: Node>(&self, id: NodeId) -> Option<&T> {
        self.nodes.get(id.0)?.as_ref()?.as_any().downcast_ref::<T>()
    }

    /// Typed mutable access to a node.
    ///
    /// Mutations take effect immediately but cannot schedule packets or
    /// timers; use node tasks for in-simulation behaviour.
    pub fn node_mut<T: Node>(&mut self, id: NodeId) -> Option<&mut T> {
        self.nodes
            .get_mut(id.0)?
            .as_mut()?
            .as_any_mut()
            .downcast_mut::<T>()
    }

    /// Wire `(a, ai)` to `(b, bi)` with a fresh link.
    pub fn wire(
        &mut self,
        a: NodeId,
        ai: IfaceId,
        b: NodeId,
        bi: IfaceId,
        config: LinkConfig,
    ) -> Result<LinkId, NetsimError> {
        for (n, i) in [(a, ai), (b, bi)] {
            if n.0 >= self.nodes.len() {
                return Err(NetsimError::UnknownNode(n.0));
            }
            let table = &mut self.wiring[n.0];
            if table.len() <= i.0 {
                table.resize(i.0 + 1, None);
            }
            if table[i.0].is_some() {
                return Err(NetsimError::IfaceAlreadyWired {
                    node: n.0,
                    iface: i.0,
                });
            }
        }
        let id = LinkId(self.links.len());
        self.links.push(Link::new(
            Endpoint { node: a, iface: ai },
            Endpoint { node: b, iface: bi },
            config,
        ));
        self.wiring[a.0][ai.0] = Some(id);
        self.wiring[b.0][bi.0] = Some(id);
        Ok(id)
    }

    /// Schedule a packet transmission from a node's interface at `time`, as
    /// if the node had emitted it. Useful for test harnesses.
    pub fn send_from(
        &mut self,
        node: NodeId,
        iface: IfaceId,
        packet: Packet,
        time: SimTime,
    ) -> Result<(), NetsimError> {
        if node.0 >= self.nodes.len() {
            return Err(NetsimError::UnknownNode(node.0));
        }
        // Defer the link transmission to the scheduled instant via a queued
        // Transmit event. Touching the link immediately (as earlier versions
        // did) consumed the serialization horizon and loss draws in *call*
        // order, so out-of-order send_from calls produced different traces
        // than the same sends issued chronologically.
        let time = time.max(self.now);
        self.queue.push(
            time,
            EventKind::Transmit {
                node,
                iface,
                packet,
            },
        );
        Ok(())
    }

    /// Deliver a packet directly to a node's interface at `time`, bypassing
    /// any link (loss, latency). Useful for injecting crafted traffic.
    pub fn inject_at(
        &mut self,
        node: NodeId,
        iface: IfaceId,
        packet: Packet,
        time: SimTime,
    ) -> Result<(), NetsimError> {
        if node.0 >= self.nodes.len() {
            return Err(NetsimError::UnknownNode(node.0));
        }
        let time = time.max(self.now);
        self.queue.push(
            time,
            EventKind::Deliver {
                node,
                iface,
                packet,
            },
        );
        Ok(())
    }

    /// Run until the queue is exhausted or `deadline` is reached; the clock
    /// ends at `deadline` if the queue drained earlier.
    pub fn run_until(&mut self, deadline: SimTime) -> Result<(), NetsimError> {
        self.ensure_started();
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            self.step()?;
        }
        self.now = self.now.max(deadline);
        Ok(())
    }

    /// Run for `duration` of simulated time from now.
    pub fn run_for(&mut self, duration: SimDuration) -> Result<(), NetsimError> {
        let deadline = self.now + duration;
        self.run_until(deadline)
    }

    /// Run until no events remain.
    pub fn run_to_completion(&mut self) -> Result<(), NetsimError> {
        self.ensure_started();
        while !self.queue.is_empty() {
            self.step()?;
        }
        Ok(())
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for idx in 0..self.nodes.len() {
            self.with_node(NodeId(idx), |node, ctx| node.start(ctx));
        }
    }

    /// Process the next event. Every packet reaches its node here, through
    /// [`Node::receive`], one delivery event at a time.
    fn step(&mut self) -> Result<(), NetsimError> {
        let Some(event) = self.queue.pop() else {
            return Ok(());
        };
        self.events_processed += 1;
        if self.events_processed > self.event_budget {
            return Err(NetsimError::EventBudgetExhausted {
                budget: self.event_budget,
            });
        }
        self.now = self.now.max(event.time);
        if let Some(depth) = &mut self.queue_depth {
            depth.observe(self.queue.len() as u64);
        }
        match event.kind {
            EventKind::Deliver {
                node,
                iface,
                packet,
            } => {
                self.stats.events_deliver += 1;
                self.with_node(node, |n, ctx| n.receive(ctx, iface, packet));
            }
            EventKind::Timer { node, token } => {
                self.stats.events_timer += 1;
                self.with_node(node, |n, ctx| n.on_timer(ctx, token));
            }
            EventKind::Transmit {
                node,
                iface,
                packet,
            } => {
                self.stats.events_transmit += 1;
                self.transmit(node, iface, packet, self.now);
            }
        }
        Ok(())
    }

    /// Call `f` on a node with a fresh context, then apply its emitted
    /// effects. The node is temporarily removed from the table so the
    /// simulator can be borrowed for the context without aliasing.
    fn with_node<F>(&mut self, id: NodeId, f: F)
    where
        F: FnOnce(&mut dyn Node, &mut NodeCtx<'_>),
    {
        let Some(slot) = self.nodes.get_mut(id.0) else {
            return;
        };
        let Some(mut node) = slot.take() else { return };
        debug_assert!(self.emits.is_empty());
        let mut emits = std::mem::take(&mut self.emits);
        {
            let mut ctx = NodeCtx {
                now: self.now,
                emits: &mut emits,
                rng: &mut self.rng,
                next_timer: &mut self.next_timer,
            };
            f(node.as_mut(), &mut ctx);
        }
        self.nodes[id.0] = Some(node);
        for emit in emits.drain(..) {
            match emit {
                Emit::Send { iface, packet } => self.transmit(id, iface, packet, self.now),
                Emit::Timer { delay, token } => {
                    self.queue
                        .push(self.now + delay, EventKind::Timer { node: id, token });
                }
            }
        }
        self.emits = emits;
    }

    /// Put a packet on the link wired to `(node, iface)` at time `when`.
    /// Unwired interfaces silently drop (an unplugged cable). Link
    /// impairments (corruption, duplication) are applied here so every
    /// delivered copy — and the capture — reflects what crossed the wire.
    fn transmit(&mut self, node: NodeId, iface: IfaceId, mut packet: Packet, when: SimTime) {
        let Some(link_id) = self
            .wiring
            .get(node.0)
            .and_then(|t| t.get(iface.0))
            .copied()
            .flatten()
        else {
            return;
        };
        let link = &mut self.links[link_id.0];
        let Some(peer) = link.peer_of(node, iface) else {
            return;
        };
        let wire_len = packet.wire_len();
        self.tx_seq += 1;
        match link.transmit(node, iface, wire_len, when, &mut self.rng) {
            TxOutcome::Deliver(d) => {
                self.stats.link_transmits += 1;
                self.stats.link_tx_bytes += wire_len as u64;
                if d.reordered {
                    self.stats.link_reordered += 1;
                }
                if self.tracer.is_live() && d.reordered {
                    self.tracer.record(link_record(
                        when,
                        self.tx_seq,
                        "reordered",
                        &packet,
                        self.capture.as_ref(),
                    ));
                }
                if d.corrupt {
                    let payload = packet.body.payload_mut();
                    if !payload.is_empty() {
                        let idx = self.rng.index(payload.len());
                        payload[idx] ^= 0x55;
                        self.stats.link_corrupted += 1;
                        if self.tracer.is_live() {
                            self.tracer.record(link_record(
                                when,
                                self.tx_seq,
                                "corrupted",
                                &packet,
                                self.capture.as_ref(),
                            ));
                        }
                    }
                }
                if let Some(cap) = &mut self.capture {
                    cap.record(CapturedPacket {
                        time: when,
                        from_node: node,
                        from_iface: iface,
                        to_node: peer.node,
                        to_iface: peer.iface,
                        packet: packet.clone(),
                    });
                }
                let duplicate = d.duplicate_at.map(|dup_at| (dup_at, packet.clone()));
                self.queue.push(
                    d.at,
                    EventKind::Deliver {
                        node: peer.node,
                        iface: peer.iface,
                        packet,
                    },
                );
                if let Some((dup_at, copy)) = duplicate {
                    self.stats.link_duplicates += 1;
                    self.stats.link_tx_bytes += wire_len as u64;
                    if self.tracer.is_live() {
                        self.tracer.record(link_record(
                            when,
                            self.tx_seq,
                            "duplicated",
                            &copy,
                            self.capture.as_ref(),
                        ));
                    }
                    if let Some(cap) = &mut self.capture {
                        cap.record(CapturedPacket {
                            time: when,
                            from_node: node,
                            from_iface: iface,
                            to_node: peer.node,
                            to_iface: peer.iface,
                            packet: copy.clone(),
                        });
                    }
                    // Pushed after the original at the same timestamp, so the
                    // FIFO tie-break delivers the copy second.
                    self.queue.push(
                        dup_at,
                        EventKind::Deliver {
                            node: peer.node,
                            iface: peer.iface,
                            packet: copy,
                        },
                    );
                }
            }
            TxOutcome::Lost => {
                self.stats.link_drops += 1;
                if self.tracer.is_live() {
                    self.tracer
                        .record(link_record(when, self.tx_seq, "dropped", &packet, None));
                }
            }
        }
    }

    /// Start `task` on the [`Host`] `host` at `at` (clamped to now), and
    /// return its index for [`Host::task_ref`]. The one task-start rule:
    /// before the run starts, the task is armed at [`Node::start`], as
    /// [`Host::spawn_task_at`] does; once the run has started, `start` has
    /// passed, so the task gets its own timer token scheduled from here.
    pub fn spawn_task(
        &mut self,
        host: NodeId,
        at: SimTime,
        task: Box<dyn HostTask>,
    ) -> Result<usize, NetsimError> {
        let started = self.started;
        let token = TimerToken(self.next_timer);
        let node = self
            .node_mut::<Host>(host)
            .ok_or(NetsimError::NotAHost(host.0))?;
        if !started {
            return Ok(node.spawn_task_at(at, task));
        }
        let idx = node.add_task(task);
        node.bind_task_start(idx, token);
        self.next_timer += 1;
        let at = at.max(self.now);
        self.queue.push(at, EventKind::Timer { node: host, token });
        Ok(idx)
    }
}

impl std::fmt::Debug for Simulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("nodes", &self.names)
            .field("links", &self.links.len())
            .field("now", &self.now)
            .field("pending_events", &self.queue.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;
    use std::net::Ipv4Addr;

    /// Echoes every packet back out the interface it arrived on, after a
    /// configurable number of timer-based delays.
    struct Echo {
        name: String,
        received: Vec<(SimTime, Packet)>,
        echo: bool,
    }

    impl Echo {
        fn new(name: &str, echo: bool) -> Self {
            Echo {
                name: name.into(),
                received: Vec::new(),
                echo,
            }
        }
    }

    impl Node for Echo {
        fn name(&self) -> &str {
            &self.name
        }
        fn receive(&mut self, ctx: &mut NodeCtx<'_>, iface: IfaceId, packet: Packet) {
            self.received.push((ctx.now(), packet.clone()));
            if self.echo {
                let mut back = packet;
                std::mem::swap(&mut back.src, &mut back.dst);
                ctx.send(iface, back);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    struct TimerNode {
        name: String,
        fired: Vec<(SimTime, TimerToken)>,
        chain: u32,
    }

    impl Node for TimerNode {
        fn name(&self) -> &str {
            &self.name
        }
        fn start(&mut self, ctx: &mut NodeCtx<'_>) {
            ctx.set_timer(SimDuration::from_millis(10));
        }
        fn receive(&mut self, _: &mut NodeCtx<'_>, _: IfaceId, _: Packet) {}
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: TimerToken) {
            self.fired.push((ctx.now(), token));
            if self.chain > 0 {
                self.chain -= 1;
                ctx.set_timer(SimDuration::from_millis(10));
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    const A_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn two_node_sim(echo: bool) -> (Simulator, NodeId, NodeId) {
        let mut sim = Simulator::new(7);
        let a = sim.add_node(Box::new(Echo::new("a", false)));
        let b = sim.add_node(Box::new(Echo::new("b", echo)));
        sim.wire(a, IfaceId(0), b, IfaceId(0), LinkConfig::default())
            .expect("wire");
        (sim, a, b)
    }

    #[test]
    fn packet_crosses_link_with_latency() {
        let (mut sim, a, b) = two_node_sim(false);
        let p = Packet::udp(A_IP, B_IP, 1, 2, b"hi".to_vec());
        sim.send_from(a, IfaceId(0), p, SimTime::ZERO)
            .expect("send");
        sim.run_to_completion().expect("run");
        let bnode = sim.node_ref::<Echo>(b).expect("b");
        assert_eq!(bnode.received.len(), 1);
        // 1ms latency + 30 bytes at 1 Gbps (240ns)
        assert_eq!(bnode.received[0].0, SimTime::from_nanos(1_000_240));
    }

    #[test]
    fn echo_returns_to_sender() {
        let (mut sim, a, b) = two_node_sim(true);
        let p = Packet::udp(A_IP, B_IP, 1, 2, b"ping".to_vec());
        sim.send_from(a, IfaceId(0), p, SimTime::ZERO)
            .expect("send");
        sim.run_to_completion().expect("run");
        let anode = sim.node_ref::<Echo>(a).expect("a");
        assert_eq!(anode.received.len(), 1);
        assert_eq!(anode.received[0].1.src, B_IP, "addresses swapped by echo");
        let _ = b;
    }

    #[test]
    fn start_is_called_once_and_timers_chain() {
        let mut sim = Simulator::new(1);
        let t = sim.add_node(Box::new(TimerNode {
            name: "t".into(),
            fired: vec![],
            chain: 2,
        }));
        sim.run_to_completion().expect("run");
        let node = sim.node_ref::<TimerNode>(t).expect("t");
        assert_eq!(node.fired.len(), 3);
        assert_eq!(node.fired[0].0, SimTime::from_nanos(10_000_000));
        assert_eq!(node.fired[2].0, SimTime::from_nanos(30_000_000));
        // Tokens are unique.
        let mut tokens: Vec<u64> = node.fired.iter().map(|(_, t)| t.0).collect();
        tokens.dedup();
        assert_eq!(tokens.len(), 3);
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut sim = Simulator::new(1);
        let t = sim.add_node(Box::new(TimerNode {
            name: "t".into(),
            fired: vec![],
            chain: 10,
        }));
        sim.run_until(SimTime::from_nanos(25_000_000)).expect("run");
        assert_eq!(sim.node_ref::<TimerNode>(t).expect("t").fired.len(), 2);
        assert_eq!(sim.now(), SimTime::from_nanos(25_000_000));
        sim.run_to_completion().expect("run rest");
        assert_eq!(sim.node_ref::<TimerNode>(t).expect("t").fired.len(), 11);
    }

    #[test]
    fn capture_records_link_transmissions() {
        let (mut sim, a, _b) = two_node_sim(true);
        sim.enable_capture();
        let p = Packet::udp(A_IP, B_IP, 1, 2, vec![]);
        sim.send_from(a, IfaceId(0), p, SimTime::ZERO)
            .expect("send");
        sim.run_to_completion().expect("run");
        let cap = sim.capture().expect("capture");
        assert_eq!(cap.len(), 2, "request and echo");
        let text = cap.render(sim.node_names());
        assert!(text.contains("a[0] -> b[0]"));
        assert!(text.contains("b[0] -> a[0]"));
    }

    #[test]
    fn unwired_iface_drops_silently() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node(Box::new(Echo::new("a", false)));
        let p = Packet::udp(A_IP, B_IP, 1, 2, vec![]);
        sim.send_from(a, IfaceId(5), p, SimTime::ZERO)
            .expect("send");
        sim.run_to_completion().expect("run");
        // Only the scheduled Transmit event itself runs; the packet dies at
        // the unplugged interface, delivering nothing.
        assert_eq!(sim.events_processed(), 1);
        assert_eq!(sim.node_ref::<Echo>(a).expect("a").received.len(), 0);
    }

    /// `send_from` calls issued out of chronological order must produce the
    /// same delivery schedule as the same sends issued in order: the link's
    /// serialization horizon is consumed at the scheduled instants, not at
    /// call time.
    #[test]
    fn send_from_is_order_independent() {
        // 8 Kbps: a 30-byte UDP packet serializes in 30ms, so back-to-back
        // packets visibly queue behind each other.
        let slow = LinkConfig::default()
            .with_latency(SimDuration::from_millis(1))
            .with_bandwidth_bps(8_000);
        let deliveries = |times: &[u64]| -> Vec<SimTime> {
            let mut sim = Simulator::new(7);
            let a = sim.add_node(Box::new(Echo::new("a", false)));
            let b = sim.add_node(Box::new(Echo::new("b", false)));
            sim.wire(a, IfaceId(0), b, IfaceId(0), slow).expect("wire");
            for (i, &t) in times.iter().enumerate() {
                let p = Packet::udp(A_IP, B_IP, 1000 + i as u16, 2, b"xx".to_vec());
                sim.send_from(a, IfaceId(0), p, SimTime::from_nanos(t))
                    .expect("send");
            }
            sim.run_to_completion().expect("run");
            let mut got: Vec<SimTime> = sim
                .node_ref::<Echo>(b)
                .expect("b")
                .received
                .iter()
                .map(|(t, _)| *t)
                .collect();
            got.sort_unstable();
            got
        };
        // Three sends inside one serialization window, scheduled in order
        // vs. reverse call order.
        let in_order = deliveries(&[0, 10_000_000, 20_000_000]);
        let reversed = deliveries(&[20_000_000, 10_000_000, 0]);
        assert_eq!(in_order.len(), 3);
        assert_eq!(in_order, reversed, "call order must not affect the trace");
        // And the queueing is real: each packet waits out its predecessor's
        // serialization (30ms per packet at 8 Kbps).
        assert!(in_order[1] > in_order[0] + SimDuration::from_millis(10));
    }

    #[test]
    fn double_wiring_rejected() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node(Box::new(Echo::new("a", false)));
        let b = sim.add_node(Box::new(Echo::new("b", false)));
        let c = sim.add_node(Box::new(Echo::new("c", false)));
        sim.wire(a, IfaceId(0), b, IfaceId(0), LinkConfig::default())
            .expect("first");
        let err = sim.wire(a, IfaceId(0), c, IfaceId(0), LinkConfig::default());
        assert_eq!(
            err,
            Err(NetsimError::IfaceAlreadyWired {
                node: a.0,
                iface: 0
            })
        );
    }

    #[test]
    fn unknown_node_errors() {
        let mut sim = Simulator::new(1);
        let ghost = NodeId(42);
        let p = Packet::udp(A_IP, B_IP, 1, 2, vec![]);
        assert!(sim
            .send_from(ghost, IfaceId(0), p.clone(), SimTime::ZERO)
            .is_err());
        assert!(sim.inject_at(ghost, IfaceId(0), p, SimTime::ZERO).is_err());
    }

    #[test]
    fn inject_bypasses_link() {
        let (mut sim, _a, b) = two_node_sim(false);
        let p = Packet::udp(A_IP, B_IP, 1, 2, vec![]);
        sim.inject_at(b, IfaceId(0), p, SimTime::from_nanos(500))
            .expect("inject");
        sim.run_to_completion().expect("run");
        let bnode = sim.node_ref::<Echo>(b).expect("b");
        assert_eq!(bnode.received.len(), 1);
        assert_eq!(bnode.received[0].0, SimTime::from_nanos(500));
    }

    #[test]
    fn event_budget_guards_runaway() {
        // Two echo nodes bounce a packet forever on an ideal link.
        let mut sim = Simulator::new(1);
        let a = sim.add_node(Box::new(Echo::new("a", true)));
        let b = sim.add_node(Box::new(Echo::new("b", true)));
        sim.wire(a, IfaceId(0), b, IfaceId(0), LinkConfig::ideal())
            .expect("wire");
        sim.set_event_budget(1_000);
        let p = Packet::udp(A_IP, B_IP, 1, 2, vec![]);
        sim.send_from(a, IfaceId(0), p, SimTime::ZERO)
            .expect("send");
        let err = sim.run_to_completion();
        assert_eq!(
            err,
            Err(NetsimError::EventBudgetExhausted { budget: 1_000 })
        );
    }

    #[test]
    fn telemetry_counts_scheduler_activity() {
        use underradar_telemetry::Telemetry;
        let tel = Telemetry::enabled();
        let (mut sim, a, _b) = two_node_sim(true);
        sim.set_telemetry(tel.clone());
        let p = Packet::udp(A_IP, B_IP, 1, 2, b"ping".to_vec());
        sim.send_from(a, IfaceId(0), p, SimTime::ZERO)
            .expect("send");
        sim.run_to_completion().expect("run");
        sim.export_telemetry(&tel);
        let snap = tel.snapshot();
        // One Transmit (the send_from), two Delivers (request + echo).
        assert_eq!(snap.counter("netsim.events.transmit"), 1);
        assert_eq!(snap.counter("netsim.events.deliver"), 2);
        assert_eq!(snap.counter("netsim.link.transmits"), 2);
        assert!(snap.counter("netsim.link.tx_bytes") >= 2 * 32);
        assert_eq!(snap.counter("netsim.events_processed"), 3);
        assert_eq!(snap.gauge("netsim.nodes"), 2);
        assert_eq!(
            snap.histogram("netsim.queue.depth").map(|h| h.count()),
            Some(3)
        );
        // Impairments that never fired are still exported, as zeros.
        for name in [
            "netsim.link.drops",
            "netsim.link.reordered",
            "netsim.link.duplicates",
            "netsim.link.corrupted",
        ] {
            assert_eq!(snap.counters.get(name), Some(&0), "{name}");
        }
        // Every event is one of the three kinds.
        assert_eq!(
            snap.counter("netsim.events.deliver")
                + snap.counter("netsim.events.timer")
                + snap.counter("netsim.events.transmit"),
            snap.counter("netsim.events_processed")
        );
        // The export writes absolute totals, so repeating it changes nothing.
        sim.export_telemetry(&tel);
        assert_eq!(tel.snapshot(), snap);
    }

    #[test]
    fn telemetry_counts_link_drops() {
        use underradar_telemetry::Telemetry;
        let tel = Telemetry::enabled();
        let mut sim = Simulator::new(3);
        let a = sim.add_node(Box::new(Echo::new("a", false)));
        let b = sim.add_node(Box::new(Echo::new("b", false)));
        sim.wire(
            a,
            IfaceId(0),
            b,
            IfaceId(0),
            LinkConfig::default().with_loss(1.0),
        )
        .expect("wire");
        sim.set_telemetry(tel.clone());
        let p = Packet::udp(A_IP, B_IP, 1, 2, vec![]);
        sim.send_from(a, IfaceId(0), p, SimTime::ZERO)
            .expect("send");
        sim.run_to_completion().expect("run");
        sim.export_telemetry(&tel);
        assert_eq!(tel.snapshot().counter("netsim.link.drops"), 1);
    }

    #[test]
    fn duplicate_knob_delivers_every_packet_twice() {
        use underradar_telemetry::Telemetry;
        let tel = Telemetry::enabled();
        let mut sim = Simulator::new(1);
        let a = sim.add_node(Box::new(Echo::new("a", false)));
        let b = sim.add_node(Box::new(Echo::new("b", false)));
        sim.wire(
            a,
            IfaceId(0),
            b,
            IfaceId(0),
            LinkConfig::default().with_duplicate(1.0),
        )
        .expect("wire");
        sim.set_telemetry(tel.clone());
        sim.enable_capture();
        let p = Packet::udp(A_IP, B_IP, 1, 2, b"once".to_vec());
        sim.send_from(a, IfaceId(0), p, SimTime::ZERO)
            .expect("send");
        sim.run_to_completion().expect("run");
        let bnode = sim.node_ref::<Echo>(b).expect("b");
        assert_eq!(bnode.received.len(), 2, "original plus duplicate");
        assert_eq!(bnode.received[0].1, bnode.received[1].1);
        assert_eq!(sim.capture().expect("cap").len(), 2, "both copies captured");
        sim.export_telemetry(&tel);
        assert_eq!(tel.snapshot().counter("netsim.link.duplicates"), 1);
    }

    #[test]
    fn corrupt_knob_flips_exactly_one_payload_byte() {
        use underradar_telemetry::Telemetry;
        let tel = Telemetry::enabled();
        let mut sim = Simulator::new(2);
        let a = sim.add_node(Box::new(Echo::new("a", false)));
        let b = sim.add_node(Box::new(Echo::new("b", false)));
        sim.wire(
            a,
            IfaceId(0),
            b,
            IfaceId(0),
            LinkConfig::default().with_corrupt(1.0),
        )
        .expect("wire");
        sim.set_telemetry(tel.clone());
        let sent = b"payload-bytes".to_vec();
        let p = Packet::udp(A_IP, B_IP, 1, 2, sent.clone());
        sim.send_from(a, IfaceId(0), p, SimTime::ZERO)
            .expect("send");
        sim.run_to_completion().expect("run");
        let bnode = sim.node_ref::<Echo>(b).expect("b");
        assert_eq!(bnode.received.len(), 1);
        let got = bnode.received[0].1.body.payload();
        let diffs = sent.iter().zip(got.iter()).filter(|(s, g)| s != g).count();
        assert_eq!(diffs, 1, "exactly one byte flipped");
        sim.export_telemetry(&tel);
        assert_eq!(tel.snapshot().counter("netsim.link.corrupted"), 1);
    }

    #[test]
    fn disabled_telemetry_changes_nothing() {
        // Same trace with and without an attached disabled handle.
        let trace = |attach: bool| -> Vec<SimTime> {
            let (mut sim, a, b) = two_node_sim(true);
            if attach {
                sim.set_telemetry(underradar_telemetry::Telemetry::disabled());
            }
            let p = Packet::udp(A_IP, B_IP, 1, 2, b"x".to_vec());
            sim.send_from(a, IfaceId(0), p, SimTime::ZERO)
                .expect("send");
            sim.run_to_completion().expect("run");
            let _ = b;
            sim.node_ref::<Echo>(a)
                .expect("a")
                .received
                .iter()
                .map(|(t, _)| *t)
                .collect()
        };
        assert_eq!(trace(true), trace(false));
    }

    /// A passive monitor that records what it received and when.
    struct RecordingMonitor {
        name: String,
        received: Vec<(SimTime, Packet)>,
    }

    impl Node for RecordingMonitor {
        fn name(&self) -> &str {
            &self.name
        }
        fn receive(&mut self, ctx: &mut NodeCtx<'_>, _: IfaceId, packet: Packet) {
            self.received.push((ctx.now(), packet));
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn same_instant_deliveries_arrive_in_fifo_order() {
        let mut sim = Simulator::new(1);
        let m = sim.add_node(Box::new(RecordingMonitor {
            name: "mon".into(),
            received: vec![],
        }));
        // Five same-instant injections plus one later: each reaches
        // `receive` in injection order at its own timestamp.
        for i in 0..5u16 {
            let p = Packet::udp(A_IP, B_IP, 1000 + i, 2, vec![]).with_ident(i);
            sim.inject_at(m, IfaceId(0), p, SimTime::from_nanos(100))
                .expect("inject");
        }
        let late = Packet::udp(A_IP, B_IP, 2000, 2, vec![]).with_ident(99);
        sim.inject_at(m, IfaceId(0), late, SimTime::from_nanos(200))
            .expect("inject");
        sim.run_to_completion().expect("run");
        let mon = sim.node_ref::<RecordingMonitor>(m).expect("mon");
        let idents: Vec<u16> = mon.received.iter().map(|(_, p)| p.ident).collect();
        assert_eq!(idents, vec![0, 1, 2, 3, 4, 99]);
        assert!(mon.received[..5]
            .iter()
            .all(|(t, _)| *t == SimTime::from_nanos(100)));
        assert_eq!(mon.received[5].0, SimTime::from_nanos(200));
        // One queue event per delivery, each accounted against the budget.
        assert_eq!(sim.events_processed(), 6);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed: u64| -> Vec<String> {
            let mut sim = Simulator::new(seed);
            let a = sim.add_node(Box::new(Echo::new("a", false)));
            let b = sim.add_node(Box::new(Echo::new("b", true)));
            sim.wire(
                a,
                IfaceId(0),
                b,
                IfaceId(0),
                LinkConfig::default()
                    .with_loss(0.3)
                    .with_jitter(SimDuration::from_millis(2)),
            )
            .expect("wire");
            sim.enable_capture();
            for i in 0..50u16 {
                let p = Packet::udp(A_IP, B_IP, 1000 + i, 2, vec![0; 10]).with_ident(i);
                sim.send_from(a, IfaceId(0), p, SimTime::from_nanos(u64::from(i) * 1000))
                    .expect("send");
            }
            sim.run_to_completion().expect("run");
            sim.capture()
                .expect("cap")
                .records()
                .iter()
                .map(|r| format!("{} {}", r.time, r.packet.summary()))
                .collect()
        };
        assert_eq!(run(99), run(99));
        assert_ne!(
            run(99),
            run(100),
            "different seeds should diverge under loss/jitter"
        );
    }
}
