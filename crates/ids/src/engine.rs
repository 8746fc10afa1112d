//! The detection engine: rule evaluation over packets and reassembled
//! streams.
//!
//! Architecture mirrors Snort's: a multi-pattern *fast pattern* prefilter
//! (a dense byte-classed DFA, [`crate::dfa`], over each rule's first
//! positive content — pass rules included) shortlists candidate rules per
//! packet; rules with no usable fast pattern are bucketed by protocol and
//! destination port so header predicates cull them before any payload
//! work. Candidates are then verified against all header and payload
//! predicates. `pass` rules suppress the packet entirely (Snort's
//! pass-over-alert ordering). `flow`-qualified rules match against the
//! reassembled stream rather than the single segment, with per-flow alert
//! dedup so a keyword firing once does not re-fire on every later segment
//! of the same flow.
//!
//! The hot path makes no per-packet allocations: the candidate shortlist
//! is an engine-owned epoch-stamped set (`CandidateSet`) — inserting is
//! a stamp compare, clearing is an epoch bump — sorted before evaluation
//! so rule order (and alert output) is deterministic.
//!
//! Stream matching is incremental: each flow direction carries a
//! persistent `u32` DFA cursor, and each in-order segment feeds only its
//! *new* bytes — keywords straddling segment boundaries are still found,
//! without rescanning the buffered window on every packet. A stream
//! rule whose fast pattern has appeared joins the direction's `seen`
//! list, which holds only rules that can still fire: a rule is *retired*
//! the moment its sid enters the per-flow dedup set, and the dedup check
//! runs *before* evaluation, so an already-alerted flow stops paying full
//! window scans per segment (the earlier design re-verified the whole
//! growing window on every later segment — O(window × segments)).
//!
//! The prefilter DFA is case-folded; hits for case-*sensitive* fast
//! patterns are confirmed against the exact bytes at the match offset
//! before a rule becomes a candidate, so candidate sets match what a
//! case-exact multi-pattern scan would produce.
//!
//! Per-flow matcher and dedup state lives in a *dense side table* indexed
//! by the reassembler's [`FlowId::index`]: no `(key, direction)` hash per
//! packet — the flow context carries the handle and the engine
//! dereferences. Slots store the generation they were initialized for, so
//! recycled flow slots start clean by construction; the teardown log is
//! still drained each packet to keep the live-state count exact, and
//! engine memory stays bounded by the flow table's high-water mark. One
//! consequence of teardown-before-evaluation: a stream rule can no longer
//! fire on the RST segment itself — by then the buffer is gone, which is
//! precisely the monitor blindness the paper's §4.1 mimicry relies on.
//!
//! Compilation is split from matching. A [`CompiledRuleset`] holds
//! everything derived from the rules alone — the rules, the prefilter
//! DFA, pattern metadata, rule groups and the stream/pass flags — and is
//! immutable, so one copy behind an `Arc` serves every engine that runs
//! those rules (a campaign compiles each policy's ruleset once, not once
//! per trial). A [`DetectionEngine`] owns only mutable matching state.
//!
//! [`DetectionEngine::process_batch`] is the scale entry point: it runs a
//! same-instant packet run through the identical per-packet pipeline but
//! appends alerts into one caller-owned buffer and hoists per-call
//! bookkeeping (trace clock, teardown drain scheduling) out of the loop —
//! byte-identical verdicts to per-packet [`DetectionEngine::process`].

use std::net::Ipv4Addr;
use std::sync::Arc;

use underradar_netsim::hash::FxHashMap;

use underradar_netsim::packet::{Packet, PacketBody};
use underradar_netsim::telemetry::{TraceRecord, Tracer};
use underradar_netsim::time::{SimDuration, SimTime};

use crate::alert::{Alert, AlertLog};
use crate::dfa::{PrefilterDfa, DFA_START};
use crate::rule::{FlowOption, PortSpec, Proto, Rule, RuleAction, ThresholdKind};
use crate::stream::{Direction, FlowContext, FlowId, ReassemblyConfig, StreamReassembler};

/// Engine statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Packets processed.
    pub packets: u64,
    /// Alert/log rules fully evaluated (post-prefilter, post-dedup).
    pub evaluations: u64,
    /// Alerts raised.
    pub alerts: u64,
    /// Packets suppressed by `pass` rules.
    pub passed: u64,
    /// Pass rules fully evaluated (post-prefilter/grouping).
    pub pass_evaluations: u64,
    /// Bytes fed through the fast-pattern prefilter (per-packet scans plus
    /// incremental stream cursor feeds).
    pub ac_bytes_scanned: u64,
}

#[derive(Debug, Clone, Copy)]
struct ThresholdState {
    window_start: SimTime,
    count: u32,
    alerted_in_window: u32,
}

/// Per-flow-direction incremental match state: the DFA cursor plus the
/// stream rules whose fast pattern has appeared and that can still fire
/// (sorted by rule index; retired on per-flow alert dedup).
#[derive(Debug)]
struct StreamMatchState {
    cursor: u32,
    seen: Vec<u32>,
}

impl Default for StreamMatchState {
    fn default() -> StreamMatchState {
        StreamMatchState {
            cursor: DFA_START,
            seen: Vec::new(),
        }
    }
}

/// Dense per-flow engine state, indexed by [`FlowId::index`]. A slot is
/// meaningful only while `live` is set and `gen` matches the presented
/// handle's generation; a recycled arena index carries a bumped
/// generation and is reset in place on first touch, so stale matcher or
/// dedup state can never leak into a new flow. The table's length is
/// bounded by the reassembler flow table's high-water mark, and cleared
/// slots keep their `Vec` capacities — steady-state churn allocates
/// nothing.
#[derive(Debug, Default)]
struct FlowEngineState {
    gen: u32,
    live: bool,
    c2s: StreamMatchState,
    s2c: StreamMatchState,
    /// Stream-rule dedup: sids already alerted on this flow.
    alerted: Vec<u32>,
}

impl FlowEngineState {
    fn dir(&self, dir: Direction) -> &StreamMatchState {
        match dir {
            Direction::ToServer => &self.c2s,
            Direction::ToClient => &self.s2c,
        }
    }

    fn clear(&mut self) {
        self.c2s.cursor = DFA_START;
        self.c2s.seen.clear();
        self.s2c.cursor = DFA_START;
        self.s2c.seen.clear();
        self.alerted.clear();
    }
}

/// One prefilter pattern's bookkeeping: the rule it shortlists and, for
/// case-sensitive patterns, the exact bytes to confirm (the DFA itself
/// matches case-folded).
#[derive(Debug)]
struct PatternMeta {
    rule: u32,
    exact: Option<Vec<u8>>,
}

/// Rules with no usable fast pattern, bucketed by the header predicates
/// that are cheap to key on: protocol and (for TCP/UDP with literal
/// destination ports) the destination port. A packet pulls one port
/// bucket plus its protocol's generic list instead of evaluating every
/// unfiltered rule.
#[derive(Debug, Default)]
struct RuleGroups {
    tcp_by_port: FxHashMap<u16, Vec<u32>>,
    udp_by_port: FxHashMap<u16, Vec<u32>>,
    /// TCP rules whose destination port is not a literal (any/range/not)
    /// or that are bidirectional.
    tcp_any: Vec<u32>,
    udp_any: Vec<u32>,
    /// Rules that can match a portless ICMP packet.
    icmp: Vec<u32>,
    /// Rules that can match a raw (unhandled-protocol) packet: `ip` rules
    /// whose port predicates admit "no port".
    raw: Vec<u32>,
}

impl RuleGroups {
    fn add(&mut self, idx: u32, rule: &Rule) {
        // A packet with no ports (ICMP/raw) satisfies a port predicate
        // only if the spec admits `None`; evaluate that exactly rather
        // than enumerating spec shapes.
        let portless_ok = rule.src_port.matches(None) && rule.dst_port.matches(None);
        let tcp = matches!(rule.proto, Proto::Tcp | Proto::Ip);
        let udp = matches!(rule.proto, Proto::Udp | Proto::Ip);
        if tcp {
            Self::add_ported(&mut self.tcp_by_port, &mut self.tcp_any, idx, rule);
        }
        if udp {
            Self::add_ported(&mut self.udp_by_port, &mut self.udp_any, idx, rule);
        }
        if matches!(rule.proto, Proto::Icmp | Proto::Ip) && portless_ok {
            self.icmp.push(idx);
        }
        if rule.proto == Proto::Ip && portless_ok {
            self.raw.push(idx);
        }
    }

    fn add_ported(
        by_port: &mut FxHashMap<u16, Vec<u32>>,
        any: &mut Vec<u32>,
        idx: u32,
        rule: &Rule,
    ) {
        if rule.bidirectional {
            // Reverse-direction matching keys on the *source* port spec;
            // keep it out of the port buckets.
            any.push(idx);
            return;
        }
        match &rule.dst_port {
            PortSpec::One(p) => by_port.entry(*p).or_default().push(idx),
            PortSpec::List(ps) => {
                for p in ps {
                    let bucket = by_port.entry(*p).or_default();
                    if bucket.last() != Some(&idx) {
                        bucket.push(idx);
                    }
                }
            }
            _ => any.push(idx),
        }
    }

    /// The (port bucket, generic list) pair this packet can match.
    fn buckets(&self, packet: &Packet) -> (Option<&Vec<u32>>, &Vec<u32>) {
        let port = packet.dst_port();
        match &packet.body {
            PacketBody::Tcp(_) => (port.and_then(|p| self.tcp_by_port.get(&p)), &self.tcp_any),
            PacketBody::Udp(_) => (port.and_then(|p| self.udp_by_port.get(&p)), &self.udp_any),
            PacketBody::Icmp(_) => (None, &self.icmp),
            PacketBody::Raw { .. } => (None, &self.raw),
        }
    }
}

/// A reusable epoch-stamped rule-index set: `insert` is O(1) with no
/// allocation in steady state, `begin` clears by bumping the epoch.
#[derive(Debug, Default)]
struct CandidateSet {
    epoch: u64,
    stamp: Vec<u64>,
    list: Vec<u32>,
}

impl CandidateSet {
    fn with_universe(n: usize) -> CandidateSet {
        CandidateSet {
            epoch: 0,
            stamp: vec![0; n],
            list: Vec::with_capacity(n.min(64)),
        }
    }

    fn begin(&mut self) {
        self.epoch += 1;
        self.list.clear();
    }

    #[inline]
    fn insert(&mut self, idx: u32) {
        let slot = &mut self.stamp[idx as usize];
        if *slot != self.epoch {
            *slot = self.epoch;
            self.list.push(idx);
        }
    }
}

/// A ruleset compiled for matching: the rules, the fast-pattern
/// prefilter DFA over them, per-pattern confirmation bytes, the
/// proto/port groups for patternless rules, and per-rule stream/pass
/// flags.
///
/// Immutable once built and `Send + Sync`: compile it once per ruleset
/// and share it by [`Arc`] across every engine that runs those rules
/// ([`DetectionEngine::from_compiled`]). Each engine keeps only its own
/// mutable matching state — reassembler, per-flow cursors, candidates,
/// thresholds, log and stats — so engines sharing one compiled ruleset
/// produce exactly the alerts independently built engines would.
#[derive(Debug)]
pub struct CompiledRuleset {
    rules: Vec<Rule>,
    /// Fast-pattern prefilter over every rule with a usable fast pattern —
    /// alert *and* pass; `patterns[i]` describes automaton pattern `i`.
    prefilter: PrefilterDfa,
    patterns: Vec<PatternMeta>,
    /// Rules with no usable fast pattern, culled by proto/port grouping.
    groups: RuleGroups,
    /// `rule.flow` non-empty (matches the reassembled stream).
    is_stream: Vec<bool>,
    /// `rule.action == Pass`.
    is_pass: Vec<bool>,
}

impl CompiledRuleset {
    /// Compile `rules`: build the prefilter over each rule's fast pattern
    /// and group the rules that have none.
    pub fn new(rules: Vec<Rule>) -> CompiledRuleset {
        let mut folded: Vec<Vec<u8>> = Vec::new();
        let mut patterns = Vec::new();
        let mut groups = RuleGroups::default();
        let mut is_stream = vec![false; rules.len()];
        let mut is_pass = vec![false; rules.len()];
        for (idx, rule) in rules.iter().enumerate() {
            is_stream[idx] = !rule.flow.is_empty();
            is_pass[idx] = rule.action == RuleAction::Pass;
            match rule.fast_pattern() {
                Some(c) => {
                    folded.push(c.pattern.to_ascii_lowercase());
                    patterns.push(PatternMeta {
                        rule: idx as u32,
                        exact: (!c.nocase).then(|| c.pattern.clone()),
                    });
                }
                None => groups.add(idx as u32, rule),
            }
        }
        CompiledRuleset {
            prefilter: PrefilterDfa::new(&folded),
            patterns,
            groups,
            is_stream,
            is_pass,
            rules,
        }
    }
}

/// A Snort-like detection engine over a fixed, shared [`CompiledRuleset`].
pub struct DetectionEngine {
    ruleset: Arc<CompiledRuleset>,
    reassembler: StreamReassembler,
    thresholds: FxHashMap<(u32, Ipv4Addr), ThresholdState>,
    /// Dense per-flow matcher and dedup state, indexed by
    /// [`FlowId::index`]; no per-packet key hash after flow setup.
    flow_states: Vec<FlowEngineState>,
    /// Slots in `flow_states` currently live (leak-test introspection).
    live_states: usize,
    /// Reused per-packet candidate shortlist (no per-packet allocation).
    candidates: CandidateSet,
    log: AlertLog,
    stats: EngineStats,
    /// Flight recorder for rule-match decisions; disabled by default.
    tracer: Tracer,
}

impl DetectionEngine {
    /// Compile an engine from a ruleset with default reassembly limits.
    pub fn new(rules: Vec<Rule>) -> DetectionEngine {
        Self::with_reassembly(rules, ReassemblyConfig::default())
    }

    /// Compile an engine with explicit reassembly limits (flow-table
    /// capacity and per-direction buffer/hold-back windows).
    pub fn with_reassembly(rules: Vec<Rule>, cfg: ReassemblyConfig) -> DetectionEngine {
        Self::from_compiled(Arc::new(CompiledRuleset::new(rules)), cfg)
    }

    /// An engine over an already compiled, shared ruleset with explicit
    /// reassembly limits: builds only the per-engine matching state.
    pub fn from_compiled(ruleset: Arc<CompiledRuleset>, cfg: ReassemblyConfig) -> DetectionEngine {
        let mut reassembler = StreamReassembler::with_config(cfg);
        reassembler.track_removals(true);
        DetectionEngine {
            candidates: CandidateSet::with_universe(ruleset.rules.len()),
            ruleset,
            reassembler,
            thresholds: FxHashMap::default(),
            flow_states: Vec::new(),
            live_states: 0,
            log: AlertLog::new(),
            stats: EngineStats::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// The live state slot for `id`, if one was created for exactly this
    /// flow (index *and* generation match). Over the bare table so
    /// callers can hold other field borrows.
    fn state_in(states: &[FlowEngineState], id: FlowId) -> Option<&FlowEngineState> {
        let st = states.get(id.index())?;
        (st.live && st.gen == id.generation()).then_some(st)
    }

    /// The state slot for `id`, creating or recycling it in place. Takes
    /// the fields rather than `&mut self` so callers can hold disjoint
    /// borrows (e.g. a stream view from the reassembler).
    fn ensure_state<'a>(
        states: &'a mut Vec<FlowEngineState>,
        live_states: &mut usize,
        id: FlowId,
    ) -> &'a mut FlowEngineState {
        let idx = id.index();
        if idx >= states.len() {
            states.resize_with(idx + 1, FlowEngineState::default);
        }
        let st = &mut states[idx];
        if !st.live || st.gen != id.generation() {
            // A live slot under a different generation means the arena
            // recycled the index before this packet's removal log was
            // drained (evict-and-create in one insert): the old flow's
            // liveness transfers to the new one, net zero.
            if !st.live {
                *live_states += 1;
            }
            st.gen = id.generation();
            st.live = true;
            st.clear();
        }
        st
    }

    /// Disable RST-teardown in the reassembler (ablation knob).
    pub fn set_rst_teardown(&mut self, on: bool) {
        self.reassembler.rst_teardown = on;
    }

    /// Attach a flight-recorder handle; rule matches record under the
    /// `engine` stage and the reassembler's decisions under `stream`.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.reassembler.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// The alert log.
    pub fn log(&self) -> &AlertLog {
        &self.log
    }

    /// Engine statistics.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Reassembler statistics.
    pub fn reassembly_stats(&self) -> crate::stream::ReassemblyStats {
        self.reassembler.stats()
    }

    /// Flows currently tracked by the reassembler's arena table.
    pub fn live_flows(&self) -> usize {
        self.reassembler.flow_count()
    }

    /// Number of per-flow matcher states currently live (introspection
    /// for leak tests; bounded by live flows).
    pub fn flow_state_count(&self) -> usize {
        self.live_states
    }

    /// Total stream rules currently pending across live flow directions
    /// (introspection: bounded growth is the point of seen-retirement).
    pub fn pending_stream_rules(&self) -> usize {
        self.flow_states
            .iter()
            .filter(|s| s.live)
            .map(|s| s.c2s.seen.len() + s.s2c.seen.len())
            .sum()
    }

    /// Approximate bytes held by per-flow engine state and the flow
    /// table (memory-budget introspection for population-scale runs).
    pub fn flow_memory_bytes(&self) -> usize {
        let side = self.flow_states.capacity() * std::mem::size_of::<FlowEngineState>()
            + self
                .flow_states
                .iter()
                .map(|s| {
                    (s.c2s.seen.capacity() + s.s2c.seen.capacity() + s.alerted.capacity())
                        * std::mem::size_of::<u32>()
                })
                .sum::<usize>();
        side + self.reassembler.table_bytes()
    }

    /// The compiled rules.
    pub fn rules(&self) -> &[Rule] {
        &self.ruleset.rules
    }

    /// Mirror engine, reassembler and flow-state totals into `tel` under
    /// `<prefix>.…` names. Idempotent (absolute totals), so it can be
    /// called at any point; `prefix` distinguishes multiple engines (e.g.
    /// `ids` for a monitor, `surveil.engine` for the MVR's).
    pub fn export_telemetry(&self, tel: &underradar_telemetry::Telemetry, prefix: &str) {
        if !tel.is_enabled() {
            return;
        }
        let s = self.stats;
        tel.set_counter(&format!("{prefix}.packets"), s.packets);
        tel.set_counter(&format!("{prefix}.evaluations"), s.evaluations);
        tel.set_counter(&format!("{prefix}.alerts"), s.alerts);
        tel.set_counter(&format!("{prefix}.passed"), s.passed);
        tel.set_counter(&format!("{prefix}.pass_evaluations"), s.pass_evaluations);
        tel.set_counter(&format!("{prefix}.ac_bytes_scanned"), s.ac_bytes_scanned);
        tel.set_gauge(
            &format!("{prefix}.prefilter.patterns"),
            self.ruleset.prefilter.pattern_count() as i64,
        );
        tel.set_gauge(
            &format!("{prefix}.prefilter.states"),
            self.ruleset.prefilter.state_count() as i64,
        );
        let r = self.reassembler.stats();
        tel.set_counter(&format!("{prefix}.flows.created"), r.flows_created);
        tel.set_counter(&format!("{prefix}.flows.evicted"), r.evicted);
        tel.set_counter(&format!("{prefix}.flows.rst_teardowns"), r.rst_teardowns);
        tel.set_counter(&format!("{prefix}.flows.fin_teardowns"), r.fin_teardowns);
        tel.set_counter(&format!("{prefix}.flows.removals"), r.removals);
        tel.set_counter(&format!("{prefix}.segments"), r.segments);
        tel.set_counter(&format!("{prefix}.bytes_appended"), r.bytes_appended);
        tel.set_counter(&format!("{prefix}.bytes_copied"), r.bytes_copied());
        tel.set_counter(&format!("{prefix}.reassembly.ooo_held"), r.ooo_held);
        tel.set_counter(&format!("{prefix}.reassembly.ooo_dropped"), r.ooo_dropped);
        tel.set_counter(
            &format!("{prefix}.reassembly.overlap_trimmed"),
            r.overlap_trimmed,
        );
        tel.set_counter(&format!("{prefix}.reassembly.dup_ignored"), r.dup_ignored);
        tel.set_gauge(
            &format!("{prefix}.flows.live"),
            self.reassembler.flow_count() as i64,
        );
        tel.set_gauge(
            &format!("{prefix}.flow_match_states"),
            self.live_states as i64,
        );
        tel.set_gauge(
            &format!("{prefix}.flows.capacity"),
            self.reassembler.flow_capacity().min(i64::MAX as usize) as i64,
        );
        tel.set_gauge(
            &format!("{prefix}.flows.table_bytes"),
            self.flow_memory_bytes() as i64,
        );
    }

    /// Process one packet; returns the alerts it raised (also appended to
    /// the log).
    pub fn process(&mut self, now: SimTime, packet: &Packet) -> Vec<Alert> {
        let mut fired = Vec::new();
        self.process_into(now, packet, &mut fired);
        fired
    }

    /// Process a same-instant packet run, appending every alert to `out`.
    ///
    /// Verdict-identical to calling [`DetectionEngine::process`] per
    /// packet — same alerts, stats, telemetry, traces — but the per-call
    /// output allocation is amortized into one caller-owned buffer. This
    /// is the engine half of the scale path: the netsim side coalesces
    /// same-instant deliveries ([`Node::receive_batch`]) and hands the
    /// whole run here in one dispatch.
    ///
    /// [`Node::receive_batch`]: underradar_netsim::node::Node::receive_batch
    pub fn process_batch(&mut self, now: SimTime, packets: &[Packet], out: &mut Vec<Alert>) {
        for packet in packets {
            self.process_into(now, packet, out);
        }
    }

    fn process_into(&mut self, now: SimTime, packet: &Packet, out: &mut Vec<Alert>) {
        self.stats.packets += 1;
        if self.tracer.is_live() {
            self.reassembler.set_now(now.as_nanos());
        }
        let flow_ctx = self.reassembler.process(packet);

        // Feed newly appended stream bytes to the flow's persistent
        // prefilter cursor, then drop state for flows this packet tore down
        // (RST / completed close / eviction).
        let payload = packet.body.payload();
        if let Some(ctx) = &flow_ctx {
            if ctx.appended {
                let id = ctx.id.expect("appended bytes imply a live flow");
                // Feed the newly reassembled tail, not the raw segment:
                // with hold-back and overlap trimming the appended bytes
                // can differ from this segment's payload in both content
                // and length.
                let view = self.reassembler.stream_of_id(id, ctx.direction);
                let tail = &view[view.len() - ctx.new_bytes.min(view.len())..];
                self.stats.ac_bytes_scanned += tail.len() as u64;
                let base = view.len() - tail.len();
                let st = Self::ensure_state(&mut self.flow_states, &mut self.live_states, id);
                let FlowEngineState {
                    c2s, s2c, alerted, ..
                } = st;
                let StreamMatchState { cursor, seen } = match ctx.direction {
                    Direction::ToServer => c2s,
                    Direction::ToClient => s2c,
                };
                let alerted: &Vec<u32> = alerted;
                let CompiledRuleset {
                    rules,
                    prefilter,
                    patterns,
                    is_stream,
                    is_pass,
                    ..
                } = &*self.ruleset;
                prefilter.feed(cursor, tail, |pat, end| {
                    let m = &patterns[pat];
                    let idx = m.rule as usize;
                    if !is_stream[idx] {
                        return;
                    }
                    // Case-sensitive patterns: confirm the exact bytes in
                    // the window (the DFA matched case-folded). If the
                    // window no longer reaches back to the match start
                    // (front-trimmed), admit it — over-admission only adds
                    // a candidate that full verification rejects.
                    if let Some(exact) = &m.exact {
                        let end_abs = base + end;
                        if let Some(start) = end_abs.checked_sub(exact.len()) {
                            if &view[start..end_abs] != exact.as_slice() {
                                return;
                            }
                        }
                    }
                    // Already-alerted rules can never fire again on this
                    // flow; keep them out of `seen` so they stop costing
                    // anything per segment.
                    if !is_pass[idx] && alerted.contains(&rules[idx].sid) {
                        return;
                    }
                    if let Err(pos) = seen.binary_search(&m.rule) {
                        seen.insert(pos, m.rule);
                    }
                });
            }
        }
        for (_key, id) in self.reassembler.take_removed() {
            if let Some(st) = self.flow_states.get_mut(id.index()) {
                if st.live && st.gen == id.generation() {
                    st.live = false;
                    st.clear();
                    self.live_states -= 1;
                }
            }
        }

        // The reassembled window for this segment's direction — borrowed,
        // never cloned. A torn-down flow's handle is stale by now, so the
        // arena's generation check yields the empty window, matching the
        // removed-flow behavior of the old key lookup.
        let stream: &[u8] = match &flow_ctx {
            Some(ctx) => match ctx.id {
                Some(id) => self.reassembler.stream_of_id(id, ctx.direction),
                None => &[],
            },
            None => &[],
        };

        // Candidate shortlist: prefilter over this packet's payload, stream
        // rules whose fast pattern has appeared in the flow (incremental),
        // and the proto/port groups for patternless rules. Sorted so rules
        // evaluate in rule order — alert output is order-deterministic.
        self.stats.ac_bytes_scanned += payload.len() as u64;
        self.candidates.begin();
        {
            let ruleset = &*self.ruleset;
            let patterns = &ruleset.patterns;
            let cand = &mut self.candidates;
            ruleset.prefilter.scan(payload, |pat, end| {
                let m = &patterns[pat];
                if let Some(exact) = &m.exact {
                    let start = end - exact.len();
                    if &payload[start..end] != exact.as_slice() {
                        return;
                    }
                }
                cand.insert(m.rule);
            });
            if let Some(ctx) = &flow_ctx {
                if let Some(st) = ctx.id.and_then(|id| Self::state_in(&self.flow_states, id)) {
                    for &idx in &st.dir(ctx.direction).seen {
                        cand.insert(idx);
                    }
                }
            }
            let (ported, generic) = ruleset.groups.buckets(packet);
            if let Some(bucket) = ported {
                for &idx in bucket {
                    cand.insert(idx);
                }
            }
            for &idx in generic {
                cand.insert(idx);
            }
        }
        self.candidates.list.sort_unstable();

        // Pass rules win over everything.
        let ruleset = &*self.ruleset;
        for i in 0..self.candidates.list.len() {
            let idx = self.candidates.list[i] as usize;
            if !ruleset.is_pass[idx] {
                continue;
            }
            self.stats.pass_evaluations += 1;
            let rule = &ruleset.rules[idx];
            if Self::rule_matches(rule, packet, flow_ctx.as_ref(), stream) {
                self.stats.passed += 1;
                return;
            }
        }

        for i in 0..self.candidates.list.len() {
            let idx = self.candidates.list[i] as usize;
            if ruleset.is_pass[idx] {
                continue;
            }
            let rule = &ruleset.rules[idx];
            // Per-flow dedup for stream-matched rules, checked *before*
            // evaluation: an already-alerted flow must not pay a full
            // stream scan per segment.
            if ruleset.is_stream[idx] {
                if let Some(ctx) = &flow_ctx {
                    if let Some(st) = ctx.id.and_then(|id| Self::state_in(&self.flow_states, id)) {
                        if st.alerted.contains(&rule.sid) {
                            continue;
                        }
                    }
                }
            }
            self.stats.evaluations += 1;
            if !Self::rule_matches(rule, packet, flow_ctx.as_ref(), stream) {
                continue;
            }
            if ruleset.is_stream[idx] {
                // Record dedup state only for flows that are still live:
                // a rule firing on the teardown segment itself has no flow
                // left to dedup against (the next flow on the 4-tuple gets
                // a fresh generation regardless).
                if let Some(ctx) = &flow_ctx {
                    if !ctx.torn_down {
                        if let Some(id) = ctx.id {
                            let st = Self::ensure_state(
                                &mut self.flow_states,
                                &mut self.live_states,
                                id,
                            );
                            st.alerted.push(rule.sid);
                            // Retire the rule from both directions' pending
                            // lists: it can never fire again on this flow.
                            for s in [&mut st.c2s, &mut st.s2c] {
                                if let Ok(pos) = s.seen.binary_search(&(idx as u32)) {
                                    s.seen.remove(pos);
                                }
                            }
                        }
                    }
                }
            }
            // Threshold suppression.
            if let Some(t) = rule.threshold {
                let track = if t.track_by_src {
                    packet.src
                } else {
                    packet.dst
                };
                let state = self
                    .thresholds
                    .entry((rule.sid, track))
                    .or_insert(ThresholdState {
                        window_start: now,
                        count: 0,
                        alerted_in_window: 0,
                    });
                if now.saturating_since(state.window_start)
                    > SimDuration::from_secs(u64::from(t.seconds))
                {
                    state.window_start = now;
                    state.count = 0;
                    state.alerted_in_window = 0;
                }
                state.count += 1;
                let fire = match t.kind {
                    ThresholdKind::Limit => state.count <= t.count,
                    ThresholdKind::Threshold => t.count > 0 && state.count.is_multiple_of(t.count),
                    ThresholdKind::Both => state.count == t.count,
                };
                if !fire {
                    continue;
                }
                state.alerted_in_window += 1;
            }
            let rule = &ruleset.rules[idx];
            let alert = Alert {
                time: now,
                sid: rule.sid,
                msg: rule.msg.clone(),
                action: rule.action,
                src: packet.src,
                src_port: packet.src_port(),
                dst: packet.dst,
                dst_port: packet.dst_port(),
                classtype: rule.classtype.clone(),
            };
            self.stats.alerts += 1;
            if self.tracer.is_live() {
                // Byte offset of the matched fast pattern — within the
                // buffered stream window for stream rules, the packet
                // payload otherwise (the search is paid only while
                // tracing). Case sensitivity follows the content's
                // `nocase` modifier.
                let offset = rule
                    .fast_pattern()
                    .and_then(|c| {
                        let hay: &[u8] = if rule.flow.is_empty() {
                            payload
                        } else {
                            stream
                        };
                        crate::rule::find_sub(hay, &c.pattern, c.nocase, 0)
                    })
                    .unwrap_or(0) as u64;
                self.tracer.record(TraceRecord {
                    t_ns: now.as_nanos(),
                    seq: 0,
                    stage: "engine",
                    kind: "rule_match",
                    flow: Some(packet.trace_flow()),
                    fields: vec![
                        ("sid", u64::from(rule.sid).into()),
                        ("offset", offset.into()),
                        ("msg", rule.msg.clone().into()),
                    ],
                });
            }
            self.log.push(alert.clone());
            out.push(alert);
        }
    }

    fn rule_matches(
        rule: &Rule,
        packet: &Packet,
        flow: Option<&FlowContext>,
        stream: &[u8],
    ) -> bool {
        if !rule.header_matches(packet) || !rule.flags_match(packet) {
            return false;
        }
        // Flow constraints.
        if !rule.flow.is_empty() {
            let Some(ctx) = flow else { return false };
            for f in &rule.flow {
                let ok = match f {
                    FlowOption::Established => ctx.established,
                    FlowOption::ToServer => ctx.direction == Direction::ToServer,
                    FlowOption::ToClient => ctx.direction == Direction::ToClient,
                };
                if !ok {
                    return false;
                }
            }
            // Stream-qualified rules match the reassembled stream.
            return rule.payload_matches(stream);
        }
        rule.payload_matches(packet.body.payload())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_ruleset, VarTable};
    use underradar_netsim::wire::tcp::TcpFlags;

    const C: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 2);
    const S: Ipv4Addr = Ipv4Addr::new(93, 184, 216, 34);

    fn engine(rules_text: &str) -> DetectionEngine {
        let rules = parse_ruleset(rules_text, &VarTable::new()).expect("rules parse");
        DetectionEngine::new(rules)
    }

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    /// Three-way handshake on `C:4000 -> S:80`; returns the next seq.
    fn handshake(e: &mut DetectionEngine) -> u32 {
        let syn = Packet::tcp(C, S, 4000, 80, 100, 0, TcpFlags::syn(), vec![]);
        let syn_ack = Packet::tcp(S, C, 80, 4000, 500, 101, TcpFlags::syn_ack(), vec![]);
        let ack = Packet::tcp(C, S, 4000, 80, 101, 501, TcpFlags::ack(), vec![]);
        assert!(e.process(t(0), &syn).is_empty());
        assert!(e.process(t(0), &syn_ack).is_empty());
        assert!(e.process(t(0), &ack).is_empty());
        101
    }

    #[test]
    fn keyword_rule_fires_on_packet_payload() {
        let mut e =
            engine(r#"alert tcp any any -> any 80 (msg:"kw"; content:"falun"; nocase; sid:1;)"#);
        let pkt = Packet::tcp(
            C,
            S,
            4000,
            80,
            0,
            0,
            TcpFlags::psh_ack(),
            b"GET /FALUN".to_vec(),
        );
        let alerts = e.process(t(0), &pkt);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].sid, 1);
        let miss = Packet::tcp(
            C,
            S,
            4000,
            80,
            0,
            0,
            TcpFlags::psh_ack(),
            b"GET /news".to_vec(),
        );
        assert!(e.process(t(0), &miss).is_empty());
    }

    #[test]
    fn case_sensitive_prefilter_hit_requires_exact_bytes() {
        // The DFA matches case-folded; the engine must confirm exact bytes
        // for case-sensitive patterns before evaluating the rule at all.
        let mut e = engine(r#"alert tcp any any -> any 80 (msg:"cs"; content:"Falun"; sid:2;)"#);
        let wrong = Packet::tcp(C, S, 1, 80, 0, 0, TcpFlags::psh_ack(), b"FALUN".to_vec());
        assert!(e.process(t(0), &wrong).is_empty());
        assert_eq!(
            e.stats().evaluations,
            0,
            "folded-only occurrence never becomes a candidate"
        );
        let right = Packet::tcp(C, S, 1, 80, 0, 0, TcpFlags::psh_ack(), b"Falun".to_vec());
        assert_eq!(e.process(t(0), &right).len(), 1);
    }

    #[test]
    fn stream_rule_catches_split_keyword() {
        let mut e = engine(
            r#"alert tcp any any -> any 80 (msg:"kw-stream"; flow:established,to_server; content:"falun"; sid:2;)"#,
        );
        handshake(&mut e);
        // Keyword split across two segments: per-segment matching cannot
        // see it, stream matching can.
        let d1 = Packet::tcp(
            C,
            S,
            4000,
            80,
            101,
            501,
            TcpFlags::psh_ack(),
            b"GET /fal".to_vec(),
        );
        let d2 = Packet::tcp(
            C,
            S,
            4000,
            80,
            109,
            501,
            TcpFlags::psh_ack(),
            b"un HTTP".to_vec(),
        );
        assert!(e.process(t(0), &d1).is_empty());
        let alerts = e.process(t(0), &d2);
        assert_eq!(alerts.len(), 1, "reassembled match");
        // Dedup: more segments on the same flow do not re-fire.
        let d3 = Packet::tcp(
            C,
            S,
            4000,
            80,
            116,
            501,
            TcpFlags::psh_ack(),
            b" again falun".to_vec(),
        );
        assert!(e.process(t(0), &d3).is_empty());
    }

    #[test]
    fn dedup_skips_evaluation_after_first_alert() {
        // The quadratic-flow regression test: after a stream rule alerts,
        // later segments must not re-evaluate it — no per-segment scan of
        // the growing window, even when the keyword keeps appearing.
        let mut e = engine(
            r#"alert tcp any any -> any 80 (msg:"kw-stream"; flow:established,to_server; content:"falun"; sid:70;)"#,
        );
        let mut seq = handshake(&mut e);
        let hit = b"falun ".to_vec();
        let first = Packet::tcp(C, S, 4000, 80, seq, 501, TcpFlags::psh_ack(), hit.clone());
        seq += hit.len() as u32;
        assert_eq!(e.process(t(0), &first).len(), 1);
        let after_alert = e.stats().evaluations;
        assert_eq!(
            e.pending_stream_rules(),
            0,
            "alerted rule retired from the pending list"
        );
        for _ in 0..1000 {
            let d = Packet::tcp(C, S, 4000, 80, seq, 501, TcpFlags::psh_ack(), hit.clone());
            seq += hit.len() as u32;
            assert!(e.process(t(0), &d).is_empty());
        }
        assert_eq!(
            e.stats().evaluations,
            after_alert,
            "evaluations flat across 1000 post-alert segments"
        );
    }

    #[test]
    fn established_required_rule_ignores_bare_segments() {
        let mut e = engine(
            r#"alert tcp any any -> any 80 (msg:"est"; flow:established; content:"x"; sid:3;)"#,
        );
        // Data with no observed handshake: flow exists but not established.
        let d = Packet::tcp(C, S, 4000, 80, 5, 0, TcpFlags::psh_ack(), b"xxx".to_vec());
        assert!(e.process(t(0), &d).is_empty());
    }

    #[test]
    fn pass_rule_suppresses_alerts() {
        let mut e = engine(
            "pass tcp 10.0.1.2 any -> any any (msg:\"trusted\"; sid:10;)\n\
             alert tcp any any -> any 80 (msg:\"kw\"; content:\"falun\"; sid:11;)",
        );
        let pkt = Packet::tcp(C, S, 4000, 80, 0, 0, TcpFlags::psh_ack(), b"falun".to_vec());
        assert!(e.process(t(0), &pkt).is_empty());
        assert_eq!(e.stats().passed, 1);
        let other = Packet::tcp(
            Ipv4Addr::new(10, 0, 1, 3),
            S,
            4000,
            80,
            0,
            0,
            TcpFlags::psh_ack(),
            b"falun".to_vec(),
        );
        assert_eq!(e.process(t(0), &other).len(), 1);
    }

    #[test]
    fn pass_rules_with_content_are_prefiltered() {
        // 50 pass rules with distinct content predicates must cost nothing
        // on innocuous traffic: their patterns ride the same prefilter scan
        // (ac_bytes_scanned is rule-count-independent) and none is
        // evaluated unless its pattern appears.
        let mut text = String::new();
        for i in 0..50 {
            text.push_str(&format!(
                "pass tcp any any -> any any (msg:\"ok{i}\"; content:\"allowlisted-{i}-end\"; sid:{};)\n",
                200 + i
            ));
        }
        text.push_str("alert tcp any any -> any 80 (msg:\"kw\"; content:\"falun\"; sid:300;)\n");
        let mut e = engine(&text);
        let innocuous = Packet::tcp(C, S, 1, 80, 0, 0, TcpFlags::psh_ack(), b"plain".to_vec());
        for _ in 0..10 {
            assert!(e.process(t(0), &innocuous).is_empty());
        }
        assert_eq!(
            e.stats().pass_evaluations,
            0,
            "no pass rule evaluated without its pattern appearing"
        );
        // 10 per-packet payload scans plus one stream feed (only the first
        // segment appends; the rest are duplicates): rule-count-free.
        assert_eq!(
            e.stats().ac_bytes_scanned,
            11 * b"plain".len() as u64,
            "prefilter cost is payload bytes, independent of rule count"
        );
        // A matching pass pattern still suppresses.
        let allow = Packet::tcp(
            C,
            S,
            1,
            80,
            0,
            0,
            TcpFlags::psh_ack(),
            b"falun allowlisted-7-end".to_vec(),
        );
        assert!(e.process(t(0), &allow).is_empty());
        assert_eq!(e.stats().passed, 1);
        assert_eq!(e.stats().pass_evaluations, 1);
    }

    #[test]
    fn patternless_rules_grouped_by_port() {
        let mut e = engine(
            "alert tcp any any -> any 80 (msg:\"http\"; sid:80;)\n\
             alert tcp any any -> any 443 (msg:\"tls\"; sid:81;)",
        );
        let to81 = Packet::tcp(C, S, 1, 81, 0, 0, TcpFlags::psh_ack(), b"x".to_vec());
        assert!(e.process(t(0), &to81).is_empty());
        assert_eq!(
            e.stats().evaluations,
            0,
            "wrong-port packet pulls no bucket"
        );
        let to80 = Packet::tcp(C, S, 1, 80, 0, 0, TcpFlags::psh_ack(), b"x".to_vec());
        assert_eq!(e.process(t(0), &to80)[0].sid, 80);
        assert_eq!(e.stats().evaluations, 1, "only the port-80 bucket ran");
    }

    #[test]
    fn port_constrained_rule_cannot_match_portless_packet() {
        // An icmp rule with a literal port predicate can never match (ICMP
        // has no ports); the groups cull it before evaluation.
        let mut e = engine(r#"alert icmp any any -> any 80 (msg:"impossible"; sid:82;)"#);
        let ping = Packet::icmp(
            C,
            S,
            underradar_netsim::wire::icmp::IcmpKind::EchoRequest { ident: 1, seq: 1 },
            vec![],
        );
        assert!(e.process(t(0), &ping).is_empty());
        assert_eq!(e.stats().evaluations, 0);
    }

    #[test]
    fn syn_scan_threshold_fires_at_count() {
        let mut e = engine(
            r#"alert tcp any any -> any any (msg:"scan"; flags:S; threshold: type both, track by_src, count 5, seconds 60; sid:20;)"#,
        );
        let mut total = 0;
        for port in 0..10u16 {
            let syn = Packet::tcp(C, S, 40000 + port, 80 + port, 0, 0, TcpFlags::syn(), vec![]);
            total += e.process(t(0), &syn).len();
        }
        assert_eq!(total, 1, "'both' fires exactly once per window");
        // New window after expiry: fires again at the 5th SYN.
        let mut again = 0;
        for port in 0..5u16 {
            let syn = Packet::tcp(C, S, 41000 + port, 80 + port, 0, 0, TcpFlags::syn(), vec![]);
            again += e.process(t(120), &syn).len();
        }
        assert_eq!(again, 1);
    }

    #[test]
    fn threshold_limit_allows_first_n() {
        let mut e = engine(
            r#"alert icmp any any -> any any (msg:"ping"; threshold: type limit, track by_src, count 2, seconds 60; sid:21;)"#,
        );
        let ping = Packet::icmp(
            C,
            S,
            underradar_netsim::wire::icmp::IcmpKind::EchoRequest { ident: 1, seq: 1 },
            vec![],
        );
        let mut fired = 0;
        for _ in 0..6 {
            fired += e.process(t(1), &ping).len();
        }
        assert_eq!(fired, 2);
    }

    #[test]
    fn thresholds_track_sources_independently() {
        let mut e = engine(
            r#"alert tcp any any -> any any (msg:"scan"; flags:S; threshold: type both, track by_src, count 3, seconds 60; sid:22;)"#,
        );
        let c2 = Ipv4Addr::new(10, 0, 1, 99);
        let mut fired_c = 0;
        let mut fired_c2 = 0;
        for i in 0..3u16 {
            let p1 = Packet::tcp(C, S, 40000 + i, 80, 0, 0, TcpFlags::syn(), vec![]);
            let p2 = Packet::tcp(c2, S, 40000 + i, 80, 0, 0, TcpFlags::syn(), vec![]);
            fired_c += e.process(t(0), &p1).len();
            fired_c2 += e.process(t(0), &p2).len();
        }
        assert_eq!(
            (fired_c, fired_c2),
            (1, 1),
            "each source hits its own threshold"
        );
    }

    #[test]
    fn rst_injection_rule_and_teardown_interplay() {
        // A rule watching for server RSTs (how a measurement client's
        // reference censor is validated) fires on the injected RST.
        let mut e =
            engine(r#"alert tcp any 80 -> any any (msg:"rst from server"; flags:R+; sid:30;)"#);
        let rst = Packet::tcp(S, C, 80, 4000, 1, 1, TcpFlags::rst_ack(), vec![]);
        assert_eq!(e.process(t(0), &rst).len(), 1);
    }

    #[test]
    fn prefilter_only_evaluates_plausible_rules() {
        let mut rules_text = String::new();
        for i in 0..50 {
            // "-end" suffix keeps patterns from being prefixes of each other
            // (kw-3 would otherwise also match inside kw-33).
            rules_text.push_str(&format!(
                "alert tcp any any -> any any (msg:\"kw{i}\"; content:\"unique-keyword-{i}-end\"; sid:{};)\n",
                100 + i
            ));
        }
        let mut e = engine(&rules_text);
        let pkt = Packet::tcp(
            C,
            S,
            1,
            2,
            0,
            0,
            TcpFlags::psh_ack(),
            b"unique-keyword-33-end present".to_vec(),
        );
        let alerts = e.process(t(0), &pkt);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].sid, 133);
        // Only the matching rule was fully evaluated.
        assert_eq!(e.stats().evaluations, 1);
    }

    #[test]
    fn udp_and_icmp_rules() {
        let mut e = engine(
            "alert udp any any -> any 53 (msg:\"dns q\"; sid:40;)\n\
             alert icmp any any -> any any (msg:\"icmp\"; sid:41;)",
        );
        let dns = Packet::udp(C, S, 5353, 53, b"query".to_vec());
        let ping = Packet::icmp(
            C,
            S,
            underradar_netsim::wire::icmp::IcmpKind::TimeExceeded,
            vec![],
        );
        assert_eq!(e.process(t(0), &dns)[0].sid, 40);
        assert_eq!(e.process(t(0), &ping)[0].sid, 41);
        assert_eq!(e.log().len(), 2);
    }

    #[test]
    fn ip_rule_matches_raw_protocol_packet() {
        let mut e = engine(r#"alert ip any any -> any any (msg:"any ip"; sid:42;)"#);
        let raw = Packet {
            src: C,
            dst: S,
            ttl: 64,
            ident: 7,
            body: PacketBody::Raw {
                protocol: 99,
                payload: b"p2p-chunk".to_vec(),
            },
        };
        assert_eq!(e.process(t(0), &raw)[0].sid, 42);
    }

    #[test]
    fn negated_content_rule() {
        let mut e = engine(
            r#"alert tcp any any -> any 80 (msg:"no host header"; content:"GET "; content:!"Host:"; sid:50;)"#,
        );
        let without = Packet::tcp(
            C,
            S,
            1,
            80,
            0,
            0,
            TcpFlags::psh_ack(),
            b"GET / HTTP/1.0\r\n\r\n".to_vec(),
        );
        let with = Packet::tcp(
            C,
            S,
            1,
            80,
            0,
            0,
            TcpFlags::psh_ack(),
            b"GET / HTTP/1.0\r\nHost: x\r\n\r\n".to_vec(),
        );
        assert_eq!(e.process(t(0), &without).len(), 1);
        assert!(e.process(t(0), &with).is_empty());
    }

    #[test]
    fn teardown_releases_per_flow_matcher_state() {
        let mut e = engine(
            r#"alert tcp any any -> any 80 (msg:"kw-stream"; flow:established,to_server; content:"falun"; sid:60;)"#,
        );
        handshake(&mut e);
        let d = Packet::tcp(
            C,
            S,
            4000,
            80,
            101,
            501,
            TcpFlags::psh_ack(),
            b"falun".to_vec(),
        );
        assert_eq!(e.process(t(0), &d).len(), 1);
        assert!(
            e.flow_state_count() > 0,
            "matcher state held while flow lives"
        );
        let rst = Packet::tcp(C, S, 4000, 80, 106, 501, TcpFlags::rst(), vec![]);
        let _ = e.process(t(0), &rst);
        assert_eq!(
            e.flow_state_count(),
            0,
            "matcher state dropped with the flow"
        );
        // A new flow on the same 4-tuple is clean: the keyword fires again
        // rather than being suppressed by stale dedup state.
        let syn2 = Packet::tcp(C, S, 4000, 80, 700, 0, TcpFlags::syn(), vec![]);
        let syn_ack2 = Packet::tcp(S, C, 80, 4000, 900, 701, TcpFlags::syn_ack(), vec![]);
        let ack2 = Packet::tcp(C, S, 4000, 80, 701, 901, TcpFlags::ack(), vec![]);
        let _ = e.process(t(1), &syn2);
        let _ = e.process(t(1), &syn_ack2);
        let _ = e.process(t(1), &ack2);
        let d2 = Packet::tcp(
            C,
            S,
            4000,
            80,
            701,
            901,
            TcpFlags::psh_ack(),
            b"falun".to_vec(),
        );
        assert_eq!(e.process(t(1), &d2).len(), 1, "fresh flow, fresh dedup");
    }

    #[test]
    fn stream_keyword_straddling_many_segments() {
        // One byte per segment: only the incremental cursor can see this
        // without rescanning the window each time.
        let mut e = engine(
            r#"alert tcp any any -> any 80 (msg:"kw-stream"; flow:established,to_server; content:"falun"; sid:61;)"#,
        );
        let mut seq = handshake(&mut e);
        let mut fired = 0;
        for b in b"xfalunx" {
            let d = Packet::tcp(C, S, 4000, 80, seq, 501, TcpFlags::psh_ack(), vec![*b]);
            fired += e.process(t(0), &d).len();
            seq = seq.wrapping_add(1);
        }
        assert_eq!(fired, 1);
    }

    #[test]
    fn stream_rule_catches_keyword_delivered_out_of_order() {
        // The keyword's halves arrive reordered; the hold-back queue
        // reassembles them and the cursor sees the spliced tail — no
        // segment carries "falun" on its own.
        let mut e = engine(
            r#"alert tcp any any -> any 80 (msg:"kw-stream"; flow:established,to_server; content:"falun"; sid:62;)"#,
        );
        handshake(&mut e);
        let late = Packet::tcp(
            C,
            S,
            4000,
            80,
            107,
            501,
            TcpFlags::psh_ack(),
            b"lun HTTP".to_vec(),
        );
        assert!(e.process(t(0), &late).is_empty(), "held: gap before it");
        let first = Packet::tcp(
            C,
            S,
            4000,
            80,
            101,
            501,
            TcpFlags::psh_ack(),
            b"GET fa".to_vec(),
        );
        let alerts = e.process(t(0), &first);
        assert_eq!(alerts.len(), 1, "keyword found across reordered segments");
        assert_eq!(alerts[0].sid, 62);
        assert_eq!(e.reassembly_stats().ooo_held, 1);
    }

    #[test]
    fn trace_offset_respects_case_sensitivity() {
        // A case-sensitive rule whose pattern also appears earlier in the
        // wrong case: the recorded offset must point at the exact-case
        // occurrence (the old search used eq_ignore_ascii_case always).
        let mut e = engine(
            r#"alert tcp any any -> any 80 (msg:"cs-stream"; flow:established,to_server; content:"Falun"; sid:90;)"#,
        );
        let tracer = Tracer::with_capacity(16);
        e.set_tracer(tracer.clone());
        handshake(&mut e);
        let d = Packet::tcp(
            C,
            S,
            4000,
            80,
            101,
            501,
            TcpFlags::psh_ack(),
            b"FALUN -- Falun".to_vec(),
        );
        assert_eq!(e.process(t(0), &d).len(), 1);
        let rec = tracer
            .records()
            .into_iter()
            .find(|r| r.kind == "rule_match")
            .expect("rule_match traced");
        assert_eq!(
            rec.field_u64("offset"),
            Some(9),
            "offset names the exact-case occurrence, not the folded one"
        );
    }

    #[test]
    fn batch_processing_matches_per_packet_verdicts() {
        // process_batch must be verdict- and stats-identical to a
        // per-packet loop over the same traffic: same alerts in the same
        // order, same counters, same flow-state footprint.
        let rules = r#"alert tcp any any -> any 80 (msg:"kw-stream"; flow:established,to_server; content:"falun"; sid:500;)
alert tcp any any -> any 80 (msg:"kw-pkt"; content:"tulip"; nocase; sid:501;)
pass tcp 10.0.9.9 any -> any any (msg:"trusted"; sid:502;)"#;
        let mut per_packet = engine(rules);
        let mut batched = engine(rules);
        let trusted = Ipv4Addr::new(10, 0, 9, 9);
        let mut packets = vec![
            Packet::tcp(C, S, 4000, 80, 100, 0, TcpFlags::syn(), vec![]),
            Packet::tcp(S, C, 80, 4000, 500, 101, TcpFlags::syn_ack(), vec![]),
            Packet::tcp(C, S, 4000, 80, 101, 501, TcpFlags::ack(), vec![]),
            Packet::tcp(
                C,
                S,
                4000,
                80,
                101,
                501,
                TcpFlags::psh_ack(),
                b"fal".to_vec(),
            ),
            Packet::tcp(
                C,
                S,
                4000,
                80,
                104,
                501,
                TcpFlags::psh_ack(),
                b"un!".to_vec(),
            ),
            Packet::tcp(C, S, 4001, 80, 0, 0, TcpFlags::psh_ack(), b"TULIP".to_vec()),
            Packet::tcp(
                trusted,
                S,
                1,
                80,
                0,
                0,
                TcpFlags::psh_ack(),
                b"tulip".to_vec(),
            ),
            Packet::tcp(C, S, 4000, 80, 107, 501, TcpFlags::rst(), vec![]),
        ];
        // Also exercise slot recycling inside one batch: a fresh flow on
        // the recycled 4-tuple re-fires the stream rule.
        packets.extend([
            Packet::tcp(C, S, 4000, 80, 900, 0, TcpFlags::syn(), vec![]),
            Packet::tcp(S, C, 80, 4000, 300, 901, TcpFlags::syn_ack(), vec![]),
            Packet::tcp(C, S, 4000, 80, 901, 301, TcpFlags::ack(), vec![]),
            Packet::tcp(
                C,
                S,
                4000,
                80,
                901,
                301,
                TcpFlags::psh_ack(),
                b"falun".to_vec(),
            ),
        ]);
        let mut loop_alerts = Vec::new();
        for p in &packets {
            loop_alerts.extend(per_packet.process(t(0), p));
        }
        let mut batch_alerts = Vec::new();
        batched.process_batch(t(0), &packets, &mut batch_alerts);
        let sids: Vec<u32> = batch_alerts.iter().map(|a| a.sid).collect();
        assert_eq!(sids, vec![500, 501, 500], "stream, packet, recycled-flow");
        assert_eq!(
            loop_alerts.iter().map(|a| a.sid).collect::<Vec<_>>(),
            sids,
            "batched verdicts identical to per-packet"
        );
        let (a, b) = (per_packet.stats(), batched.stats());
        assert_eq!(a.packets, b.packets);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.alerts, b.alerts);
        assert_eq!(a.passed, b.passed);
        assert_eq!(a.ac_bytes_scanned, b.ac_bytes_scanned);
        assert_eq!(per_packet.flow_state_count(), batched.flow_state_count());
    }

    #[test]
    fn recycled_flow_slot_starts_clean() {
        // Arena slot reuse: after teardown the same index is handed to the
        // next flow under a new generation. The dense side table must not
        // leak the old flow's dedup set into it — and flow_state_count must
        // return to zero once the recycled flow also tears down.
        let mut e = engine(
            r#"alert tcp any any -> any 80 (msg:"kw"; flow:established,to_server; content:"falun"; sid:700;)"#,
        );
        for round in 0..5u32 {
            let seq = 100 + round * 1000;
            let syn = Packet::tcp(C, S, 4000, 80, seq, 0, TcpFlags::syn(), vec![]);
            let syn_ack = Packet::tcp(S, C, 80, 4000, 500, seq + 1, TcpFlags::syn_ack(), vec![]);
            let ack = Packet::tcp(C, S, 4000, 80, seq + 1, 501, TcpFlags::ack(), vec![]);
            let data = Packet::tcp(
                C,
                S,
                4000,
                80,
                seq + 1,
                501,
                TcpFlags::psh_ack(),
                b"falun".to_vec(),
            );
            let rst = Packet::tcp(C, S, 4000, 80, seq + 6, 501, TcpFlags::rst(), vec![]);
            let _ = e.process(t(0), &syn);
            let _ = e.process(t(0), &syn_ack);
            let _ = e.process(t(0), &ack);
            assert_eq!(
                e.process(t(0), &data).len(),
                1,
                "round {round}: recycled slot must not inherit dedup"
            );
            let _ = e.process(t(0), &rst);
            assert_eq!(e.flow_state_count(), 0, "round {round}: state released");
        }
        assert_eq!(e.stats().alerts, 5);
    }

    #[test]
    fn engine_honors_reassembly_config() {
        // A two-flow table: the third concurrent flow evicts the oldest,
        // and the evicted flow's matcher state goes with it.
        let rules = parse_ruleset(
            r#"alert tcp any any -> any 80 (msg:"kw"; flow:established,to_server; content:"falun"; sid:800;)"#,
            &VarTable::new(),
        )
        .expect("rules parse");
        let mut e = DetectionEngine::with_reassembly(
            rules,
            crate::stream::ReassemblyConfig {
                max_flows: 2,
                ..Default::default()
            },
        );
        for port in 0..3u16 {
            let syn = Packet::tcp(C, S, 4100 + port, 80, 100, 0, TcpFlags::syn(), vec![]);
            let syn_ack = Packet::tcp(S, C, 80, 4100 + port, 500, 101, TcpFlags::syn_ack(), vec![]);
            let ack = Packet::tcp(C, S, 4100 + port, 80, 101, 501, TcpFlags::ack(), vec![]);
            let data = Packet::tcp(
                C,
                S,
                4100 + port,
                80,
                101,
                501,
                TcpFlags::psh_ack(),
                b"falun".to_vec(),
            );
            let _ = e.process(t(0), &syn);
            let _ = e.process(t(0), &syn_ack);
            let _ = e.process(t(0), &ack);
            assert_eq!(e.process(t(0), &data).len(), 1);
        }
        assert_eq!(e.reassembly_stats().evicted, 1, "third flow evicted one");
        assert_eq!(e.flow_state_count(), 2, "evicted flow's state released");
        assert!(e.flow_memory_bytes() > 0);
    }

    #[test]
    fn trace_offset_for_nocase_rule_finds_first_folded_occurrence() {
        let mut e =
            engine(r#"alert tcp any any -> any 80 (msg:"nc"; content:"falun"; nocase; sid:91;)"#);
        let tracer = Tracer::with_capacity(16);
        e.set_tracer(tracer.clone());
        let d = Packet::tcp(
            C,
            S,
            4000,
            80,
            0,
            0,
            TcpFlags::psh_ack(),
            b"xx FALUN".to_vec(),
        );
        assert_eq!(e.process(t(0), &d).len(), 1);
        let rec = tracer
            .records()
            .into_iter()
            .find(|r| r.kind == "rule_match")
            .expect("rule_match traced");
        assert_eq!(rec.field_u64("offset"), Some(3));
    }
}
