//! TCP stream reassembly for the detection engine.
//!
//! Keyword rules must match content that straddles segment boundaries, so
//! the engine reassembles each TCP flow's byte stream per direction. The
//! reassembler also encodes the property the paper's stateful mimicry
//! exploits (§4.1): **on RST the flow is torn down and the engine stops
//! looking at it** ("upon receiving a reply, a spoofed client would send a
//! RST, possibly forcing the censorship system's TCP reassembler to stop
//! looking at the flow"). That behaviour is configurable so the ablation
//! experiment can turn it off.
//!
//! The reassembler is built for line-rate streaming: processing a segment
//! never copies more than that segment's payload (amortized — the bounded
//! per-direction window compacts in large strides), and flow bookkeeping
//! lives in an arena-backed [`FlowTable`]: one hash lookup when a segment
//! arrives, index dereferences for everything else, O(1) oldest-first
//! eviction. Every [`FlowContext`] carries the flow's generational
//! [`FlowId`], an index dereference for everything read per packet.
//!
//! The reassembler also owns its consumer's per-flow state (a
//! [`FlowState`]: the engine's matcher cursors and alert dedup, the tap
//! censor's cursors and strikes, the inline censor's URL-block mark). The
//! state is created on the consumer's first write and reset in place,
//! capacity kept, whenever the reassembler forgets the flow: on RST, on a
//! completed close, on [`StreamReassembler::remove`] and on eviction. So
//! the monitor forgets exactly what its reassembler forgets, and a reused
//! slot starts clean.
//!
//! Out-of-order segments are *held back* (bounded by
//! [`DirLimits::holdback`]) until the gap before them fills, overlapping
//! retransmits are resolved by a configurable [`OverlapPolicy`] (the
//! Ptacek–Newsham ambiguity: `KeepFirst` keeps the bytes already seen and
//! contributes only the unseen suffix, `KeepLast` lets a later copy
//! rewrite them — real endpoints differ, so a monitor's choice is an
//! evasion surface either way), and all sequence comparisons are
//! windowed — so channel impairments within the hold-back bound cost
//! nothing, while everything beyond it is counted ([`ReassemblyStats`])
//! rather than silently skewing verdicts.

use std::net::Ipv4Addr;

use underradar_netsim::flow::FlowTable;
pub use underradar_netsim::flow::{FlowId, FlowKey};
use underradar_netsim::packet::{Packet, TcpSegment};
pub use underradar_netsim::stack::tcp::{seq_le, seq_lt};
use underradar_netsim::telemetry::{TraceFlow, TraceRecord, Tracer};

/// What the monitor does when newly arrived bytes overlap bytes it has
/// already seen. Honest senders always retransmit identical bytes so the
/// policy is unobservable; evasion clients send *different* bytes in
/// overlapping retransmits, and which copy the monitor keeps decides what
/// its rules match. The testbed's TCP endpoint always keeps the last copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverlapPolicy {
    /// The first copy to arrive wins; later overlapping bytes are ignored
    /// (BSD-style).
    KeepFirst,
    /// The most recent copy wins; later arrivals overwrite held bytes
    /// (Linux-ish behaviour for data ahead of `rcv_nxt`, and the
    /// endpoint's).
    KeepLast,
}

/// Default per-direction cap on buffered stream bytes; older bytes are
/// discarded (the monitor has bounded per-flow memory — §2.1's storage
/// argument). Override via [`DirLimits::window`].
pub const MAX_DIR_BUFFER: usize = 8 * 1024;

/// Default per-direction cap on *held* out-of-order bytes awaiting a gap
/// fill. Segments beyond this (or displaced further than the window ahead
/// of the expected sequence) are dropped and counted — the bound past
/// which channel impairments become stream divergence. Override via
/// [`DirLimits::holdback`].
pub const MAX_OOO_BUFFER: usize = 4 * 1024;

/// Default cap on tracked flows; least-recently-created flows are
/// evicted. Override via [`ReassemblyConfig::max_flows`].
pub const MAX_FLOWS: usize = 100_000;

/// Which way a segment is heading relative to the connection initiator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// From the initiator (client) to the responder (server).
    ToServer,
    /// From the responder back to the initiator.
    ToClient,
}

/// Per-direction buffering limits: the in-order window and the
/// out-of-order hold-back budget, both in bytes. A monitor's per-flow
/// memory ceiling is roughly `2 * (window + holdback)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirLimits {
    /// Cap on buffered in-order stream bytes (the matcher's lookback).
    pub window: usize,
    /// Cap on held out-of-order bytes awaiting a gap fill.
    pub holdback: usize,
}

impl Default for DirLimits {
    fn default() -> Self {
        DirLimits {
            window: MAX_DIR_BUFFER,
            holdback: MAX_OOO_BUFFER,
        }
    }
}

/// Construction-time reassembler knobs (surfaced through
/// `TestbedConfig` so experiments can sweep them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReassemblyConfig {
    /// Flow-table capacity; oldest flows are evicted beyond it. 0 means
    /// unbounded.
    pub max_flows: usize,
    /// Per-direction buffering limits.
    pub limits: DirLimits,
    /// How conflicting retransmits over already-seen bytes resolve.
    /// `KeepFirst` (the monitor default, and the seed's only behaviour)
    /// trusts the first copy; `KeepLast` mirrors endpoints that accept
    /// the latest copy, letting experiments align or misalign the monitor
    /// with the endpoint under test.
    pub overlap: OverlapPolicy,
}

impl Default for ReassemblyConfig {
    fn default() -> Self {
        ReassemblyConfig {
            max_flows: MAX_FLOWS,
            limits: DirLimits::default(),
            overlap: OverlapPolicy::KeepFirst,
        }
    }
}

/// One direction's reassembly state: the in-order window plus the
/// bounded hold-back queue. Public so benches and property harnesses can
/// drive the buffer directly; [`StreamReassembler`] is the normal entry.
#[derive(Debug, Default)]
pub struct DirBuffer {
    next_seq: Option<u32>,
    /// Raw byte storage; the live window is `data[start..]`.
    data: Vec<u8>,
    /// Logical start of the live window. Advanced when the window exceeds
    /// [`DirLimits::window`]; storage is compacted only once `start`
    /// crosses the window size, so each buffered byte is moved at most
    /// once.
    start: usize,
    fin_seen: bool,
    /// Hold-back queue: out-of-order segments waiting for the gap before
    /// them to fill. Unsorted (drained by windowed-seq scan); bounded by
    /// [`DirLimits::holdback`] bytes.
    held: Vec<(u32, Vec<u8>)>,
    /// Total payload bytes across `held`.
    held_bytes: usize,
}

impl DirBuffer {
    /// Offer a segment. In-order payload is appended; a segment landing
    /// beyond the expected sequence is *held* (up to the hold-back
    /// budget) until the gap fills; a retransmit overlapping already-seen
    /// bytes resolves per `overlap` — [`OverlapPolicy::KeepFirst`]
    /// contributes only the unseen suffix, [`OverlapPolicy::KeepLast`]
    /// additionally rewrites the already-buffered bytes it covers (where
    /// they are still inside the live window). All comparisons are
    /// windowed, so flows crossing the 2^32 sequence wrap don't desync.
    /// Returns the number of bytes newly appended to the in-order stream
    /// (including any held segments this one unblocked); rewritten bytes
    /// do not count as new.
    #[inline]
    pub fn push(
        &mut self,
        seq: u32,
        payload: &[u8],
        limits: DirLimits,
        overlap: OverlapPolicy,
        stats: &mut ReassemblyStats,
    ) -> usize {
        if payload.is_empty() {
            return 0;
        }
        // In-order fast path: nothing held and the segment lands exactly
        // at the expected sequence — the overwhelmingly common case on
        // healthy links, kept free of the dispatch below.
        if self.next_seq == Some(seq) && self.held.is_empty() {
            self.append_in_order(payload, limits, stats);
            return payload.len();
        }
        if self.next_seq.is_none() {
            // Mid-stream pickup (monitor started late): accept and sync.
            self.next_seq = Some(seq);
        }
        let mut appended = self.accept(seq, payload, limits, overlap, stats);
        if appended > 0 && !self.held.is_empty() {
            appended += self.drain_held(limits, overlap, stats);
        }
        appended
    }

    /// Apply one segment against the current expected sequence: append,
    /// resolve-overlap-and-append, hold, or drop. Returns bytes appended
    /// in order.
    fn accept(
        &mut self,
        seq: u32,
        payload: &[u8],
        limits: DirLimits,
        overlap: OverlapPolicy,
        stats: &mut ReassemblyStats,
    ) -> usize {
        let expected = self.next_seq.expect("push set next_seq");
        let end = seq.wrapping_add(payload.len() as u32);
        if seq_le(end, expected) {
            // Every byte already seen: a stale retransmit. KeepFirst
            // ignores it; KeepLast lets it rewrite the copy on record.
            if overlap == OverlapPolicy::KeepLast && self.rewrite_overlap(seq, payload) > 0 {
                stats.overlap_rewritten += 1;
            } else {
                stats.dup_ignored += 1;
            }
            return 0;
        }
        if seq_lt(seq, expected) {
            // Partial overlap (repacketized retransmit): the unseen suffix
            // always appends; the already-seen prefix is either discarded
            // (KeepFirst) or overwrites the buffered copy (KeepLast).
            let trim = expected.wrapping_sub(seq) as usize;
            if overlap == OverlapPolicy::KeepLast && self.rewrite_overlap(seq, payload) > 0 {
                stats.overlap_rewritten += 1;
            } else {
                stats.overlap_trimmed += 1;
            }
            self.append_in_order(&payload[trim..], limits, stats);
            return payload.len() - trim;
        }
        if seq == expected {
            self.append_in_order(payload, limits, stats);
            return payload.len();
        }
        // Future segment: hold it while it stays within the displacement
        // window and the hold-back byte budget.
        let offset = seq.wrapping_sub(expected) as usize;
        if offset <= limits.window && self.held_bytes + payload.len() <= limits.holdback {
            stats.ooo_held += 1;
            self.held_bytes += payload.len();
            self.held.push((seq, payload.to_vec()));
        } else {
            stats.ooo_dropped += 1;
        }
        0
    }

    /// Overwrite already-reassembled bytes the segment covers, where they
    /// are still inside the live window (bytes compacted past the window
    /// are gone for good — no policy can resurrect them). Returns the
    /// number of bytes rewritten.
    fn rewrite_overlap(&mut self, seq: u32, payload: &[u8]) -> usize {
        let expected = self.next_seq.expect("rewrite follows accept");
        let live = self.data.len() - self.start;
        let win_base = expected.wrapping_sub(live as u32);
        // Bytes of the payload that precede the expected sequence.
        let old_len = (expected.wrapping_sub(seq) as usize).min(payload.len());
        // Clip the old part to the live window.
        let (skip, win_off) = if seq_lt(seq, win_base) {
            (win_base.wrapping_sub(seq) as usize, 0usize)
        } else {
            (0usize, seq.wrapping_sub(win_base) as usize)
        };
        if skip >= old_len {
            return 0;
        }
        let n = old_len - skip;
        let dst = self.start + win_off;
        self.data[dst..dst + n].copy_from_slice(&payload[skip..old_len]);
        n
    }

    /// After an in-order append, apply every held segment the new expected
    /// sequence has reached (repeatedly — one drain can unblock the next).
    fn drain_held(
        &mut self,
        limits: DirLimits,
        overlap: OverlapPolicy,
        stats: &mut ReassemblyStats,
    ) -> usize {
        let mut total = 0;
        loop {
            let expected = self.next_seq.expect("in-order data present");
            let Some(idx) = self.held.iter().position(|(s, _)| seq_le(*s, expected)) else {
                break;
            };
            let (seq, payload) = self.held.swap_remove(idx);
            self.held_bytes -= payload.len();
            total += self.accept(seq, &payload, limits, overlap, stats);
        }
        total
    }

    /// Extend the stream with bytes known to start at the expected
    /// sequence, advancing it and maintaining the bounded window.
    #[inline]
    fn append_in_order(&mut self, payload: &[u8], limits: DirLimits, stats: &mut ReassemblyStats) {
        let expected = self.next_seq.expect("in-order append");
        self.next_seq = Some(expected.wrapping_add(payload.len() as u32));
        self.data.extend_from_slice(payload);
        stats.bytes_appended += payload.len() as u64;
        let live = self.data.len() - self.start;
        if live > limits.window {
            self.start += live - limits.window;
        }
        if self.start >= limits.window {
            stats.bytes_compacted += (self.data.len() - self.start) as u64;
            self.data.drain(..self.start);
            self.start = 0;
        }
    }

    /// The buffered window (bounded tail of the direction's stream).
    pub fn view(&self) -> &[u8] {
        &self.data[self.start..]
    }
}

#[derive(Debug)]
struct Flow {
    /// The initiator endpoint (sent the first SYN, or the first segment
    /// seen for mid-stream pickups).
    client: (Ipv4Addr, u16),
    established: bool,
    syn_seen: bool,
    synack_seen: bool,
    c2s: DirBuffer,
    s2c: DirBuffer,
}

/// What the reassembler reports about the flow a segment belongs to.
///
/// Deliberately small and `Copy`: the buffered stream itself is *not*
/// cloned per segment — read it through [`StreamReassembler::stream_of_id`]
/// (an index dereference, no hash), and match incrementally by feeding
/// the last `new_bytes` of that view (the newly reassembled tail) to
/// [`crate::dfa::PrefilterDfa::feed`] with a persistent `u32` cursor.
#[derive(Debug, Clone, Copy)]
pub struct FlowContext {
    /// The flow key.
    pub key: FlowKey,
    /// The flow's table handle. `None` for a RST against an untracked
    /// flow. Stale once `torn_down` is set: the slot is already freed and
    /// the flow's consumer state reset, so reads through it find nothing.
    pub id: Option<FlowId>,
    /// Direction of this segment.
    pub direction: Direction,
    /// Whether the three-way handshake completed.
    pub established: bool,
    /// Whether this segment extended the in-order stream.
    pub appended: bool,
    /// Bytes newly appended to this direction's stream. May exceed the
    /// segment's payload length (the segment unblocked held out-of-order
    /// data) or fall short of it (an already-seen prefix was trimmed).
    pub new_bytes: usize,
    /// Length of the buffered (windowed) stream after this segment.
    pub stream_len: usize,
    /// The flow was torn down while processing this segment (RST, or a
    /// completed FIN/FIN/ACK close); its buffers are gone.
    pub torn_down: bool,
}

/// Reassembly statistics (assertable in experiments).
#[derive(Debug, Clone, Copy, Default)]
pub struct ReassemblyStats {
    /// Flows created.
    pub flows_created: u64,
    /// Flows torn down by RST.
    pub rst_teardowns: u64,
    /// Flows torn down by an observed FIN/FIN/ACK close.
    pub fin_teardowns: u64,
    /// Flows removed by an explicit [`StreamReassembler::remove`] call
    /// (engine policy decisions; split from `fin_teardowns`, which the
    /// seed conflated with every removal).
    pub removals: u64,
    /// TCP segments processed.
    pub segments: u64,
    /// Flows evicted due to the flow-table cap.
    pub evicted: u64,
    /// Payload bytes copied into direction buffers.
    pub bytes_appended: u64,
    /// Bytes moved by window compaction (amortized ≤ 1 per appended byte).
    pub bytes_compacted: u64,
    /// Out-of-order segments held back awaiting a gap fill.
    pub ooo_held: u64,
    /// Out-of-order segments dropped: displaced beyond the window or past
    /// the hold-back budget.
    pub ooo_dropped: u64,
    /// Retransmits whose already-seen prefix was trimmed (suffix kept) —
    /// the [`OverlapPolicy::KeepFirst`] resolution.
    pub overlap_trimmed: u64,
    /// Retransmits that overwrote already-buffered bytes — the
    /// [`OverlapPolicy::KeepLast`] resolution. Always 0 under `KeepFirst`.
    pub overlap_rewritten: u64,
    /// Segments ignored because every byte was already seen.
    pub dup_ignored: u64,
}

impl ReassemblyStats {
    /// Total bytes the reassembler has copied. For an N-byte flow this is
    /// ≤ 2·N regardless of segmentation — the no-per-segment-clone
    /// invariant the throughput tests assert.
    pub fn bytes_copied(&self) -> u64 {
        self.bytes_appended + self.bytes_compacted
    }
}

/// Per-flow state a consumer keeps in its [`StreamReassembler`]. It is
/// created as `Default` on the consumer's first write and put back with
/// [`FlowState::reset`] when the flow dies, so a reset must leave exactly
/// the `Default` value (heap capacity aside).
pub trait FlowState: Default {
    /// Return to the `Default` value in place, keeping heap capacity so a
    /// reused slot allocates nothing.
    fn reset(&mut self);

    /// Heap bytes this state holds (memory-budget accounting).
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// No per-flow state: the reassembler alone.
impl FlowState for () {
    fn reset(&mut self) {}
}

#[derive(Debug, Default)]
struct StateSlot<S> {
    touched: bool,
    state: S,
}

/// The consumer states, dense by [`FlowId::index`] and grown to a slot
/// index on its first write, so never longer than the flow slab. Reset
/// slots keep their heap capacity: steady-state churn allocates nothing.
#[derive(Debug)]
struct FlowStates<S> {
    slots: Vec<StateSlot<S>>,
    /// Slots holding a live flow's state.
    touched: usize,
}

impl<S: FlowState> FlowStates<S> {
    fn get(&self, index: usize) -> Option<&S> {
        self.slots
            .get(index)
            .filter(|slot| slot.touched)
            .map(|slot| &slot.state)
    }

    fn touch(&mut self, index: usize) -> &mut S {
        if index >= self.slots.len() {
            self.slots.resize_with(index + 1, StateSlot::default);
        }
        let slot = &mut self.slots[index];
        if !slot.touched {
            slot.touched = true;
            self.touched += 1;
        }
        &mut slot.state
    }

    fn reset(&mut self, index: usize) {
        if let Some(slot) = self.slots.get_mut(index) {
            if slot.touched {
                slot.touched = false;
                slot.state.reset();
                self.touched -= 1;
            }
        }
    }

    /// Drop every state, keeping the store's own capacity.
    fn clear(&mut self) {
        self.slots.clear();
        self.touched = 0;
    }

    fn bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<StateSlot<S>>()
            + self
                .slots
                .iter()
                .map(|slot| slot.state.heap_bytes())
                .sum::<usize>()
    }
}

/// The stream reassembler, keeping one consumer state `S` per flow.
#[derive(Debug)]
pub struct StreamReassembler<S = ()> {
    /// Arena-backed flow state: hash once at setup/teardown, index
    /// dereferences per segment, O(1) oldest-first eviction.
    flows: FlowTable<Flow>,
    states: FlowStates<S>,
    limits: DirLimits,
    overlap: OverlapPolicy,
    /// Tear down flows on RST (the real-IDS default, and the paper's
    /// exploited behaviour). When `false`, RSTs are ignored — the ablation.
    pub rst_teardown: bool,
    stats: ReassemblyStats,
    /// Flight recorder for reassembly decisions (hold/drop/trim/dup/evict).
    /// Disabled by default: one branch per processed segment.
    tracer: Tracer,
    /// Simulated time stamped onto trace records. `process` has no time
    /// parameter, so time-aware callers (engine, censors) push the clock in
    /// via [`StreamReassembler::set_now`] when tracing is live.
    now_ns: u64,
}

impl<S: FlowState> Default for StreamReassembler<S> {
    fn default() -> Self {
        Self::with_config(ReassemblyConfig::default())
    }
}

impl StreamReassembler {
    /// A stateless reassembler with RST teardown on and default limits.
    pub fn new() -> StreamReassembler {
        Self::default()
    }
}

impl<S: FlowState> StreamReassembler<S> {
    /// A reassembler with explicit capacity and buffering limits.
    pub fn with_config(cfg: ReassemblyConfig) -> StreamReassembler<S> {
        StreamReassembler {
            flows: FlowTable::new(cfg.max_flows),
            states: FlowStates {
                slots: Vec::new(),
                touched: 0,
            },
            limits: cfg.limits,
            overlap: cfg.overlap,
            rst_teardown: true,
            stats: ReassemblyStats::default(),
            tracer: Tracer::disabled(),
            now_ns: 0,
        }
    }

    /// The limits this reassembler was built with.
    pub fn config(&self) -> ReassemblyConfig {
        ReassemblyConfig {
            max_flows: self.flows.capacity(),
            limits: self.limits,
            overlap: self.overlap,
        }
    }

    /// Forget every flow and its state, zero the statistics and detach
    /// the tracer, as a new reassembler with the same limits and RST
    /// teardown setting: the next flows get the handles a new one would
    /// give them. The flow table and the state store keep their storage,
    /// so [`StreamReassembler::table_bytes`] and
    /// [`StreamReassembler::state_bytes`] keep their high-water marks.
    pub fn reset(&mut self) {
        self.flows.clear();
        self.states.clear();
        self.stats = ReassemblyStats::default();
        self.tracer = Tracer::disabled();
        self.now_ns = 0;
    }

    /// The per-direction buffering limits in force.
    pub fn limits(&self) -> DirLimits {
        self.limits
    }

    /// The flow-table eviction threshold.
    pub fn flow_capacity(&self) -> usize {
        self.flows.capacity()
    }

    /// Attach a flight-recorder handle (disabled handles cost one branch
    /// per segment).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The attached flight-recorder handle.
    pub fn tracer(&self) -> Tracer {
        self.tracer.clone()
    }

    /// Set the simulated time stamped onto subsequent trace records.
    pub fn set_now(&mut self, t_ns: u64) {
        self.now_ns = t_ns;
    }

    /// Statistics so far.
    pub fn stats(&self) -> ReassemblyStats {
        self.stats
    }

    /// Number of currently tracked flows.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Walk the intrusive creation-order list and count live entries.
    /// Always equal to [`StreamReassembler::flow_count`] — the
    /// leak-regression invariant. O(live flows); test/diagnostic only.
    pub fn order_len(&self) -> usize {
        self.flows.linked_len()
    }

    /// Approximate bytes of flow-table backing storage (slab slots plus
    /// the setup hash index; excludes per-direction buffer heap). The
    /// per-flow memory-budget figure the scale experiment reports.
    pub fn table_bytes(&self) -> usize {
        self.flows.approx_bytes()
    }

    /// Total slab slots (live + free): bounded by the live high-water
    /// mark, never by total churn. The consumer-state store never holds
    /// more ([`StreamReassembler::state_slots`]).
    pub fn slab_size(&self) -> usize {
        self.flows.slab_size()
    }

    /// The consumer state of a live flow; `None` if the consumer never
    /// wrote one, the handle is stale or the flow was torn down.
    pub fn state(&self, id: FlowId) -> Option<&S> {
        self.flows.get(id)?;
        self.states.get(id.index())
    }

    /// The consumer state of a live flow, created as `S::default()` on
    /// the first call; `None` only for a stale handle.
    pub fn state_mut(&mut self, id: FlowId) -> Option<&mut S> {
        self.flows.get(id)?;
        Some(self.states.touch(id.index()))
    }

    /// A live flow direction's buffered stream window together with the
    /// flow's consumer state (created as by
    /// [`StreamReassembler::state_mut`]): what an incremental matcher
    /// reads and advances per segment. `None` for a stale handle.
    pub fn stream_and_state(
        &mut self,
        id: FlowId,
        direction: Direction,
    ) -> Option<(&[u8], &mut S)> {
        let flow = self.flows.get(id)?;
        let view = match direction {
            Direction::ToServer => flow.c2s.view(),
            Direction::ToClient => flow.s2c.view(),
        };
        Some((view, self.states.touch(id.index())))
    }

    /// Every live flow's consumer state (flows without one skipped), in
    /// slot order.
    pub fn states(&self) -> impl Iterator<Item = &S> {
        self.states
            .slots
            .iter()
            .filter(|slot| slot.touched)
            .map(|slot| &slot.state)
    }

    /// Number of live flows holding a consumer state.
    pub fn state_count(&self) -> usize {
        self.states.touched
    }

    /// Slots in the consumer-state store: grown to the highest slot index
    /// written, so never above [`StreamReassembler::slab_size`].
    pub fn state_slots(&self) -> usize {
        self.states.slots.len()
    }

    /// Approximate bytes of consumer-state storage: the dense store's
    /// capacity plus the heap each state reports, reset slots included
    /// (they keep their capacity).
    pub fn state_bytes(&self) -> usize {
        self.states.bytes()
    }

    /// Whether a flow is currently tracked.
    pub fn is_tracked(&self, key: &FlowKey) -> bool {
        self.flows.lookup(key).is_some()
    }

    /// The handle for a tracked flow.
    pub fn flow_id(&self, key: &FlowKey) -> Option<FlowId> {
        self.flows.lookup(key)
    }

    /// The buffered stream window for a flow direction (empty if the flow
    /// is not tracked). Borrowed — no copy. Hashes the key; per-packet
    /// consumers should prefer [`StreamReassembler::stream_of_id`].
    pub fn stream_of(&self, key: &FlowKey, direction: Direction) -> &[u8] {
        match self.flows.lookup(key) {
            Some(id) => self.stream_of_id(id, direction),
            None => &[],
        }
    }

    /// The buffered stream window behind a flow handle (empty if stale).
    /// An index dereference — the per-packet path.
    pub fn stream_of_id(&self, id: FlowId, direction: Direction) -> &[u8] {
        match self.flows.get(id) {
            Some(flow) => match direction {
                Direction::ToServer => flow.c2s.view(),
                Direction::ToClient => flow.s2c.view(),
            },
            None => &[],
        }
    }

    /// Process a TCP packet; returns flow context for rule evaluation, or
    /// `None` for non-TCP packets.
    pub fn process(&mut self, pkt: &Packet) -> Option<FlowContext> {
        let seg = pkt.as_tcp()?;
        self.stats.segments += 1;
        let key = FlowKey::of(pkt, seg);

        // RST teardown: report the segment against the dying flow, then
        // forget it.
        if seg.flags.has_rst() && self.rst_teardown {
            let ctx = match self.flows.lookup(&key) {
                Some(id) => {
                    let flow = self.flows.get(id).expect("looked-up handle is live");
                    FlowContext {
                        key,
                        id: Some(id),
                        direction: direction_of(flow, pkt, seg),
                        established: flow.established,
                        appended: false,
                        new_bytes: 0,
                        stream_len: 0,
                        torn_down: true,
                    }
                }
                None => FlowContext {
                    key,
                    id: None,
                    direction: Direction::ToServer,
                    established: false,
                    appended: false,
                    new_bytes: 0,
                    stream_len: 0,
                    torn_down: false,
                },
            };
            if self.teardown(&key) {
                self.stats.rst_teardowns += 1;
                if self.tracer.is_live() {
                    // The flight-recorder evidence for the paper's §4.1
                    // exploit: the monitor stopped looking at this flow
                    // here, whatever the endpoint decided.
                    self.tracer.record(TraceRecord {
                        t_ns: self.now_ns,
                        seq: 0,
                        stage: "stream",
                        kind: "rst_teardown",
                        flow: Some(pkt.trace_flow()),
                        fields: vec![("seq_lo", (seg.seq as u64).into())],
                    });
                }
            }
            return Some(ctx);
        }

        let id = match self.flows.lookup(&key) {
            Some(id) => id,
            None => {
                // New flow. Initiator inference: a bare SYN marks a real
                // open; otherwise treat the observed sender as the client.
                let mut flow = Flow {
                    client: (pkt.src, seg.src_port),
                    established: false,
                    syn_seen: seg.flags.has_syn() && !seg.flags.has_ack(),
                    synack_seen: false,
                    c2s: DirBuffer::default(),
                    s2c: DirBuffer::default(),
                };
                if flow.syn_seen {
                    flow.c2s.next_seq = Some(seg.seq.wrapping_add(1));
                }
                let (id, evicted) = self.flows.insert(key, flow);
                self.stats.flows_created += 1;
                if let Some((evicted_id, evicted_key, _)) = evicted {
                    // The new flow may have taken the evicted flow's slot,
                    // but no consumer can reach its state before this
                    // returns, so the reset clears only the evicted flow's.
                    self.states.reset(evicted_id.index());
                    self.stats.evicted += 1;
                    if self.tracer.is_live() {
                        self.tracer.record(TraceRecord {
                            t_ns: self.now_ns,
                            seq: 0,
                            stage: "stream",
                            kind: "evicted",
                            flow: Some(TraceFlow {
                                src: evicted_key.lo.0,
                                src_port: evicted_key.lo.1,
                                dst: evicted_key.hi.0,
                                dst_port: evicted_key.hi.1,
                            }),
                            fields: Vec::new(),
                        });
                    }
                }
                id
            }
        };

        let limits = self.limits;
        let flow = self.flows.get_mut(id).expect("flow just ensured");
        let direction = direction_of(flow, pkt, seg);

        // Handshake tracking.
        if seg.flags.has_syn() && seg.flags.has_ack() && direction == Direction::ToClient {
            flow.synack_seen = true;
            flow.s2c.next_seq = Some(seg.seq.wrapping_add(1));
        } else if seg.flags.has_syn() && !seg.flags.has_ack() && direction == Direction::ToServer {
            flow.syn_seen = true;
            flow.c2s.next_seq = Some(seg.seq.wrapping_add(1));
        } else if seg.flags.has_ack() && flow.syn_seen && flow.synack_seen {
            flow.established = true;
        }

        let buf = match direction {
            Direction::ToServer => &mut flow.c2s,
            Direction::ToClient => &mut flow.s2c,
        };
        let stats_before = if self.tracer.is_live() {
            Some(self.stats)
        } else {
            None
        };
        let new_bytes = buf.push(seg.seq, &seg.payload, limits, self.overlap, &mut self.stats);
        if let Some(before) = stats_before {
            trace_reassembly(&self.tracer, self.now_ns, &before, &self.stats, pkt, seg);
        }
        // Advance expected seq past FINs so retransmitted FINs don't desync.
        if seg.flags.has_fin() {
            buf.fin_seen = true;
            if let Some(n) = buf.next_seq {
                let fin_seq = seg.seq.wrapping_add(seg.payload.len() as u32);
                if fin_seq == n {
                    buf.next_seq = Some(n.wrapping_add(1));
                }
            }
        }

        let established = flow.established;
        let stream_len = match direction {
            Direction::ToServer => flow.c2s.view().len(),
            Direction::ToClient => flow.s2c.view().len(),
        };
        // A pure ACK after FINs in both directions completes the close: stop
        // tracking so long runs of short flows don't pin table slots until
        // eviction (the engine may still call [`StreamReassembler::remove`]
        // for its own policies).
        let close_complete = flow.c2s.fin_seen
            && flow.s2c.fin_seen
            && seg.flags.has_ack()
            && !seg.flags.has_fin()
            && !seg.flags.has_syn()
            && seg.payload.is_empty();
        if close_complete && self.teardown(&key) {
            self.stats.fin_teardowns += 1;
        }

        Some(FlowContext {
            key,
            id: Some(id),
            direction,
            established,
            appended: new_bytes > 0,
            new_bytes,
            stream_len,
            torn_down: close_complete,
        })
    }

    /// Forget a flow (used by the engine after it decides tracking should
    /// end). Counted under `removals`, not `fin_teardowns`.
    pub fn remove(&mut self, key: &FlowKey) {
        if self.teardown(key) {
            self.stats.removals += 1;
        }
    }

    /// Drop a flow, its bookkeeping and its consumer state. Returns
    /// whether it existed.
    fn teardown(&mut self, key: &FlowKey) -> bool {
        match self.flows.lookup(key) {
            Some(id) => {
                self.flows.remove(id);
                self.states.reset(id.index());
                true
            }
            None => false,
        }
    }
}

/// Emit one flight-recorder record per reassembly decision the segment
/// triggered (stats deltas across the [`DirBuffer::push`]): segments held
/// out of order, dropped past the hold-back budget, overlap-trimmed
/// retransmits, and fully-duplicate discards. A gap-filling segment can
/// drain held segments whose accepts also decide — those count here too,
/// attributed to the triggering packet.
fn trace_reassembly(
    tracer: &Tracer,
    t_ns: u64,
    before: &ReassemblyStats,
    after: &ReassemblyStats,
    pkt: &Packet,
    seg: &TcpSegment,
) {
    let flow = Some(pkt.trace_flow());
    let seq_lo = seg.seq as u64;
    let seq_hi = seg.seq.wrapping_add(seg.payload.len() as u32) as u64;
    let emit = |kind: &'static str, n: u64| {
        for _ in 0..n {
            tracer.record(TraceRecord {
                t_ns,
                seq: 0,
                stage: "stream",
                kind,
                flow,
                fields: vec![("seq_lo", seq_lo.into()), ("seq_hi", seq_hi.into())],
            });
        }
    };
    emit("ooo_held", after.ooo_held - before.ooo_held);
    emit("ooo_dropped", after.ooo_dropped - before.ooo_dropped);
    emit(
        "overlap_trimmed",
        after.overlap_trimmed - before.overlap_trimmed,
    );
    emit(
        "overlap_rewritten",
        after.overlap_rewritten - before.overlap_rewritten,
    );
    emit("dup_ignored", after.dup_ignored - before.dup_ignored);
}

fn direction_of(flow: &Flow, pkt: &Packet, seg: &TcpSegment) -> Direction {
    if (pkt.src, seg.src_port) == flow.client {
        Direction::ToServer
    } else {
        Direction::ToClient
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use underradar_netsim::wire::tcp::TcpFlags;

    const C: Ipv4Addr = Ipv4Addr::new(10, 0, 1, 2);
    const S: Ipv4Addr = Ipv4Addr::new(10, 0, 2, 2);

    fn pkt(
        src: Ipv4Addr,
        dst: Ipv4Addr,
        sp: u16,
        dp: u16,
        seq: u32,
        flags: TcpFlags,
        payload: &[u8],
    ) -> Packet {
        Packet::tcp(src, dst, sp, dp, seq, 0, flags, payload.to_vec())
    }

    fn stream_vec(r: &StreamReassembler, ctx: &FlowContext) -> Vec<u8> {
        r.stream_of(&ctx.key, ctx.direction).to_vec()
    }

    fn handshake(r: &mut StreamReassembler) {
        let syn = pkt(C, S, 4000, 80, 100, TcpFlags::syn(), b"");
        let ctx = r.process(&syn).expect("syn ctx");
        assert_eq!(ctx.direction, Direction::ToServer);
        assert!(!ctx.established);
        let syn_ack = pkt(S, C, 80, 4000, 500, TcpFlags::syn_ack(), b"");
        let ctx = r.process(&syn_ack).expect("synack ctx");
        assert_eq!(ctx.direction, Direction::ToClient);
        let ack = pkt(C, S, 4000, 80, 101, TcpFlags::ack(), b"");
        let ctx = r.process(&ack).expect("ack ctx");
        assert!(ctx.established, "handshake complete");
    }

    #[test]
    fn reassembles_across_segments() {
        let mut r = StreamReassembler::new();
        handshake(&mut r);
        // "falun" split across two segments.
        let d1 = pkt(C, S, 4000, 80, 101, TcpFlags::psh_ack(), b"GET /fal");
        let ctx = r.process(&d1).expect("d1");
        assert!(ctx.appended);
        assert_eq!(ctx.new_bytes, 8);
        assert_eq!(stream_vec(&r, &ctx), b"GET /fal");
        let d2 = pkt(C, S, 4000, 80, 109, TcpFlags::psh_ack(), b"un HTTP/1.0");
        let ctx = r.process(&d2).expect("d2");
        assert_eq!(stream_vec(&r, &ctx), b"GET /falun HTTP/1.0");
        assert_eq!(ctx.stream_len, 19);
        assert!(ctx.established);
    }

    #[test]
    fn context_handle_gives_dense_stream_access() {
        let mut r = StreamReassembler::new();
        handshake(&mut r);
        let d = pkt(C, S, 4000, 80, 101, TcpFlags::psh_ack(), b"dense");
        let ctx = r.process(&d).expect("ctx");
        let id = ctx.id.expect("live flow carries its handle");
        assert_eq!(r.stream_of_id(id, ctx.direction), b"dense");
        assert_eq!(r.flow_id(&ctx.key), Some(id), "handle is stable");
        // After teardown the handle goes stale and reads as empty.
        let _ = r.process(&pkt(C, S, 4000, 80, 106, TcpFlags::rst(), b""));
        assert!(r.stream_of_id(id, ctx.direction).is_empty());
    }

    #[test]
    fn directions_keep_separate_buffers() {
        let mut r = StreamReassembler::new();
        handshake(&mut r);
        let _ = r.process(&pkt(C, S, 4000, 80, 101, TcpFlags::psh_ack(), b"request"));
        let ctx = r.process(&pkt(S, C, 80, 4000, 501, TcpFlags::psh_ack(), b"response"));
        let ctx = ctx.expect("ctx");
        assert_eq!(ctx.direction, Direction::ToClient);
        assert_eq!(stream_vec(&r, &ctx), b"response");
    }

    #[test]
    fn out_of_order_segment_held_until_gap_fills() {
        let mut r = StreamReassembler::new();
        handshake(&mut r);
        // Arrives 5 bytes early: held, not appended.
        let early = pkt(C, S, 4000, 80, 106, TcpFlags::psh_ack(), b"later");
        let ctx = r.process(&early).expect("early");
        assert!(!ctx.appended, "gap: held back, not appended");
        assert_eq!(ctx.new_bytes, 0);
        assert_eq!(r.stats().ooo_held, 1);
        // The gap fill releases both: one segment, ten reassembled bytes.
        let fill = pkt(C, S, 4000, 80, 101, TcpFlags::psh_ack(), b"first");
        let ctx = r.process(&fill).expect("fill");
        assert!(ctx.appended);
        assert_eq!(ctx.new_bytes, 10, "fill plus the held segment");
        assert_eq!(stream_vec(&r, &ctx), b"firstlater");
        assert_eq!(r.stats().ooo_dropped, 0);
    }

    #[test]
    fn reorder_within_holdback_reconstructs_exactly() {
        // Three segments delivered 2,3,1: the stream still comes out whole.
        let mut r = StreamReassembler::new();
        handshake(&mut r);
        let _ = r.process(&pkt(C, S, 4000, 80, 106, TcpFlags::psh_ack(), b"bbbbb"));
        let _ = r.process(&pkt(C, S, 4000, 80, 111, TcpFlags::psh_ack(), b"ccccc"));
        let ctx = r
            .process(&pkt(C, S, 4000, 80, 101, TcpFlags::psh_ack(), b"aaaaa"))
            .expect("ctx");
        assert_eq!(ctx.new_bytes, 15);
        assert_eq!(stream_vec(&r, &ctx), b"aaaaabbbbbccccc");
        assert_eq!(r.stats().ooo_held, 2);
    }

    #[test]
    fn partial_overlap_appends_only_the_unseen_suffix() {
        let mut r = StreamReassembler::new();
        handshake(&mut r);
        let _ = r.process(&pkt(C, S, 4000, 80, 101, TcpFlags::psh_ack(), b"abcdef"));
        // Repacketized retransmit: covers [104, 112) while [101, 107) is
        // already reassembled — only "ghi" is new.
        let ctx = r
            .process(&pkt(C, S, 4000, 80, 104, TcpFlags::psh_ack(), b"defghi"))
            .expect("ctx");
        assert!(ctx.appended);
        assert_eq!(ctx.new_bytes, 3, "unseen suffix only");
        assert_eq!(stream_vec(&r, &ctx), b"abcdefghi");
        assert_eq!(r.stats().overlap_trimmed, 1);
    }

    fn keep_last(max_flows: usize) -> StreamReassembler {
        StreamReassembler::with_config(ReassemblyConfig {
            max_flows,
            limits: DirLimits::default(),
            overlap: OverlapPolicy::KeepLast,
        })
    }

    /// The Ptacek–Newsham overlap ambiguity: the same schedule — "falun"
    /// then a same-range retransmit carrying "files" — reassembles to
    /// different streams under the two policies. This is the divergence
    /// surface E13's overlapping-retransmit evasion class exercises.
    #[test]
    fn overlap_policy_decides_which_retransmit_copy_wins() {
        // KeepFirst (default): the first copy is the stream on record.
        let mut r = StreamReassembler::new();
        handshake(&mut r);
        let _ = r.process(&pkt(
            C,
            S,
            4000,
            80,
            101,
            TcpFlags::psh_ack(),
            b"GET /falun",
        ));
        let ctx = r
            .process(&pkt(C, S, 4000, 80, 106, TcpFlags::psh_ack(), b"files"))
            .expect("retransmit");
        assert!(!ctx.appended);
        assert_eq!(stream_vec(&r, &ctx), b"GET /falun");
        assert_eq!(r.stats().dup_ignored, 1);
        assert_eq!(r.stats().overlap_rewritten, 0);

        // KeepLast: the later copy rewrites the buffered bytes.
        let mut r = keep_last(MAX_FLOWS);
        handshake(&mut r);
        let _ = r.process(&pkt(
            C,
            S,
            4000,
            80,
            101,
            TcpFlags::psh_ack(),
            b"GET /falun",
        ));
        let ctx = r
            .process(&pkt(C, S, 4000, 80, 106, TcpFlags::psh_ack(), b"files"))
            .expect("retransmit");
        assert!(!ctx.appended, "rewritten bytes are not new bytes");
        assert_eq!(stream_vec(&r, &ctx), b"GET /files");
        assert_eq!(r.stats().overlap_rewritten, 1);
        assert_eq!(r.stats().dup_ignored, 0);
    }

    /// KeepLast on a partial overlap: the already-seen prefix rewrites and
    /// the unseen suffix still appends (one decision, counted once).
    #[test]
    fn keep_last_partial_overlap_rewrites_prefix_and_appends_suffix() {
        let mut r = keep_last(MAX_FLOWS);
        handshake(&mut r);
        let _ = r.process(&pkt(C, S, 4000, 80, 101, TcpFlags::psh_ack(), b"abcdef"));
        // Covers [104, 112): "DEF" rewrites, "ghi" is new.
        let ctx = r
            .process(&pkt(C, S, 4000, 80, 104, TcpFlags::psh_ack(), b"DEFghi"))
            .expect("ctx");
        assert_eq!(ctx.new_bytes, 3, "suffix only");
        assert_eq!(stream_vec(&r, &ctx), b"abcDEFghi");
        let s = r.stats();
        assert_eq!(s.overlap_rewritten, 1);
        assert_eq!(s.overlap_trimmed, 0, "one decision, not two");
    }

    /// KeepLast conflicts held out of order resolve on drain: two copies of
    /// the same future range, the later one wins once the gap fills.
    #[test]
    fn keep_last_resolves_held_out_of_order_conflicts() {
        let mut r = keep_last(MAX_FLOWS);
        handshake(&mut r);
        let _ = r.process(&pkt(C, S, 4000, 80, 106, TcpFlags::psh_ack(), b"falun"));
        let _ = r.process(&pkt(C, S, 4000, 80, 106, TcpFlags::psh_ack(), b"files"));
        assert_eq!(r.stats().ooo_held, 2, "both copies held across the gap");
        let ctx = r
            .process(&pkt(C, S, 4000, 80, 101, TcpFlags::psh_ack(), b"GET /"))
            .expect("fill");
        assert_eq!(stream_vec(&r, &ctx), b"GET /files", "later copy wins");
        assert_eq!(r.stats().overlap_rewritten, 1);
    }

    /// A rewrite reaching behind the live window only touches bytes still
    /// buffered — compacted history cannot be resurrected.
    #[test]
    fn keep_last_rewrite_is_clipped_to_the_live_window() {
        let mut r = StreamReassembler::with_config(ReassemblyConfig {
            max_flows: MAX_FLOWS,
            limits: DirLimits {
                window: 8,
                holdback: 64,
            },
            overlap: OverlapPolicy::KeepLast,
        });
        handshake(&mut r);
        let _ = r.process(&pkt(
            C,
            S,
            4000,
            80,
            101,
            TcpFlags::psh_ack(),
            b"0123456789ab",
        ));
        // Window now holds "456789ab" (last 8). A retransmit of [101, 113)
        // rewrites only the windowed tail.
        let ctx = r
            .process(&pkt(
                C,
                S,
                4000,
                80,
                101,
                TcpFlags::psh_ack(),
                b"XXXXXXXXXXXX",
            ))
            .expect("ctx");
        assert_eq!(stream_vec(&r, &ctx), b"XXXXXXXX");
        assert_eq!(r.stats().overlap_rewritten, 1);
    }

    /// The RST teardown leaves a flight-recorder record naming the decision
    /// (the §4.1 causal chain's first divergent step for TCB-desync runs).
    #[test]
    fn rst_teardown_emits_trace_record() {
        let mut r = StreamReassembler::new();
        let tracer = Tracer::with_capacity(16);
        r.set_tracer(tracer.clone());
        handshake(&mut r);
        r.set_now(42);
        let _ = r.process(&pkt(C, S, 4000, 80, 101, TcpFlags::rst(), b""));
        let records = tracer.records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].kind, "rst_teardown");
        assert_eq!(records[0].stage, "stream");
        assert_eq!(records[0].t_ns, 42);
        // An RST against an untracked flow tears nothing down: no record.
        let _ = r.process(&pkt(C, S, 4999, 80, 7, TcpFlags::rst(), b""));
        assert_eq!(tracer.records().len(), 1);
    }

    #[test]
    fn pure_duplicates_are_ignored_and_counted() {
        let mut r = StreamReassembler::new();
        handshake(&mut r);
        let d = pkt(C, S, 4000, 80, 101, TcpFlags::psh_ack(), b"payload");
        let _ = r.process(&d);
        let ctx = r.process(&d).expect("dup");
        assert!(!ctx.appended);
        assert_eq!(ctx.new_bytes, 0);
        assert_eq!(stream_vec(&r, &ctx), b"payload", "stream unchanged");
        assert_eq!(r.stats().dup_ignored, 1);
    }

    #[test]
    fn sequence_wrap_does_not_desync() {
        // A flow whose payload crosses the 2^32 sequence wrap: windowed
        // comparisons keep appending where exact arithmetic would desync.
        let mut r = StreamReassembler::new();
        let start = u32::MAX - 4; // 5 bytes before the wrap
        let d1 = pkt(C, S, 4000, 80, start, TcpFlags::psh_ack(), b"abcde");
        let ctx = r.process(&d1).expect("pre-wrap");
        assert!(ctx.appended);
        // Next expected seq is 0 (wrapped). A duplicate of the pre-wrap
        // bytes must be recognized as stale, not future.
        let dup = pkt(C, S, 4000, 80, start, TcpFlags::psh_ack(), b"abcde");
        let ctx = r.process(&dup).expect("dup");
        assert!(!ctx.appended, "pre-wrap retransmit is stale");
        let d2 = pkt(C, S, 4000, 80, 0, TcpFlags::psh_ack(), b"fghij");
        let ctx = r.process(&d2).expect("post-wrap");
        assert!(ctx.appended);
        assert_eq!(stream_vec(&r, &ctx), b"abcdefghij");
        // An overlapping retransmit straddling the wrap keeps its suffix.
        let straddle = pkt(
            C,
            S,
            4000,
            80,
            u32::MAX - 1,
            TcpFlags::psh_ack(),
            b"deFGHIJKL",
        );
        let ctx = r.process(&straddle).expect("straddle");
        assert_eq!(ctx.new_bytes, 2);
        assert_eq!(stream_vec(&r, &ctx), b"abcdefghijKL");
    }

    #[test]
    fn holdback_budget_drops_and_counts_excess() {
        let mut r = StreamReassembler::new();
        handshake(&mut r);
        // Fill the hold-back budget with a gap at the front.
        let mut seq = 201u32;
        let chunk = 1024;
        for _ in 0..(MAX_OOO_BUFFER / chunk) {
            let d = pkt(C, S, 4000, 80, seq, TcpFlags::psh_ack(), &vec![b'h'; chunk]);
            let ctx = r.process(&d).expect("held");
            assert!(!ctx.appended);
            seq = seq.wrapping_add(chunk as u32);
        }
        assert_eq!(r.stats().ooo_held, (MAX_OOO_BUFFER / chunk) as u64);
        // The budget is full: the next out-of-order byte is dropped.
        let over = pkt(C, S, 4000, 80, seq, TcpFlags::psh_ack(), b"x");
        let _ = r.process(&over);
        assert_eq!(r.stats().ooo_dropped, 1);
        // A segment displaced beyond the window is dropped outright.
        let far = pkt(
            C,
            S,
            4000,
            80,
            101 + MAX_DIR_BUFFER as u32 + 1,
            TcpFlags::psh_ack(),
            b"x",
        );
        let _ = r.process(&far);
        assert_eq!(r.stats().ooo_dropped, 2);
        // In-order data still flows and releases everything held.
        let fill = pkt(C, S, 4000, 80, 101, TcpFlags::psh_ack(), &[b'f'; 100]);
        let ctx = r.process(&fill).expect("fill");
        assert_eq!(ctx.new_bytes, 100 + MAX_OOO_BUFFER);
    }

    /// ISSUE satellite: the hold-back cap and flow-table capacity are
    /// construction-time knobs, not baked-in constants.
    #[test]
    fn limits_and_capacity_are_configurable() {
        let cfg = ReassemblyConfig {
            max_flows: 2,
            limits: DirLimits {
                window: 64,
                holdback: 16,
            },
            overlap: OverlapPolicy::KeepFirst,
        };
        let mut r: StreamReassembler = StreamReassembler::with_config(cfg);
        assert_eq!(r.limits(), cfg.limits);
        assert_eq!(r.flow_capacity(), 2);
        // An out-of-order segment over the reduced hold-back budget drops
        // where the default budget would have held it.
        let _ = r.process(&pkt(C, S, 4000, 80, 100, TcpFlags::psh_ack(), b"a"));
        let over = pkt(C, S, 4000, 80, 110, TcpFlags::psh_ack(), &[b'x'; 17]);
        let _ = r.process(&over);
        assert_eq!(r.stats().ooo_dropped, 1, "17 bytes > 16-byte hold-back");
        let within = pkt(C, S, 4000, 80, 110, TcpFlags::psh_ack(), &[b'x'; 16]);
        let _ = r.process(&within);
        assert_eq!(r.stats().ooo_held, 1, "16 bytes fit the budget");
        // The in-order window trims to 64 bytes.
        let bulk = pkt(C, S, 4000, 80, 101, TcpFlags::psh_ack(), &[b'y'; 200]);
        let ctx = r.process(&bulk).expect("bulk");
        assert!(ctx.stream_len <= 64);
        // A third flow evicts the oldest: capacity 2 is enforced.
        let _ = r.process(&pkt(C, S, 4001, 80, 1, TcpFlags::syn(), b""));
        let _ = r.process(&pkt(C, S, 4002, 80, 1, TcpFlags::syn(), b""));
        assert_eq!(r.flow_count(), 2);
        assert_eq!(r.stats().evicted, 1);
    }

    /// ISSUE satellite: for arbitrary segmentation, duplication, bounded
    /// reordering and overlapping retransmit schedules within the hold-back
    /// bound, the monitor's reconstructed stream equals what the endpoint
    /// (receiving the same bytes in order) would see — byte for byte.
    #[test]
    fn monitor_stream_matches_endpoint_under_impairment_schedules() {
        use underradar_netsim::testprop::cases;
        cases(64, 0xD1CE_BEEF, |g| {
            let total = g.usize_in(64, 2048);
            let stream: Vec<u8> = (0..total).map(|_| g.u8()).collect();
            let isn = g.u32(); // exercise arbitrary (incl. wrapping) bases
                               // Cut the stream into segments.
            let mut segs = Vec::new();
            let mut off = 0usize;
            while off < total {
                let len = g.usize_in(1, 1 + (total - off).min(256));
                segs.push((off, len));
                off += len;
            }
            // Delivery schedule: bounded displacement (hold-back-sized),
            // occasional duplicates and overlapping re-sends.
            let mut schedule: Vec<(usize, usize, usize)> = Vec::new(); // (rank, off, len)
            for (i, &(off, len)) in segs.iter().enumerate() {
                let rank = i * 4 + g.usize_in(0, 8); // displacement ≤ 2 slots
                schedule.push((rank, off, len));
                if g.usize_in(0, 8) == 0 {
                    schedule.push((rank + g.usize_in(0, 8), off, len)); // duplicate
                }
                if off > 0 && g.usize_in(0, 8) == 0 {
                    // Overlapping retransmit reaching back a few bytes.
                    let back = g.usize_in(1, off.min(32) + 1);
                    schedule.push((rank + g.usize_in(0, 4), off - back, len.min(back + 16)));
                }
            }
            schedule.sort_by_key(|&(rank, off, _)| (rank, off));
            let mut r = StreamReassembler::new();
            let wrap = |o: usize| isn.wrapping_add(o as u32);
            // Sync the monitor at the stream base, as a SYN would.
            let _ = r.process(&pkt(
                C,
                S,
                4000,
                80,
                wrap(0),
                TcpFlags::psh_ack(),
                &stream[..1],
            ));
            let mut ctx = None;
            let mut reassembled = 1usize;
            for &(_, off, len) in &schedule {
                let end = (off + len).min(total);
                let p = pkt(
                    C,
                    S,
                    4000,
                    80,
                    wrap(off),
                    TcpFlags::psh_ack(),
                    &stream[off..end],
                );
                let c = r.process(&p).expect("tcp");
                reassembled += c.new_bytes;
                ctx = Some(c);
            }
            let ctx = ctx.expect("nonempty schedule");
            let got = r.stream_of(&ctx.key, ctx.direction);
            let want = &stream[total - got.len()..];
            assert_eq!(got, want, "monitor window diverged from endpoint stream");
            assert_eq!(reassembled, total, "every byte reassembled exactly once");
            assert_eq!(r.stats().ooo_dropped, 0, "schedule stayed within bounds");
        });
    }

    /// ISSUE satellite: for any delivery schedule, the flight recorder's
    /// stream-stage record count equals the sum of the stage's decision
    /// counters — the trace is complete by construction, never sampled.
    #[test]
    fn trace_record_count_equals_stage_decision_counters() {
        use underradar_netsim::testprop::cases;
        cases(48, 0x7AC3_0001, |g| {
            let total = g.usize_in(64, 2048);
            let stream: Vec<u8> = (0..total).map(|_| g.u8()).collect();
            let isn = g.u32();
            let mut segs = Vec::new();
            let mut off = 0usize;
            while off < total {
                let len = g.usize_in(1, 1 + (total - off).min(256));
                segs.push((off, len));
                off += len;
            }
            // Unbounded displacement on purpose: this schedule may overflow
            // the hold-back budget, so every decision kind can fire.
            let mut schedule: Vec<(usize, usize, usize)> = Vec::new();
            for (i, &(off, len)) in segs.iter().enumerate() {
                let rank = i * 4 + g.usize_in(0, 40);
                schedule.push((rank, off, len));
                if g.usize_in(0, 6) == 0 {
                    schedule.push((rank + g.usize_in(0, 12), off, len));
                }
                if off > 0 && g.usize_in(0, 6) == 0 {
                    let back = g.usize_in(1, off.min(32) + 1);
                    schedule.push((rank + g.usize_in(0, 6), off - back, len.min(back + 16)));
                }
            }
            schedule.sort_by_key(|&(rank, off, _)| (rank, off));
            let mut r = StreamReassembler::new();
            let tracer = Tracer::with_capacity(1 << 16); // never evicts here
            r.set_tracer(tracer.clone());
            let wrap = |o: usize| isn.wrapping_add(o as u32);
            let _ = r.process(&pkt(
                C,
                S,
                4000,
                80,
                wrap(0),
                TcpFlags::psh_ack(),
                &stream[..1],
            ));
            for (i, &(_, off, len)) in schedule.iter().enumerate() {
                r.set_now(i as u64);
                let end = (off + len).min(total);
                let p = pkt(
                    C,
                    S,
                    4000,
                    80,
                    wrap(off),
                    TcpFlags::psh_ack(),
                    &stream[off..end],
                );
                let _ = r.process(&p);
            }
            let s = r.stats();
            let decisions = s.ooo_held
                + s.ooo_dropped
                + s.overlap_trimmed
                + s.overlap_rewritten
                + s.dup_ignored
                + s.evicted;
            assert_eq!(
                tracer.records().len() as u64 + tracer.dropped(),
                decisions,
                "one trace record per reassembly decision"
            );
            assert_eq!(tracer.dropped(), 0, "capacity chosen to avoid eviction");
            assert!(
                tracer.records().iter().all(|rec| rec.stage == "stream"),
                "only stream-stage records on this path"
            );
        });
    }

    #[test]
    fn rst_teardown_stops_tracking() {
        let mut r = StreamReassembler::new();
        handshake(&mut r);
        let key = FlowKey::of(
            &pkt(C, S, 4000, 80, 0, TcpFlags::ack(), b""),
            pkt(C, S, 4000, 80, 0, TcpFlags::ack(), b"")
                .as_tcp()
                .expect("t"),
        );
        assert!(r.is_tracked(&key));
        let rst = pkt(C, S, 4000, 80, 101, TcpFlags::rst(), b"");
        let ctx = r.process(&rst).expect("rst ctx");
        assert!(ctx.established, "context reflects the flow that died");
        assert!(ctx.torn_down);
        assert!(ctx.id.is_some(), "dying flow still names its handle");
        assert!(!r.is_tracked(&key), "flow forgotten after RST");
        assert_eq!(r.stats().rst_teardowns, 1);
        assert_eq!(r.order_len(), 0, "order bookkeeping freed with the flow");
        // Subsequent data is a fresh, non-established flow: the censor has
        // lost the stream — the paper's exploit.
        let more = pkt(C, S, 4000, 80, 106, TcpFlags::psh_ack(), b"secret keyword");
        let ctx = r.process(&more).expect("more");
        assert!(!ctx.established);
    }

    #[test]
    fn rst_teardown_can_be_disabled() {
        let mut r = StreamReassembler::new();
        r.rst_teardown = false;
        handshake(&mut r);
        let rst = pkt(C, S, 4000, 80, 101, TcpFlags::rst(), b"");
        let _ = r.process(&rst);
        let key = FlowKey::of(
            &pkt(C, S, 4000, 80, 0, TcpFlags::ack(), b""),
            pkt(C, S, 4000, 80, 0, TcpFlags::ack(), b"")
                .as_tcp()
                .expect("t"),
        );
        assert!(r.is_tracked(&key), "ablation: RST ignored");
        let more = pkt(C, S, 4000, 80, 101, TcpFlags::psh_ack(), b"keyword");
        let ctx = r.process(&more).expect("more");
        assert!(ctx.established, "flow still established");
    }

    #[test]
    fn mid_stream_pickup_syncs() {
        let mut r = StreamReassembler::new();
        // Monitor sees only the data segment (no handshake observed).
        let d = pkt(
            C,
            S,
            4000,
            80,
            7777,
            TcpFlags::psh_ack(),
            b"mid-stream data",
        );
        let ctx = r.process(&d).expect("ctx");
        assert!(ctx.appended);
        assert!(!ctx.established);
        assert_eq!(stream_vec(&r, &ctx), b"mid-stream data");
        let d2 = pkt(C, S, 4000, 80, 7777 + 15, TcpFlags::psh_ack(), b" more");
        let ctx = r.process(&d2).expect("ctx2");
        assert_eq!(stream_vec(&r, &ctx), b"mid-stream data more");
    }

    #[test]
    fn buffer_is_bounded() {
        let mut r = StreamReassembler::new();
        handshake(&mut r);
        let mut seq = 101u32;
        for _ in 0..20 {
            let payload = vec![b'x'; 1000];
            let d = pkt(C, S, 4000, 80, seq, TcpFlags::psh_ack(), &payload);
            let ctx = r.process(&d).expect("ctx");
            assert!(ctx.stream_len <= MAX_DIR_BUFFER);
            assert_eq!(r.stream_of(&ctx.key, ctx.direction).len(), ctx.stream_len);
            seq = seq.wrapping_add(1000);
        }
    }

    #[test]
    fn window_keeps_the_tail() {
        let mut r = StreamReassembler::new();
        handshake(&mut r);
        let mut seq = 101u32;
        // 3 * MAX bytes with a recognizable final chunk.
        let total = 3 * MAX_DIR_BUFFER;
        let chunk = 512;
        let mut sent = Vec::new();
        let mut last_ctx = None;
        for i in 0..(total / chunk) {
            let payload: Vec<u8> = (0..chunk).map(|j| ((i * chunk + j) % 251) as u8).collect();
            sent.extend_from_slice(&payload);
            let d = pkt(C, S, 4000, 80, seq, TcpFlags::psh_ack(), &payload);
            last_ctx = r.process(&d);
            seq = seq.wrapping_add(chunk as u32);
        }
        let ctx = last_ctx.expect("ctx");
        let window = r.stream_of(&ctx.key, ctx.direction);
        assert_eq!(window.len(), MAX_DIR_BUFFER);
        assert_eq!(
            window,
            &sent[sent.len() - MAX_DIR_BUFFER..],
            "window is the stream tail"
        );
    }

    #[test]
    fn non_tcp_packets_are_ignored() {
        let mut r = StreamReassembler::new();
        let udp = Packet::udp(C, S, 1, 2, b"dgram".to_vec());
        assert!(r.process(&udp).is_none());
        assert_eq!(r.stats().segments, 0);
    }

    #[test]
    fn flow_key_is_direction_independent() {
        let fwd = pkt(C, S, 4000, 80, 0, TcpFlags::ack(), b"");
        let rev = pkt(S, C, 80, 4000, 0, TcpFlags::ack(), b"");
        let k1 = FlowKey::of(&fwd, fwd.as_tcp().expect("t"));
        let k2 = FlowKey::of(&rev, rev.as_tcp().expect("t"));
        assert_eq!(k1, k2);
    }

    #[test]
    fn fin_close_tears_down_and_counts_separately() {
        let mut r = StreamReassembler::new();
        handshake(&mut r);
        let _ = r.process(&pkt(C, S, 4000, 80, 101, TcpFlags::psh_ack(), b"req"));
        // FIN from client, FIN+ACK from server, final ACK from client.
        let _ = r.process(&pkt(C, S, 4000, 80, 104, TcpFlags::fin_ack(), b""));
        let _ = r.process(&pkt(S, C, 80, 4000, 501, TcpFlags::fin_ack(), b""));
        let key = FlowKey::of(
            &pkt(C, S, 4000, 80, 0, TcpFlags::ack(), b""),
            pkt(C, S, 4000, 80, 0, TcpFlags::ack(), b"")
                .as_tcp()
                .expect("t"),
        );
        assert!(r.is_tracked(&key), "tracked until the close completes");
        let ctx = r
            .process(&pkt(C, S, 4000, 80, 105, TcpFlags::ack(), b""))
            .expect("ack");
        assert!(ctx.torn_down);
        assert!(!r.is_tracked(&key));
        let stats = r.stats();
        assert_eq!(stats.fin_teardowns, 1);
        assert_eq!(stats.removals, 0);
        assert_eq!(stats.rst_teardowns, 0);
    }

    #[test]
    fn explicit_remove_counts_as_removal_not_fin() {
        let mut r = StreamReassembler::new();
        handshake(&mut r);
        let key = FlowKey::of(
            &pkt(C, S, 4000, 80, 0, TcpFlags::ack(), b""),
            pkt(C, S, 4000, 80, 0, TcpFlags::ack(), b"")
                .as_tcp()
                .expect("t"),
        );
        r.remove(&key);
        assert!(!r.is_tracked(&key));
        assert_eq!(r.stats().removals, 1);
        assert_eq!(r.stats().fin_teardowns, 0, "stat split: not a FIN teardown");
        assert_eq!(r.order_len(), 0, "no stale order entry after remove()");
        // Removing again is a no-op.
        r.remove(&key);
        assert_eq!(r.stats().removals, 1);
    }

    /// A test consumer state: a value written to the flow.
    impl FlowState for u32 {
        fn reset(&mut self) {
            *self = 0;
        }
    }

    /// Leak regression (property): under random create/remove/RST churn the
    /// order bookkeeping tracks live flows exactly.
    #[test]
    fn order_stays_bounded_by_live_flows_under_churn() {
        use underradar_netsim::testprop::cases;
        cases(32, 0xC0FFEE, |g| {
            let mut r = StreamReassembler::new();
            for _ in 0..400 {
                let sport = 1000 + g.usize_in(0, 64) as u16;
                let action = g.usize_in(0, 10);
                let p = match action {
                    0 => pkt(C, S, sport, 80, g.u32(), TcpFlags::rst(), b""),
                    1..=2 => pkt(C, S, sport, 80, g.u32(), TcpFlags::syn(), b""),
                    _ => pkt(
                        C,
                        S,
                        sport,
                        80,
                        g.u32(),
                        TcpFlags::psh_ack(),
                        &g.bytes(0, 32),
                    ),
                };
                let _ = r.process(&p);
                if action == 3 {
                    let key = FlowKey::of(&p, p.as_tcp().expect("t"));
                    r.remove(&key);
                }
                assert_eq!(r.order_len(), r.flow_count(), "order == live flows");
                assert!(r.flow_count() <= 64);
            }
        });
    }

    /// A reset reassembler hands out the flow handles, states and
    /// statistics a new one does, from the storage it already holds.
    #[test]
    fn reset_reassembler_replays_as_a_new_one() {
        let run = |r: &mut StreamReassembler<u32>| -> Vec<String> {
            (0..40u16)
                .map(|i| {
                    let sport = 40_000 + i % 8;
                    let p = match i % 5 {
                        0 => pkt(C, S, sport, 80, 1, TcpFlags::syn(), b""),
                        4 => pkt(C, S, sport, 80, 2, TcpFlags::rst(), b""),
                        _ => pkt(C, S, sport, 80, 2, TcpFlags::psh_ack(), b"abc"),
                    };
                    let ctx = r.process(&p).expect("tcp");
                    if let Some(st) = ctx.id.and_then(|id| r.state_mut(id)) {
                        *st += 1;
                    }
                    format!("{:?} {} {}", ctx.id, ctx.new_bytes, r.state_count())
                })
                .collect()
        };
        let mut fresh = StreamReassembler::<u32>::default();
        let expected = run(&mut fresh);
        let mut reused = StreamReassembler::<u32>::default();
        run(&mut reused);
        let table_bytes = reused.table_bytes();
        reused.reset();
        assert_eq!((reused.flow_count(), reused.state_count()), (0, 0));
        assert_eq!(reused.table_bytes(), table_bytes, "storage kept");
        assert_eq!(run(&mut reused), expected);
        assert_eq!(
            format!("{:?}", reused.stats()),
            format!("{:?}", fresh.stats())
        );
    }

    /// Acceptance-scale churn: a million distinct flows (with interleaved
    /// RST teardowns) leave bookkeeping exactly equal to live flows, which
    /// the LRU caps at [`MAX_FLOWS`]. The seed's `Vec::remove(0)` eviction
    /// and its stale-key leak made this O(n²) and unbounded respectively.
    ///
    /// Every third flow also carries consumer state (its own index), and
    /// a model of the live flows, oldest first, follows the churn. At each
    /// checkpoint the touched count equals the written live flows, every
    /// live flow reads back its own value (or `None` if never written),
    /// and the state store stays within the slab.
    #[test]
    fn one_million_flow_churn_keeps_bookkeeping_bounded() {
        let mut r: StreamReassembler<u32> = StreamReassembler::default();
        // Full scale only under optimization (~3 s); debug builds run a
        // reduced churn that still crosses the eviction cap. CI runs the
        // release flavour explicitly (scripts/ci.sh).
        let total: u32 = if cfg!(debug_assertions) {
            150_000
        } else {
            1_000_000
        };
        let written = |i: u32| i.is_multiple_of(3);
        let mut live: std::collections::VecDeque<(u32, FlowId)> = Default::default();
        let mut live_written = 0;
        for i in 0..total {
            let src = Ipv4Addr::from(0x0a00_0000 | (i >> 4));
            let sport = 40_000 + (i & 0xF) as u16;
            let evicted = r.stats().evicted;
            let syn = pkt(src, S, sport, 80, 100, TcpFlags::syn(), b"");
            let id = r.process(&syn).and_then(|ctx| ctx.id).expect("new flow");
            if r.stats().evicted > evicted {
                let (oldest, _) = live.pop_front().expect("a live flow was evicted");
                live_written -= usize::from(written(oldest));
            }
            if written(i) {
                *r.state_mut(id).expect("live flow") = i + 1;
                live_written += 1;
            }
            if i % 7 == 0 {
                let rst = pkt(src, S, sport, 80, 101, TcpFlags::rst(), b"");
                r.process(&rst);
                live_written -= usize::from(written(i));
            } else {
                live.push_back((i, id));
            }
            if i % 65_536 == 0 || i == total - 1 {
                assert_eq!(r.order_len(), r.flow_count(), "bookkeeping == live flows");
                assert_eq!(
                    r.state_count(),
                    live_written,
                    "touched == written live flows"
                );
                assert!(
                    r.state_slots() <= r.slab_size(),
                    "state store within the slab"
                );
                for &(j, id) in &live {
                    let want = written(j).then_some(j + 1);
                    assert_eq!(r.state(id).copied(), want, "flow {j} keeps its own state");
                }
            }
        }
        assert_eq!(r.order_len(), r.flow_count());
        assert!(r.flow_count() <= MAX_FLOWS);
        assert!(
            r.slab_size() <= MAX_FLOWS,
            "slab bounded by the live high-water mark, not churn"
        );
        let stats = r.stats();
        assert_eq!(stats.flows_created, u64::from(total));
        assert_eq!(
            stats.flows_created,
            stats.rst_teardowns + stats.evicted + r.flow_count() as u64,
            "every created flow is live, evicted, or torn down"
        );
    }

    /// Throughput smoke: reassembling a 1 MB flow never clones per segment —
    /// total bytes copied stays ≤ 2× the payload (append + amortized window
    /// compaction), where the seed's per-segment `stream.clone()` would have
    /// copied ~8 KB × 1024 segments ≈ 8 MB into contexts alone.
    #[test]
    fn one_megabyte_flow_copies_at_most_twice_the_payload() {
        let mut r = StreamReassembler::new();
        handshake(&mut r);
        let total: usize = 1 << 20;
        let chunk = 1024;
        let mut seq = 101u32;
        for _ in 0..(total / chunk) {
            let d = pkt(C, S, 4000, 80, seq, TcpFlags::psh_ack(), &vec![b'x'; chunk]);
            let ctx = r.process(&d).expect("ctx");
            assert!(ctx.appended);
            seq = seq.wrapping_add(chunk as u32);
        }
        let stats = r.stats();
        assert_eq!(stats.bytes_appended, total as u64);
        assert!(
            stats.bytes_copied() <= 2 * total as u64,
            "copied {} bytes for a {} byte stream",
            stats.bytes_copied(),
            total
        );
    }
}
