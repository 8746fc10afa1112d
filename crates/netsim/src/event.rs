//! The deterministic event queue.
//!
//! Events are ordered by simulated time with a monotonically increasing
//! sequence number as tie-breaker, so two events scheduled for the same
//! instant fire in the order they were scheduled — determinism does not
//! depend on queue internals.
//!
//! [`EventQueue`] is a hierarchical timer wheel ([`TimerWheel`]): six
//! levels of 64 slots over a 1.024 µs tick, occupancy bitmaps for slot
//! scans, and an overflow heap past the ~19 h horizon. Insertion is O(1)
//! (two shifts and a bitmap OR), which is what same-granularity timer
//! storms (retransmits, teardowns, link deliveries across a population)
//! actually exercise. Slot contents are sorted by `(time, seq)` when the
//! wheel reaches them, so the pop sequence is *identical* to a plain
//! `BinaryHeap`'s — property-tested in this module against a test-only
//! heap queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::node::{IfaceId, NodeId};
use crate::packet::Packet;
use crate::time::SimTime;

/// An opaque handle identifying a timer set by a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerToken(pub u64);

/// What happens when an event fires.
#[derive(Debug, Clone)]
pub enum EventKind {
    /// Deliver a packet to a node's interface.
    Deliver {
        /// Receiving node.
        node: NodeId,
        /// Receiving interface on that node.
        iface: IfaceId,
        /// The packet being delivered.
        packet: Packet,
    },
    /// Fire a timer on a node.
    Timer {
        /// The node whose timer fires.
        node: NodeId,
        /// The token the node received when setting the timer.
        token: TimerToken,
    },
    /// Put a packet onto the link wired at a node's interface, as if the
    /// node had emitted it at the event's time. Used by
    /// [`crate::sim::Simulator::send_from`] so scheduled sends touch link
    /// state (serialization horizon, loss draws) in simulated-time order,
    /// not call order.
    Transmit {
        /// Emitting node.
        node: NodeId,
        /// Emitting interface on that node.
        iface: IfaceId,
        /// The packet to transmit.
        packet: Packet,
    },
}

/// A scheduled event.
#[derive(Debug, Clone)]
pub struct Event {
    /// When the event fires.
    pub time: SimTime,
    /// Scheduling order, used as a tie-breaker for equal times.
    pub seq: u64,
    /// The action.
    pub kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Slots per wheel level (one occupancy `u64` per level).
const WHEEL_SLOTS: usize = 64;
/// Bits of tick index consumed per level.
const LEVEL_BITS: u32 = 6;
/// Wheel levels; spans `64^6` ticks (~19.5 h at a 1.024 µs tick) before
/// the overflow heap takes over.
const WHEEL_LEVELS: usize = 6;
/// log2 of the tick length in nanoseconds (1024 ns ≈ 1 µs).
const TICK_SHIFT: u32 = 10;

/// A hierarchical timer wheel that pops in `(time, seq)` order.
///
/// Invariants:
///
/// * `current` is the tick of the most recently drained level-0 slot;
///   every pending wheel event has a tick `> current` (events landing at
///   or before `current` go straight into the sorted `ready` buffer).
/// * An event lives at the level of the highest 6-bit tick digit where
///   its tick differs from `current`, in the slot named by its own digit
///   at that level. Whenever `current` changes a digit, the slot now
///   named by that digit is drained and its events re-filed lower, so a
///   level's current-digit slot is always empty.
/// * Events past the wheel's horizon wait in an overflow heap; they are
///   strictly later than every wheel event, so they re-file only when the
///   wheel drains empty.
#[derive(Debug)]
pub struct TimerWheel {
    levels: Vec<Vec<Vec<Event>>>,
    occupied: [u64; WHEEL_LEVELS],
    /// Tick of the last drained level-0 slot.
    current: u64,
    /// Events due now, sorted by `(time, seq)` descending (pop from the
    /// end yields the minimum).
    ready: Vec<Event>,
    overflow: BinaryHeap<Event>,
    len: usize,
}

impl Default for TimerWheel {
    fn default() -> Self {
        TimerWheel {
            levels: (0..WHEEL_LEVELS)
                .map(|_| (0..WHEEL_SLOTS).map(|_| Vec::new()).collect())
                .collect(),
            occupied: [0; WHEEL_LEVELS],
            current: 0,
            ready: Vec::new(),
            overflow: BinaryHeap::new(),
            len: 0,
        }
    }
}

impl TimerWheel {
    /// Create an empty wheel.
    pub fn new() -> Self {
        Self::default()
    }

    fn tick_of(time: SimTime) -> u64 {
        time.as_nanos() >> TICK_SHIFT
    }

    fn digit(tick: u64, level: usize) -> usize {
        ((tick >> (LEVEL_BITS * level as u32)) & (WHEEL_SLOTS as u64 - 1)) as usize
    }

    /// File an event into `ready`, a wheel slot, or the overflow heap —
    /// seq already assigned, `len` already accounted.
    fn file(&mut self, event: Event) {
        let tick = Self::tick_of(event.time);
        if tick <= self.current {
            // Due now (or scheduled into the past): keep `ready` sorted
            // descending by (time, seq) so the end is the minimum.
            let pos = self
                .ready
                .partition_point(|e| (e.time, e.seq) > (event.time, event.seq));
            self.ready.insert(pos, event);
            return;
        }
        let differing = tick ^ self.current;
        let level = ((63 - differing.leading_zeros()) / LEVEL_BITS) as usize;
        if level >= WHEEL_LEVELS {
            self.overflow.push(event);
            return;
        }
        let slot = Self::digit(tick, level);
        self.levels[level][slot].push(event);
        self.occupied[level] |= 1 << slot;
    }

    /// Drain a level's slot, re-filing its events (lower levels or
    /// `ready`).
    fn cascade(&mut self, level: usize, slot: usize) {
        self.occupied[level] &= !(1 << slot);
        let events = std::mem::take(&mut self.levels[level][slot]);
        for event in events {
            self.file(event);
        }
    }

    /// Advance the wheel until `ready` holds the next due events (or the
    /// structure is empty).
    fn fill_ready(&mut self) {
        while self.ready.is_empty() && self.len > 0 {
            // Nearest occupied level-0 slot at or after the current digit.
            let d0 = Self::digit(self.current, 0);
            let mask = self.occupied[0] & (u64::MAX << d0);
            if mask != 0 {
                let slot = mask.trailing_zeros() as usize;
                self.current = (self.current & !(WHEEL_SLOTS as u64 - 1)) | slot as u64;
                self.occupied[0] &= !(1 << slot);
                let mut events = std::mem::take(&mut self.levels[0][slot]);
                events.sort_unstable_by_key(|e| std::cmp::Reverse((e.time, e.seq)));
                self.ready = events;
                continue;
            }
            // Level 0 exhausted for this window: pull the nearest
            // higher-level slot down. Strictly-greater digits only — the
            // current digit's slot is drained whenever `current` moves.
            let mut cascaded = false;
            for level in 1..WHEEL_LEVELS {
                let d = Self::digit(self.current, level);
                let mask = self.occupied[level] & (u64::MAX << d).wrapping_shl(1);
                if mask != 0 {
                    let slot = mask.trailing_zeros() as usize;
                    let shift = LEVEL_BITS * level as u32;
                    // Jump to the start of that slot's window.
                    self.current = (self.current & !(((1u64 << shift) << LEVEL_BITS) - 1))
                        | ((slot as u64) << shift);
                    self.cascade(level, slot);
                    cascaded = true;
                    break;
                }
            }
            if cascaded {
                continue;
            }
            // Wheel fully drained: jump to the overflow's earliest tick
            // and re-file everything within the new horizon.
            match self.overflow.peek() {
                Some(next) => {
                    self.current = Self::tick_of(next.time);
                    while let Some(e) = self.overflow.peek() {
                        let tick = Self::tick_of(e.time);
                        if (tick ^ self.current) >> (LEVEL_BITS * WHEEL_LEVELS as u32) != 0 {
                            break;
                        }
                        let event = self.overflow.pop().expect("peeked overflow event");
                        self.file(event);
                    }
                }
                None => return,
            }
        }
    }

    /// File `event` (seq must already be assigned by the caller).
    pub fn insert(&mut self, event: Event) {
        self.len += 1;
        self.file(event);
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        self.fill_ready();
        let event = self.ready.pop();
        if event.is_some() {
            self.len -= 1;
        }
        event
    }

    /// The earliest event without removing it.
    pub fn peek(&mut self) -> Option<&Event> {
        self.fill_ready();
        self.ready.last()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The simulator's min-queue of events: a [`TimerWheel`] with stable FIFO
/// ordering at equal timestamps.
#[derive(Debug, Default)]
pub struct EventQueue {
    wheel: TimerWheel,
    next_seq: u64,
}

impl EventQueue {
    /// Create an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `kind` at `time`.
    pub fn push(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.wheel.insert(Event { time, seq, kind });
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        self.wheel.pop()
    }

    /// The timestamp of the earliest event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.wheel.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.wheel.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn timer(node: usize, token: u64) -> EventKind {
        EventKind::Timer {
            node: NodeId(node),
            token: TimerToken(token),
        }
    }

    /// The reference min-queue the wheel is property-tested against: a
    /// binary heap with stable FIFO ordering at equal timestamps.
    #[derive(Default)]
    struct HeapQueue {
        heap: BinaryHeap<Event>,
        next_seq: u64,
    }

    impl HeapQueue {
        fn new() -> Self {
            Self::default()
        }

        fn push(&mut self, time: SimTime, kind: EventKind) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Event { time, seq, kind });
        }

        fn pop(&mut self) -> Option<Event> {
            self.heap.pop()
        }
    }

    fn token_of(e: &Event) -> u64 {
        match e.kind {
            EventKind::Timer { token, .. } => token.0,
            _ => unreachable!(),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        let t = |s| SimTime::ZERO + SimDuration::from_secs(s);
        q.push(t(3), timer(0, 3));
        q.push(t(1), timer(0, 1));
        q.push(t(2), timer(0, 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| token_of(&e))
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(100);
        for i in 0..50 {
            q.push(t, timer(0, i));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| token_of(&e))
            .collect();
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_tracks_minimum() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_nanos(50), timer(0, 0));
        q.push(SimTime::from_nanos(10), timer(0, 1));
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(10)));
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(50)));
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::ZERO, timer(0, 0));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_crosses_level_boundaries() {
        // Walk the wheel across several level-0 windows with pushes
        // interleaved between pops, including re-pushes at the just-popped
        // instant (which must land behind nothing).
        let mut q = EventQueue::new();
        let mut expected = Vec::new();
        for i in 0..200u64 {
            // Spread across ~4 level-1 windows (64 ticks per level-0 turn).
            let t = SimTime::from_nanos(i * 1500 * 1024 / 200 * 64);
            q.push(t, timer(0, i));
            expected.push((t, i));
        }
        expected.sort_by_key(|&(t, i)| (t, i));
        let mut popped = Vec::new();
        while let Some(e) = q.pop() {
            popped.push((e.time, token_of(&e)));
            // Occasionally push a later event mid-drain.
            if popped.len() == 50 {
                let t = e.time + SimDuration::from_millis(1);
                q.push(t, timer(0, 10_000));
            }
        }
        assert_eq!(popped.len(), 201);
        // The mid-drain push landed in time order.
        let idx = popped
            .iter()
            .position(|&(_, tok)| tok == 10_000)
            .expect("mid-drain event");
        assert!(popped[..idx].iter().all(|&(t, _)| t <= popped[idx].0));
    }

    #[test]
    fn overflow_events_past_the_horizon_still_order() {
        let mut q = EventQueue::new();
        // ~19.5 h horizon at a 1.024 µs tick; push one event a week out,
        // one a day out, one now.
        let day = SimTime::ZERO + SimDuration::from_hours(24);
        let week = SimTime::ZERO + SimDuration::from_hours(24 * 7);
        q.push(week, timer(0, 2));
        q.push(day, timer(0, 1));
        q.push(SimTime::from_nanos(5), timer(0, 0));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| token_of(&e))
            .collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    /// The satellite property test: random schedules (timer storms with
    /// clustered and far-flung times, interleaved pops, same-instant
    /// bursts) through the wheel and the heap must produce identical
    /// event traces.
    #[test]
    fn wheel_trace_equals_heap_trace_on_random_schedules() {
        crate::testprop::cases(150, 0x77EE1, |g| {
            let mut wheel = EventQueue::new();
            let mut heap = HeapQueue::new();
            let mut base = 0u64;
            let ops = g.usize_in(2, 400);
            let mut wheel_trace = Vec::new();
            let mut heap_trace = Vec::new();
            let mut pending = 0i64;
            for i in 0..ops {
                let roll = g.usize_in(0, 100);
                if roll < 60 || pending == 0 {
                    // Push: cluster most times near `base` (same-tick
                    // bursts), sprinkle far-future and past times.
                    let t = match g.usize_in(0, 10) {
                        0..=5 => base + g.u64() % 4096,
                        6..=7 => base + g.u64() % 200_000_000,
                        8 => base.saturating_sub(g.u64() % 10_000),
                        // Far out: exercises higher levels and overflow.
                        _ => base + 1_000_000_000 * (1 + g.u64() % 200_000),
                    };
                    let time = SimTime::from_nanos(t);
                    wheel.push(time, timer(0, i as u64));
                    heap.push(time, timer(0, i as u64));
                    pending += 1;
                } else {
                    let w = wheel.pop().expect("wheel has pending events");
                    let h = heap.pop().expect("heap has pending events");
                    // Advancing base past popped times keeps later pushes
                    // plausible (mostly-monotonic schedules) while the
                    // `past` arm still back-schedules.
                    base = base.max(w.time.as_nanos());
                    wheel_trace.push((w.time, w.seq, token_of(&w)));
                    heap_trace.push((h.time, h.seq, token_of(&h)));
                    pending -= 1;
                }
            }
            while let Some(w) = wheel.pop() {
                let h = heap.pop().expect("heap drains in lockstep");
                wheel_trace.push((w.time, w.seq, token_of(&w)));
                heap_trace.push((h.time, h.seq, token_of(&h)));
            }
            assert!(heap.pop().is_none(), "heap drained with the wheel");
            assert_eq!(
                wheel_trace, heap_trace,
                "wheel and heap event traces diverged"
            );
        });
    }
}
