//! The deterministic event queue.
//!
//! Events are ordered by simulated time with a monotonically increasing
//! sequence number as tie-breaker, so two events scheduled for the same
//! instant fire in the order they were scheduled — determinism does not
//! depend on queue internals.
//!
//! [`EventQueue`] is a hierarchical timer wheel: six levels of 64 slots
//! over a 1.024 µs tick, occupancy bitmaps for slot scans, and an
//! overflow heap past the ~19 h horizon. Wheel events sit in one arena of
//! cells per queue; each slot is an intrusive linked list through that
//! arena, and drained cells return to a free list, so the queue's
//! footprint follows its peak live load and a warm queue allocates
//! nothing. Insertion is O(1) (two shifts, a list push and a bitmap OR),
//! which is what same-granularity timer storms (retransmits, teardowns,
//! link deliveries across a population) actually exercise. Slot contents
//! are sorted by `(time, seq)` when the wheel reaches them, so the pop
//! sequence is *identical* to a plain `BinaryHeap`'s — property-tested in
//! this module against a test-only heap queue.

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
/// The null cell index: ends a slot list or the free list.
const NIL: u32 = u32::MAX;

/// One arena cell: an event filed in a wheel slot (`event` is `Some`,
/// `next` links the slot's list) or a free cell (`event` is `None`,
/// `next` links the free list).
#[derive(Debug)]
struct Cell {
    event: Option<Event>,
    next: u32,
}

/// The `(time, seq)` order key of a filed cell's event.
fn key(cells: &[Cell], idx: u32) -> (SimTime, u64) {
    let event = cells[idx as usize]
        .event
        .as_ref()
        .expect("a filed cell holds an event");
    (event.time, event.seq)
}

/// The simulator's min-queue of events: a hierarchical timer wheel that
/// pops in `(time, seq)` order, with stable FIFO ordering at equal
/// timestamps.
///
/// Wheel events live in one arena of cells; each slot is the head of an
/// intrusive singly linked list through it, and drained cells go back on
/// a free list, so a queue that has seen its peak load pushes and pops
/// without allocating.
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
/// * Slot lists are unordered; a level-0 slot's cells are sorted by
///   `(time, seq)` as they drain into `ready`. An event stays in its cell
///   from push to pop: cascades and drains move only cell indices.
/// * Events past the wheel's horizon wait in an overflow heap; they are
///   strictly later than every wheel event, so they re-file only when the
///   wheel drains empty.
#[derive(Debug)]
pub struct EventQueue {
    cells: Vec<Cell>,
    /// Head of the free-cell list.
    free: u32,
    /// Per level and slot, the head of that slot's cell list.
    heads: [[u32; WHEEL_SLOTS]; WHEEL_LEVELS],
    occupied: [u64; WHEEL_LEVELS],
    /// Tick of the last drained level-0 slot.
    current: u64,
    /// Cells of the events due now, sorted by `(time, seq)` descending
    /// (pop from the end yields the minimum).
    ready: Vec<u32>,
    overflow: BinaryHeap<Event>,
    len: usize,
    next_seq: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            cells: Vec::new(),
            free: NIL,
            heads: [[NIL; WHEEL_SLOTS]; WHEEL_LEVELS],
            occupied: [0; WHEEL_LEVELS],
            current: 0,
            ready: Vec::new(),
            overflow: BinaryHeap::new(),
            len: 0,
            next_seq: 0,
        }
    }
}

impl EventQueue {
    /// Create an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop every pending event and restart the sequence and the wheel at
    /// zero, as [`EventQueue::new`] does, keeping the cell arena: every
    /// cell goes back on the free list, so the next run files into
    /// storage already allocated. Which cells events land in never shows:
    /// pops follow `(time, seq)` alone.
    pub fn clear(&mut self) {
        self.free = NIL;
        for (idx, cell) in self.cells.iter_mut().enumerate().rev() {
            cell.event = None;
            cell.next = self.free;
            self.free = idx as u32;
        }
        self.heads = [[NIL; WHEEL_SLOTS]; WHEEL_LEVELS];
        self.occupied = [0; WHEEL_LEVELS];
        self.current = 0;
        self.ready.clear();
        self.overflow.clear();
        self.len = 0;
        self.next_seq = 0;
    }

    /// Schedule `kind` at `time`.
    pub fn push(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        self.file(Event { time, seq, kind });
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        self.fill_ready();
        let idx = self.ready.pop()?;
        self.len -= 1;
        Some(self.release(idx))
    }

    /// The timestamp of the earliest event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.fill_ready();
        self.ready.last().map(|&idx| key(&self.cells, idx).0)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn tick_of(time: SimTime) -> u64 {
        time.as_nanos() >> TICK_SHIFT
    }

    fn digit(tick: u64, level: usize) -> usize {
        ((tick >> (LEVEL_BITS * level as u32)) & (WHEEL_SLOTS as u64 - 1)) as usize
    }

    /// The level at which a wheel event at `tick > current` lives: that of
    /// the highest 6-bit digit where the two differ (`WHEEL_LEVELS` and
    /// above mean past the horizon).
    fn level_of(&self, tick: u64) -> usize {
        let differing = tick ^ self.current;
        ((63 - differing.leading_zeros()) / LEVEL_BITS) as usize
    }

    /// File an event into `ready`, a wheel slot, or the overflow heap —
    /// seq already assigned, `len` already accounted.
    fn file(&mut self, event: Event) {
        let tick = Self::tick_of(event.time);
        if tick > self.current && self.level_of(tick) >= WHEEL_LEVELS {
            self.overflow.push(event);
            return;
        }
        let cell = Cell {
            event: Some(event),
            next: NIL,
        };
        let idx = if self.free == NIL {
            let idx = u32::try_from(self.cells.len())
                .ok()
                .filter(|&idx| idx != NIL)
                .expect("fewer than u32::MAX events wait in the wheel");
            self.cells.push(cell);
            idx
        } else {
            let idx = self.free;
            self.free = std::mem::replace(&mut self.cells[idx as usize], cell).next;
            idx
        };
        self.place(idx, tick);
    }

    /// Put cell `idx`, whose event falls in `tick` (within the horizon),
    /// into `ready` if it is due now (or past), else onto the list of its
    /// wheel slot.
    fn place(&mut self, idx: u32, tick: u64) {
        if tick <= self.current {
            // Keep `ready` sorted descending so the end is the minimum.
            let at = key(&self.cells, idx);
            let cells = &self.cells;
            let pos = self.ready.partition_point(|&i| key(cells, i) > at);
            self.ready.insert(pos, idx);
            return;
        }
        let level = self.level_of(tick);
        let slot = Self::digit(tick, level);
        self.cells[idx as usize].next = self.heads[level][slot];
        self.heads[level][slot] = idx;
        self.occupied[level] |= 1 << slot;
    }

    /// Detach a slot's list, returning its head.
    fn unlink(&mut self, level: usize, slot: usize) -> u32 {
        self.occupied[level] &= !(1 << slot);
        std::mem::replace(&mut self.heads[level][slot], NIL)
    }

    /// Take a cell's event and return the cell to the free list.
    fn release(&mut self, idx: u32) -> Event {
        let cell = &mut self.cells[idx as usize];
        cell.next = self.free;
        self.free = idx;
        cell.event.take().expect("a filed cell holds an event")
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
                let mut idx = self.unlink(0, slot);
                while idx != NIL {
                    self.ready.push(idx);
                    idx = self.cells[idx as usize].next;
                }
                let cells = &self.cells;
                self.ready
                    .sort_unstable_by_key(|&i| std::cmp::Reverse(key(cells, i)));
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
                    // Drain that slot: its events now differ from
                    // `current` only below `level`, so each cell moves
                    // down (or into `ready`) without its event moving.
                    let mut idx = self.unlink(level, slot);
                    while idx != NIL {
                        let next = self.cells[idx as usize].next;
                        self.place(idx, Self::tick_of(key(&self.cells, idx).0));
                        idx = next;
                    }
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

    /// Length of the queue's free-cell list.
    fn free_cells(q: &EventQueue) -> usize {
        let mut n = 0;
        let mut idx = q.free;
        while idx != NIL {
            n += 1;
            idx = q.cells[idx as usize].next;
        }
        n
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
    fn a_cleared_queue_pops_as_a_new_one_without_new_cells() {
        // A storm interrupted mid-way, cleared, then replayed: the replay
        // pops exactly what a new queue pops, from the cleared arena.
        let storm = |q: &mut EventQueue| {
            for i in 0..300u64 {
                let t = 1024 + (i * 7919) % 5_000_000 + (i % 3) * (1 << 40);
                q.push(SimTime::from_nanos(t), timer(0, i));
            }
        };
        let drain = |q: &mut EventQueue| -> Vec<(SimTime, u64, u64)> {
            std::iter::from_fn(|| q.pop())
                .map(|e| (e.time, e.seq, token_of(&e)))
                .collect()
        };
        let mut fresh = EventQueue::new();
        storm(&mut fresh);
        let expected = drain(&mut fresh);

        let mut q = EventQueue::new();
        storm(&mut q);
        for _ in 0..100 {
            q.pop();
        }
        let cells = q.cells.len();
        q.clear();
        assert!(q.is_empty() && q.peek_time().is_none());
        assert_eq!(free_cells(&q), cells, "every cell is free after a clear");
        storm(&mut q);
        assert_eq!(drain(&mut q), expected);
        assert_eq!(q.cells.len(), cells, "the replay needs no new cell");
    }

    #[test]
    fn a_drained_queue_reuses_its_cells() {
        // The second storm is the first shifted by one level-5 slot span
        // (2^30 ticks), so it files and cascades exactly as the first did
        // and needs no cell the first did not. No time falls in tick 0,
        // which the first storm would file straight into `ready`.
        let mut q = EventQueue::new();
        let span = 1u64 << (30 + TICK_SHIFT);
        let mut first_pass_cells = None;
        for pass in 0..2u64 {
            for i in 0..500u64 {
                let t = pass * span + 1024 + (i * 7919) % 5_000_000;
                q.push(SimTime::from_nanos(t), timer(0, i));
            }
            let mut last = SimTime::ZERO;
            while let Some(e) = q.pop() {
                assert!(e.time >= last);
                last = e.time;
            }
            let cells = *first_pass_cells.get_or_insert(q.cells.len());
            assert!(cells > 0, "the storm files into wheel slots");
            assert_eq!(q.cells.len(), cells, "the second storm needs no new cell");
            assert_eq!(free_cells(&q), cells, "every cell is free once drained");
        }
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
                free_cells(&wheel),
                wheel.cells.len(),
                "a drained wheel holds every arena cell on its free list"
            );
            assert_eq!(
                wheel_trace, heap_trace,
                "wheel and heap event traces diverged"
            );
        });
    }
}
