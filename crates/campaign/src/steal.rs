//! Work-stealing trial scheduling: per-worker deques of chunked trial
//! batches with steal-half semantics. [`Deques`] schedules the run
//! service's trials; [`run_chunked`] is the workspace's one generic
//! parallel map (the experiment fan-out uses it).
//!
//! Handing every worker indices off one shared cursor keeps workers busy
//! for *uniform* matrices, but a skewed matrix — a block of heavy ddos
//! cells expanded next to cheap scan cells — still serializes behind
//! whichever worker drew the heavy run of indices, because an index, once
//! drawn, can never move. Instead each worker owns a deque of [`Chunk`]s
//! (contiguous index ranges), pops from the front of its own deque, and
//! when empty steals **half** of the richest victim's deque (splitting a
//! lone chunk in two when that is all the victim has). Work therefore
//! migrates away from stragglers at chunk granularity, and wall-clock
//! time approaches `total_work / workers` even when all the heavy cells
//! landed in one worker's initial block.
//!
//! Determinism: scheduling decides only *where* a trial runs, never what
//! it computes — every trial's seed is a pure function of its index, and
//! results are committed into their index slot — so the output is
//! byte-identical for any worker count and any steal interleaving.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A contiguous half-open range of item positions (`start..end`), the
/// unit of scheduling and of stealing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// First item position in the batch.
    pub start: usize,
    /// One past the last item position.
    pub end: usize,
}

impl Chunk {
    /// Number of items in the batch.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    /// Split into two halves; the second is empty when `len() < 2`.
    fn split(self) -> (Chunk, Chunk) {
        let mid = self.start + self.len() / 2;
        (
            Chunk {
                start: self.start,
                end: mid,
            },
            Chunk {
                start: mid,
                end: self.end,
            },
        )
    }
}

/// The chunk size used when the caller passes 0: coarse enough that deque
/// traffic is negligible, fine enough that eight steals per worker can
/// level any initial imbalance.
pub fn auto_chunk(n: usize, workers: usize) -> usize {
    (n / (workers.max(1) * 8)).clamp(1, 64)
}

/// Per-worker chunked deques with steal-half rebalancing.
pub struct Deques {
    queues: Vec<Mutex<VecDeque<Chunk>>>,
    /// Items not yet popped from any deque (for cheap emptiness checks).
    queued: AtomicUsize,
}

impl Deques {
    /// Distribute `0..n` across `workers` deques: each worker starts with
    /// one contiguous block, pre-split into batches of `chunk` items
    /// (`0` = [`auto_chunk`]).
    pub fn split(n: usize, workers: usize, chunk: usize) -> Deques {
        let workers = workers.max(1);
        let chunk = if chunk == 0 {
            auto_chunk(n, workers)
        } else {
            chunk
        };
        let mut queues: Vec<VecDeque<Chunk>> = (0..workers).map(|_| VecDeque::new()).collect();
        let per = n.div_ceil(workers);
        for (w, queue) in queues.iter_mut().enumerate() {
            let lo = (w * per).min(n);
            let hi = ((w + 1) * per).min(n);
            let mut start = lo;
            while start < hi {
                let end = (start + chunk).min(hi);
                queue.push_back(Chunk { start, end });
                start = end;
            }
        }
        Deques {
            queues: queues.into_iter().map(Mutex::new).collect(),
            queued: AtomicUsize::new(n),
        }
    }

    /// Pop the next batch from `worker`'s own deque (front: its oldest
    /// local work, farthest from any thief).
    pub fn pop(&self, worker: usize) -> Option<Chunk> {
        let chunk = self.queues[worker]
            .lock()
            .expect("deque lock poisoned")
            .pop_front();
        if let Some(c) = chunk {
            self.queued.fetch_sub(c.len(), Ordering::Relaxed);
        }
        chunk
    }

    /// Steal half of the richest victim's deque into `thief`'s, returning
    /// the first stolen batch to run immediately. `None` means every
    /// other deque was empty at the moment it was inspected.
    pub fn steal(&self, thief: usize) -> Option<Chunk> {
        if self.queued.load(Ordering::Relaxed) == 0 {
            return None;
        }
        // Pick the victim with the most queued chunks (ties: lowest id).
        let mut victim = None;
        for (w, queue) in self.queues.iter().enumerate() {
            if w == thief {
                continue;
            }
            let len = queue.lock().expect("deque lock poisoned").len();
            if len > 0 && victim.is_none_or(|(_, best)| len > best) {
                victim = Some((w, len));
            }
        }
        let (victim, _) = victim?;
        let mut stolen: VecDeque<Chunk> = {
            let mut queue = self.queues[victim].lock().expect("deque lock poisoned");
            match queue.len() {
                0 => return None,
                1 => {
                    // Split the lone batch; leave the front half in place.
                    let only = queue.pop_front().expect("len checked");
                    let (keep, take) = only.split();
                    if take.is_empty() {
                        // Single item: take it whole.
                        VecDeque::from([only])
                    } else {
                        queue.push_back(keep);
                        VecDeque::from([take])
                    }
                }
                len => queue.split_off(len - len / 2),
            }
        };
        let first = stolen.pop_front()?;
        self.queued.fetch_sub(first.len(), Ordering::Relaxed);
        if !stolen.is_empty() {
            self.queues[thief]
                .lock()
                .expect("deque lock poisoned")
                .append(&mut stolen);
        }
        Some(first)
    }

    /// Whether any deque still holds unclaimed work.
    pub fn has_work(&self) -> bool {
        self.queued.load(Ordering::Relaxed) > 0
    }
}

/// Run `run(i)` for every `i in 0..n` across `workers` OS threads with
/// work stealing, returning results in index order. `workers <= 1` runs
/// inline on the calling thread (the sequential determinism baseline).
pub fn run_chunked<T, F>(n: usize, workers: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.clamp(1, n.max(1));
    if workers <= 1 {
        return (0..n).map(run).collect();
    }
    let deques = Deques::split(n, workers, 0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for w in 0..workers {
            let deques = &deques;
            let slots = &slots;
            let run = &run;
            scope.spawn(move || {
                while let Some(chunk) = deques.pop(w).or_else(|| deques.steal(w)) {
                    for i in chunk.start..chunk.end {
                        let out = run(i);
                        slots.lock().expect("result lock")[i] = Some(out);
                    }
                }
            });
        }
    });
    slots
        .into_inner()
        .expect("result lock")
        .into_iter()
        .map(|s| s.expect("every index ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn chunked_matches_sequential_in_order() {
        let f = |i: usize| i * i + 1;
        let seq = run_chunked(37, 1, f);
        let par = run_chunked(37, 4, f);
        assert_eq!(seq, par);
        assert_eq!(seq[5], 26);
    }

    #[test]
    fn worker_count_clamps_to_item_count() {
        assert_eq!(run_chunked(2, 16, |i| i), vec![0, 1]);
        assert_eq!(run_chunked(0, 4, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn every_index_runs_exactly_once_under_stealing() {
        let ran = AtomicU64::new(0);
        let out = run_chunked(1000, 8, |i| {
            ran.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out, (0..1000).collect::<Vec<_>>());
        assert_eq!(ran.load(Ordering::Relaxed), 1000);
    }

    #[test]
    fn skewed_front_block_still_fills_every_slot() {
        // All the heavy work sits in worker 0's initial block; stealing
        // migrates chunks away mid-run and every result still lands in
        // its own slot.
        let out = run_chunked(256, 4, |i| {
            if i < 64 {
                let mut acc = i as u64;
                for k in 0..20_000u64 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                }
                std::hint::black_box(acc);
            }
            i
        });
        assert_eq!(out, (0..256).collect::<Vec<_>>());
    }

    #[test]
    fn deque_split_covers_all_items_in_chunks() {
        let d = Deques::split(100, 4, 8);
        let mut seen = [false; 100];
        for w in 0..4 {
            while let Some(c) = d.pop(w) {
                assert!(c.len() <= 8);
                for (i, s) in seen.iter_mut().enumerate().take(c.end).skip(c.start) {
                    assert!(!*s, "duplicate index {i}");
                    *s = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
        assert!(!d.has_work());
    }

    #[test]
    fn steal_half_takes_from_the_richest_victim() {
        let d = Deques::split(64, 2, 4);
        // Worker 1 exhausts its own deque, then steals from worker 0.
        while d.pop(1).is_some() {}
        let got = d.steal(1).expect("worker 0 still has chunks");
        assert!(got.start < 32, "stolen from worker 0's block");
        // After the steal, thief's deque holds the rest of the stolen half.
        assert!(d.pop(1).is_some());
    }

    #[test]
    fn steal_splits_a_lone_chunk() {
        let d = Deques::split(10, 2, 16);
        // Each worker has a single chunk; thief 1 drains its own then
        // splits worker 0's lone chunk.
        while d.pop(1).is_some() {}
        let got = d.steal(1).expect("splits the lone chunk");
        assert!(got.len() < 5 || got.len() == 5, "half of 5: {got:?}");
        let rest = d.pop(0).expect("victim keeps the front half");
        assert!(rest.end <= got.start, "victim keeps the front: {rest:?}");
    }
}
