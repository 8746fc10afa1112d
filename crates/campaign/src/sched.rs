//! Trial scheduling: one shared chunk [`Cursor`] over a work list. The
//! cursor schedules the run service's trials; [`run_chunked`] is the
//! workspace's one generic parallel map (the experiment fan-out uses it).
//!
//! Every worker takes its next chunk — a contiguous range of work-list
//! positions — from one atomic index, so a worker that drew heavy items
//! simply takes fewer chunks: a skewed matrix (a block of heavy ddos cells
//! next to cheap scan cells) levels itself at chunk granularity, and
//! nothing is ever assigned to a worker before it is free to run it.
//! Chunks shrink as the list drains, so the last ones are single items
//! and no worker finishes long before the others.
//!
//! Determinism: scheduling decides only *where* an item runs, never what
//! it computes — every trial's seed is a pure function of its index, and
//! results are committed into their index slot — so the output is
//! byte-identical for any worker count and any interleaving.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// An atomic index over `0..len`, handed out in chunks.
pub struct Cursor {
    next: AtomicUsize,
    len: usize,
    workers: usize,
}

impl Cursor {
    /// A cursor over `0..len` for `workers` takers.
    pub fn new(len: usize, workers: usize) -> Cursor {
        Cursor {
            next: AtomicUsize::new(0),
            len,
            workers: workers.max(1),
        }
    }

    /// The next chunk of positions, or `None` once every position is
    /// taken. Chunks taken by concurrent callers are disjoint. A chunk
    /// holds an eighth of each worker's share of the positions left,
    /// clamped to 1..=64: coarse enough that cursor traffic is negligible
    /// early on, and single items at the end, so that no worker is left
    /// running a large last chunk while the others idle.
    pub fn take(&self) -> Option<Range<usize>> {
        // Relaxed: the index publishes no other data, and the
        // compare-exchange alone makes the chunks disjoint.
        let mut start = self.next.load(Ordering::Relaxed);
        while start < self.len {
            let end = start + ((self.len - start) / (self.workers * 8)).clamp(1, 64);
            match self
                .next
                .compare_exchange_weak(start, end, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return Some(start..end),
                Err(now) => start = now,
            }
        }
        None
    }
}

/// Run `run(i)` for every `i in 0..n` across `workers` OS threads that
/// share one [`Cursor`], returning results in index order. `workers <= 1`
/// runs inline on the calling thread (the sequential determinism
/// baseline).
pub fn run_chunked<T, F>(n: usize, workers: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.clamp(1, n.max(1));
    if workers <= 1 {
        return (0..n).map(run).collect();
    }
    let cursor = Cursor::new(n, workers);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                while let Some(chunk) = cursor.take() {
                    for i in chunk {
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
    use std::sync::atomic::AtomicU32;
    use underradar_netsim::testprop;

    /// Random item and worker counts, with all the heavy items at the
    /// front: results come back in index order and every index runs
    /// exactly once. Half the cases draw at most 8 items, so that some
    /// have fewer items than workers, or none.
    #[test]
    fn every_index_runs_once_and_results_keep_index_order() {
        testprop::cases(48, 0x5C4E_D001, |g| {
            let n = if g.bool() {
                g.usize_in(0, 9)
            } else {
                g.usize_in(0, 301)
            };
            let workers = g.usize_in(1, 9);
            let heavy = g.usize_in(0, n + 1);
            let runs: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
            let out = run_chunked(n, workers, |i| {
                runs[i].fetch_add(1, Ordering::Relaxed);
                if i < heavy {
                    let mut acc = i as u64;
                    for k in 0..2_000u64 {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                    }
                    std::hint::black_box(acc);
                }
                i * i + 1
            });
            assert_eq!(out, (0..n).map(|i| i * i + 1).collect::<Vec<_>>());
            assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
        });
    }

    #[test]
    fn concurrent_takers_get_disjoint_chunks_covering_every_position() {
        for (n, workers) in [(0, 3), (1, 4), (37, 4), (1000, 3), (5000, 2)] {
            let cursor = Cursor::new(n, workers);
            let mut chunks: Vec<Range<usize>> = std::thread::scope(|scope| {
                let takers: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(|| std::iter::from_fn(|| cursor.take()).collect::<Vec<_>>())
                    })
                    .collect();
                takers
                    .into_iter()
                    .flat_map(|t| t.join().expect("taker"))
                    .collect()
            });
            chunks.sort_by_key(|c| c.start);
            let mut next = 0;
            for c in &chunks {
                assert_eq!(c.start, next, "n={n}: chunks are disjoint and leave no gap");
                assert!(c.end > c.start && c.end <= n);
                next = c.end;
            }
            assert_eq!(next, n, "n={n}: chunks cover every position");
            assert!(
                chunks.windows(2).all(|w| w[0].len() >= w[1].len()),
                "n={n}: chunks shrink as the list drains"
            );
            assert!(
                chunks.last().is_none_or(|c| c.len() == 1),
                "n={n}: the last chunk is one item"
            );
            assert!(cursor.take().is_none(), "an exhausted cursor stays empty");
        }
    }
}
