//! A dense, byte-classed DFA built from a set of fast patterns: the
//! engine's multi-pattern prefilter.
//!
//! A textbook Aho–Corasick matcher walks a `Vec<[u32; 256]>` goto table
//! through two automata (case-sensitive and case-folded), which tops out
//! around 400 MB/s. This module flattens a single *case-folded*
//! Aho–Corasick automaton into the classic dense-DFA layout so the inner
//! loop is one table load per input byte:
//!
//! * **Case folding is baked into the byte-class map** — every pattern is
//!   lowered at build time and `cls[b]` maps a raw input byte to the class
//!   of its folded value, so the scan loop never folds. Case-sensitive
//!   patterns therefore *over-trigger* on differently-cased occurrences;
//!   callers confirm the exact bytes at the reported end offset (the
//!   engine does, against the packet payload or stream window) before
//!   treating a hit as real.
//! * **Byte-class alphabet** — input bytes that appear in no pattern share
//!   class 0, whose column is all-root; the table is `nstates × nclasses`
//!   instead of `nstates × 256`, which keeps 500-rule tables inside L2.
//! * **Interleaved premultiplied rows** — a state is stored as its row
//!   base (`state × nclasses`) with bit 31 flagging match states, so a
//!   transition is `trans[base + cls[b]]` with no multiply and the match
//!   check is one bit test.
//! * **Root-row skip loop** — a 256-entry row specialised for state 0
//!   (indexed by the *raw* byte, folding included). While the automaton
//!   sits in the root state — the overwhelmingly common case on
//!   non-matching traffic — the next load depends only on the input byte,
//!   not on the previous state, which breaks the DFA's serial dependency
//!   chain and lets the loads pipeline.
//!
//! Streaming needs no extra state: a cursor is a bare `u32` (the encoded
//! state), fed chunk-by-chunk with [`PrefilterDfa::feed`], so patterns
//! straddling TCP segment boundaries are still found.

use std::collections::VecDeque;

/// Bit 31 of an encoded state: set when the state has pattern outputs.
const MATCH_BIT: u32 = 1 << 31;
/// The encoded state's row base (`state × nclasses`).
const STATE_MASK: u32 = MATCH_BIT - 1;
/// Trie-construction sentinel for "no edge".
const NONE: u32 = u32::MAX;

/// The start-of-stream cursor value for [`PrefilterDfa::feed`].
pub const DFA_START: u32 = 0;

/// A dense byte-classed DFA over a fixed set of case-folded patterns.
///
/// Pattern ids are the indices into the slice passed to
/// [`PrefilterDfa::new`]; empty patterns are accepted but never match.
pub struct PrefilterDfa {
    /// Raw input byte → byte class of its case-folded value.
    cls: [u8; 256],
    /// Number of byte classes (class 0 = bytes in no pattern).
    nclasses: u32,
    /// Interleaved transition rows: `trans[base + cls[b]]` is the encoded
    /// next state (premultiplied base | `MATCH_BIT`).
    trans: Vec<u32>,
    /// State 0's transitions indexed by raw byte (folding baked in).
    root: Box<[u32; 256]>,
    /// `root_live[b] != 0` iff `root[b] != 0` — byte `b` moves the
    /// automaton off the root state (or matches a 1-byte pattern). A
    /// compact u8 mirror of `root` so the skip loop below can OR eight
    /// lookups together per iteration.
    root_live: Box<[u8; 256]>,
    /// Little-endian byte-*pair* liveness: `pair_live[b0 | b1 << 8] == 0`
    /// iff consuming `b0` then `b1` from the root state ends back at the
    /// root with no match at either step — the pair is exactly skippable.
    /// This is what makes the skip loop fast on real traffic: a pattern's
    /// first byte followed by a non-continuation byte (e.g. the `p` of
    /// "report" against `pattern-…` rules) returns to root *within* the
    /// pair instead of breaking the bulk loop, so near-miss bytes cost
    /// nothing. 64 KB, built by composing the (much smaller) class-pair
    /// table — and empty for an automaton with no non-empty pattern,
    /// which never leaves the root, so keyword-free policies keep no
    /// table resident.
    pair_live: Box<[u8]>,
    /// Per-state output ranges into `out_ids`; length `nstates + 1`.
    out_start: Vec<u32>,
    /// Flattened pattern outputs (own plus fail-chain, precomputed).
    out_ids: Vec<u32>,
    nstates: u32,
    npatterns: usize,
}

impl PrefilterDfa {
    /// Build the DFA from `patterns`. Patterns are case-folded internally;
    /// matching is therefore ASCII-case-insensitive (see module docs for
    /// how case-sensitive callers confirm hits).
    pub fn new<P: AsRef<[u8]>>(patterns: &[P]) -> PrefilterDfa {
        // 1. Byte classes first: one class per distinct folded pattern
        //    byte, class 0 for everything else. Knowing the alphabet up
        //    front lets every later stage — trie, BFS, dense table — work
        //    over `nclasses`-wide rows instead of 256-wide ones, which
        //    keeps compiling a ruleset cheap.
        let mut class_of = [0u8; 256];
        let mut nclasses: u32 = 1;
        for pat in patterns {
            for &b in pat.as_ref() {
                let b = b.to_ascii_lowercase() as usize;
                if class_of[b] == 0 {
                    class_of[b] = nclasses as u8;
                    nclasses += 1;
                }
            }
        }
        let mut cls = [0u8; 256];
        for b in 0..256u16 {
            cls[b as usize] = class_of[(b as u8).to_ascii_lowercase() as usize];
        }
        let nc = nclasses as usize;

        // 2. Trie over the folded patterns, class-indexed rows in one
        //    arena (transient: the encoded table below is what survives).
        //    Class 0 never gets an edge — no pattern contains such a byte.
        let mut goto_: Vec<u32> = vec![NONE; nc];
        let mut out: Vec<Vec<u32>> = vec![Vec::new()];
        for (id, pat) in patterns.iter().enumerate() {
            let pat = pat.as_ref();
            if pat.is_empty() {
                continue;
            }
            let mut s = 0usize;
            for &b in pat {
                let c = class_of[b.to_ascii_lowercase() as usize] as usize;
                let next = goto_[s * nc + c];
                s = if next == NONE {
                    goto_.resize(goto_.len() + nc, NONE);
                    out.push(Vec::new());
                    let n = (out.len() - 1) as u32;
                    goto_[s * nc + c] = n;
                    n as usize
                } else {
                    next as usize
                };
            }
            out[s].push(id as u32);
        }

        // 3. BFS failure links; complete the goto function in place and
        //    merge fail-chain outputs (the fail state is always processed
        //    before its dependents, being strictly shallower). Unreached
        //    columns — class 0 everywhere, and classes with no edge from
        //    a state's fail chain — complete to the root, state 0.
        let nstates = out.len() as u32;
        let mut fail = vec![0u32; nstates as usize];
        let mut queue = VecDeque::new();
        for slot in goto_.iter_mut().take(nc) {
            let t = *slot;
            if t == NONE {
                *slot = 0;
            } else {
                fail[t as usize] = 0;
                queue.push_back(t);
            }
        }
        while let Some(s) = queue.pop_front() {
            let f = fail[s as usize] as usize;
            let inherited = out[f].clone();
            out[s as usize].extend(inherited);
            for c in 0..nc {
                let t = goto_[s as usize * nc + c];
                if t == NONE {
                    goto_[s as usize * nc + c] = goto_[f * nc + c];
                } else {
                    fail[t as usize] = goto_[f * nc + c];
                    queue.push_back(t);
                }
            }
        }

        // 4. Dense interleaved table with premultiplied, match-flagged
        //    entries; specialise state 0 into a raw-byte-indexed row.
        let enc = |t: u32| -> u32 {
            let base = t * nclasses;
            debug_assert!(base < MATCH_BIT, "state table exceeds encodable range");
            if out[t as usize].is_empty() {
                base
            } else {
                base | MATCH_BIT
            }
        };
        let trans: Vec<u32> = goto_.iter().map(|&t| enc(t)).collect();
        let mut root = Box::new([0u32; 256]);
        let mut root_live = Box::new([0u8; 256]);
        for b in 0..256 {
            root[b] = trans[cls[b] as usize];
            root_live[b] = u8::from(root[b] != 0);
        }

        // An automaton with only the root state never scans (see `run`),
        // so it keeps no pair table at all.
        let pair_live = if nstates <= 1 {
            Box::default()
        } else {
            pair_table(&trans, &cls, nc)
        };

        // 5. Flatten outputs.
        let mut out_start = Vec::with_capacity(goto_.len() + 1);
        let mut out_ids = Vec::new();
        out_start.push(0u32);
        for ids in &out {
            out_ids.extend_from_slice(ids);
            out_start.push(out_ids.len() as u32);
        }

        PrefilterDfa {
            cls,
            nclasses,
            trans,
            root,
            root_live,
            pair_live,
            out_start,
            out_ids,
            nstates,
            npatterns: patterns.len(),
        }
    }

    /// Number of patterns the DFA was built from.
    pub fn pattern_count(&self) -> usize {
        self.npatterns
    }

    /// Number of DFA states.
    pub fn state_count(&self) -> usize {
        self.nstates as usize
    }

    /// Number of byte classes (including the shared "other" class 0).
    pub fn class_count(&self) -> usize {
        self.nclasses as usize
    }

    /// Walk `chunk` from encoded state `s`, invoking `hit(pattern_id,
    /// end_offset)` for every (case-folded) match; `end_offset` is the
    /// exclusive end of the match within `chunk`. Returns the final state.
    #[inline]
    fn run<F: FnMut(usize, usize)>(&self, mut s: u32, chunk: &[u8], hit: &mut F) -> u32 {
        // An empty automaton (no non-empty patterns) has only the root
        // state, can never match or leave it, and carries no pair table —
        // don't touch the bytes. This one length check per call is also
        // what lets the skip loop index the table without per-byte bounds
        // checks.
        let Ok(pl) = <&[u8; 65536]>::try_from(&*self.pair_live) else {
            return s;
        };
        let live = &*self.root_live;
        let n = chunk.len();
        let mut i = 0usize;
        while i < n {
            let raw = chunk[i] as usize;
            if s == 0 {
                if live[raw] == 0 {
                    i += 1;
                    // Blocked root skip: while the automaton sits in the
                    // root state — the overwhelmingly common case on
                    // non-matching traffic — test eight bytes per
                    // iteration as four *independent* pair lookups over
                    // one 64-bit load. Unlike the serial state walk these
                    // loads pipeline; and because a dead pair absorbs
                    // near-miss bytes (first-byte hit, no continuation)
                    // without leaving the loop, mispredicted breaks are
                    // rare even on pattern-adjacent traffic.
                    while i + 8 <= n {
                        let w =
                            u64::from_le_bytes(chunk[i..i + 8].try_into().expect("8-byte window"));
                        let any = pl[(w & 0xffff) as usize]
                            | pl[(w >> 16 & 0xffff) as usize]
                            | pl[(w >> 32 & 0xffff) as usize]
                            | pl[(w >> 48) as usize];
                        if any != 0 {
                            break;
                        }
                        i += 8;
                    }
                    continue;
                }
                // Leaving the root: the load depends only on the raw byte.
                s = self.root[raw];
            } else {
                let base = (s & STATE_MASK) as usize;
                s = self.trans[base + self.cls[raw] as usize];
            }
            i += 1;
            if s & MATCH_BIT != 0 {
                let st = ((s & STATE_MASK) / self.nclasses) as usize;
                let (lo, hi) = (self.out_start[st], self.out_start[st + 1]);
                for &id in &self.out_ids[lo as usize..hi as usize] {
                    hit(id as usize, i);
                }
            }
        }
        s
    }

    /// One-shot scan of `hay`; `hit(pattern_id, end_offset)` per match.
    #[inline]
    pub fn scan<F: FnMut(usize, usize)>(&self, hay: &[u8], mut hit: F) {
        self.run(DFA_START, hay, &mut hit);
    }

    /// Incremental scan: advance `cursor` over `chunk`, reporting matches
    /// that end inside it (`end_offset` is relative to `chunk`). Matches
    /// straddling earlier chunks are found — the cursor carries the
    /// automaton state across calls. Start cursors at [`DFA_START`].
    #[inline]
    pub fn feed<F: FnMut(usize, usize)>(&self, cursor: &mut u32, chunk: &[u8], mut hit: F) {
        *cursor = self.run(*cursor, chunk, &mut hit);
    }

    /// Whether any pattern matches anywhere in `hay` (case-folded).
    pub fn any_match(&self, hay: &[u8]) -> bool {
        let mut found = false;
        // `run` has no early exit; fine for the rare non-hot-path callers.
        self.scan(hay, |_, _| found = true);
        found
    }
}

/// The 64 KB little-endian raw byte-pair liveness table
/// ([`PrefilterDfa`]'s `pair_live`) for encoded transitions `trans` over
/// `nc` byte classes.
fn pair_table(trans: &[u32], cls: &[u8; 256], nc: usize) -> Box<[u8]> {
    // Pair liveness over byte *classes* first (nclasses² entries), then
    // expanded through `cls` to the raw-byte-pair table. A pair is dead —
    // exactly skippable — iff neither step matches and the automaton is
    // back at the root afterwards.
    let mut cls_pair_live = vec![1u8; nc * nc];
    for c0 in 0..nc {
        let s1 = trans[c0];
        if s1 & MATCH_BIT != 0 {
            continue; // every (c0, *) pair stays live
        }
        let base1 = (s1 & STATE_MASK) as usize;
        for c1 in 0..nc {
            cls_pair_live[c0 * nc + c1] = u8::from(trans[base1 + c1] != 0);
        }
    }
    // Expand through `cls` to the 64 KB raw table. The table is laid out
    // little-endian (`b0 | b1 << 8`), so a fixed `b1` owns one contiguous
    // 256-byte segment whose contents depend only on `cls[b1]` — build one
    // 256-byte column per class and memcpy it into place, keeping this
    // expansion at a few microseconds instead of 64 K strided writes.
    let mut cols = vec![[0u8; 256]; nc];
    for (c1, col) in cols.iter_mut().enumerate() {
        for b0 in 0..256usize {
            col[b0] = cls_pair_live[cls[b0] as usize * nc + c1];
        }
    }
    let mut pair_live = vec![0u8; 1 << 16].into_boxed_slice();
    for b1 in 0..256usize {
        pair_live[b1 << 8..][..256].copy_from_slice(&cols[cls[b1] as usize]);
    }
    pair_live
}

impl std::fmt::Debug for PrefilterDfa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrefilterDfa")
            .field("patterns", &self.npatterns)
            .field("states", &self.nstates)
            .field("classes", &self.nclasses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use underradar_netsim::testprop::{cases, Gen};

    /// All (pattern_id, end_offset) pairs, via the DFA.
    fn dfa_matches(dfa: &PrefilterDfa, hay: &[u8]) -> Vec<(usize, usize)> {
        let mut got = Vec::new();
        dfa.scan(hay, |id, end| got.push((id, end)));
        got.sort_unstable();
        got
    }

    /// Oracle: naive case-insensitive window compare.
    fn naive_matches(patterns: &[&[u8]], hay: &[u8]) -> Vec<(usize, usize)> {
        let mut got = Vec::new();
        for (id, pat) in patterns.iter().enumerate() {
            if pat.is_empty() {
                continue;
            }
            for end in pat.len()..=hay.len() {
                if hay[end - pat.len()..end].eq_ignore_ascii_case(pat) {
                    got.push((id, end));
                }
            }
        }
        got.sort_unstable();
        got
    }

    #[test]
    fn classic_overlapping_patterns() {
        let pats: Vec<&[u8]> = vec![b"he", b"she", b"his", b"hers"];
        let dfa = PrefilterDfa::new(&pats);
        assert_eq!(
            dfa_matches(&dfa, b"ushers"),
            vec![(0, 4), (1, 4), (3, 6)],
            "suffix outputs surface through fail-chain flattening"
        );
    }

    #[test]
    fn matching_is_case_folded() {
        let pats: Vec<&[u8]> = vec![b"Falun", b"TIBET"];
        let dfa = PrefilterDfa::new(&pats);
        assert_eq!(dfa_matches(&dfa, b"..fAlUn..tibet"), vec![(0, 7), (1, 14)]);
    }

    #[test]
    fn empty_patterns_never_match() {
        let pats: Vec<&[u8]> = vec![b"", b"x"];
        let dfa = PrefilterDfa::new(&pats);
        assert_eq!(dfa_matches(&dfa, b"xx"), vec![(1, 1), (1, 2)]);
        let none = PrefilterDfa::new::<&[u8]>(&[]);
        assert_eq!(dfa_matches(&none, b"anything"), vec![]);
        assert!(!none.any_match(b"anything"));
        // Nothing to match means no 64 KB pair table either.
        assert!(none.pair_live.is_empty());
        let only_empty = PrefilterDfa::new::<&[u8]>(&[b""]);
        assert!(only_empty.pair_live.is_empty());
        assert!(!only_empty.any_match(b"anything at all"));
        assert_eq!(dfa.pair_live.len(), 1 << 16);
    }

    #[test]
    fn feed_across_chunks_equals_one_shot() {
        let pats: Vec<&[u8]> = vec![b"falun", b"lun"];
        let dfa = PrefilterDfa::new(&pats);
        let hay = b"xxfalunyy";
        let whole = dfa_matches(&dfa, hay);
        // Split at every boundary; end offsets re-based to the whole input.
        for cut in 0..hay.len() {
            let mut cursor = DFA_START;
            let mut got = Vec::new();
            dfa.feed(&mut cursor, &hay[..cut], |id, end| got.push((id, end)));
            dfa.feed(&mut cursor, &hay[cut..], |id, end| {
                got.push((id, cut + end))
            });
            got.sort_unstable();
            assert_eq!(got, whole, "split at {cut}");
        }
    }

    #[test]
    fn matches_agree_with_naive_oracle() {
        let alphabet = b"abAB.";
        cases(200, 0x0DFA, |g: &mut Gen| {
            let npats = g.usize_in(1, 6);
            let pats: Vec<Vec<u8>> = (0..npats)
                .map(|_| {
                    let len = g.usize_in(1, 5);
                    g.string_from(alphabet, len).into_bytes()
                })
                .collect();
            // Long enough to exercise the blocked pair-skip loop (≥ 8-byte
            // windows), not just the per-byte path.
            let hay_len = g.usize_in(0, 200);
            let hay = g.string_from(alphabet, hay_len).into_bytes();
            let dfa = PrefilterDfa::new(&pats);
            let pat_refs: Vec<&[u8]> = pats.iter().map(|p| p.as_slice()).collect();
            assert_eq!(dfa_matches(&dfa, &hay), naive_matches(&pat_refs, &hay));
        });
    }

    #[test]
    fn streamed_matches_agree_with_one_shot_under_random_chunking() {
        let alphabet = b"faluntibe.";
        cases(100, 0xFEED, |g: &mut Gen| {
            let pats: Vec<Vec<u8>> = (0..g.usize_in(1, 5))
                .map(|_| {
                    let len = g.usize_in(1, 6);
                    g.string_from(alphabet, len).into_bytes()
                })
                .collect();
            let hay_len = g.usize_in(0, 60);
            let hay = g.string_from(alphabet, hay_len).into_bytes();
            let dfa = PrefilterDfa::new(&pats);
            let whole = dfa_matches(&dfa, &hay);
            let mut cursor = DFA_START;
            let mut got = Vec::new();
            let mut off = 0;
            while off < hay.len() {
                let take = g.usize_in(1, 8).min(hay.len() - off);
                dfa.feed(&mut cursor, &hay[off..off + take], |id, end| {
                    got.push((id, off + end));
                });
                off += take;
            }
            got.sort_unstable();
            assert_eq!(got, whole);
        });
    }

    #[test]
    fn introspection_counts() {
        let pats: Vec<&[u8]> = vec![b"ab", b"ac"];
        let dfa = PrefilterDfa::new(&pats);
        assert_eq!(dfa.pattern_count(), 2);
        assert_eq!(dfa.state_count(), 4, "root + a + ab + ac");
        assert_eq!(dfa.class_count(), 4, "other + a + b + c");
    }
}
