//! Top-k pair selection with seeded tie-breaking.
//!
//! The composite key (score, seeded jitter) is a *strict total order* on
//! distinct pairs: for a fixed seed, `pair_jitter` is a bijection of the
//! packed pair `(u << 32) | v`. It XORs the pair with a seed constant,
//! then applies splitmix64's finaliser, whose xor-shift steps
//! `z ^ (z >> s)` and odd-constant multiplies are each invertible on
//! `u64`, so two distinct pairs never share a jitter. Two entries compare
//! equal only when they carry the same pair and the same score, and such
//! entries are interchangeable in the output. That is what makes the
//! chunked execution engine's per-chunk [`TopKAcc`] heaps mergeable with
//! bit-identical results: an entry in the global top-k is necessarily in
//! its own chunk's top-k, so merging per-chunk winners loses nothing, and
//! the final sort is unambiguous.

use osn_graph::NodeId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An entry in the top-k heap: ordered by score, then by a seeded hash of
/// the pair (the paper's "random choice among ties", deterministic here).
#[derive(PartialEq)]
struct Entry {
    score: f64,
    jitter: u64,
    pair: (NodeId, NodeId),
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the *worst* on top so
        // it can be evicted (min-heap of the current best k).
        other.score.total_cmp(&self.score).then_with(|| other.jitter.cmp(&self.jitter))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

fn pair_jitter(u: NodeId, v: NodeId, seed: u64) -> u64 {
    osn_graph::mix64(((u as u64) << 32 | v as u64) ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A streaming top-k accumulator over (pair, score) entries.
///
/// The chunked scoring engine keeps one `TopKAcc` per chunk, then
/// [`merge`](Self::merge)s them. Because each chunk retains its own top-k
/// under the shared total order, the merged result is bit-identical to a
/// single serial pass ([`top_k_pairs`] is itself implemented as one
/// accumulator).
pub struct TopKAcc {
    k: usize,
    seed: u64,
    heap: BinaryHeap<Entry>,
}

impl TopKAcc {
    /// Creates an accumulator selecting the best `k` entries under `seed`'s
    /// tie-breaking.
    pub fn new(k: usize, seed: u64) -> Self {
        TopKAcc { k, seed, heap: BinaryHeap::with_capacity(k + 1) }
    }

    /// Offers one candidate. NaN scores are skipped.
    pub fn push(&mut self, pair: (NodeId, NodeId), score: f64) {
        if self.k == 0 || score.is_nan() {
            return;
        }
        let jitter = pair_jitter(pair.0, pair.1, self.seed);
        let cand = Entry { score, jitter, pair };
        if self.heap.len() < self.k {
            self.heap.push(cand);
        } else if let Some(worst) = self.heap.peek() {
            // `worst` is the minimum under our reversed ordering; replace
            // it when the candidate ranks strictly higher.
            if cand.cmp(worst) == Ordering::Less {
                self.heap.pop();
                self.heap.push(cand);
            }
        }
    }

    /// Folds another accumulator (same `k`/`seed`) into this one.
    pub fn merge(&mut self, other: TopKAcc) {
        debug_assert_eq!(self.k, other.k);
        debug_assert_eq!(self.seed, other.seed);
        for e in other.heap.into_vec() {
            if self.heap.len() < self.k {
                self.heap.push(e);
            } else if let Some(worst) = self.heap.peek() {
                if e.cmp(worst) == Ordering::Less {
                    self.heap.pop();
                    self.heap.push(e);
                }
            }
        }
    }

    /// The selected pairs, best-first.
    pub fn finish(self) -> Vec<(NodeId, NodeId)> {
        let mut picked: Vec<Entry> = self.heap.into_vec();
        // Under the reversed ordering the best entry is the smallest, so an
        // ascending sort yields best-first output.
        picked.sort_by(Entry::cmp);
        picked.into_iter().map(|e| e.pair).collect()
    }
}

/// Selects the `k` highest-scoring pairs. Ties are broken by a seeded hash
/// of the pair, so equal-score candidates are chosen pseudo-randomly but
/// reproducibly. NaN scores are skipped.
///
/// Runs in O(n log k) with O(k) extra space.
pub fn top_k_pairs(
    pairs: &[(NodeId, NodeId)],
    scores: &[f64],
    k: usize,
    seed: u64,
) -> Vec<(NodeId, NodeId)> {
    assert_eq!(pairs.len(), scores.len(), "pairs/scores length mismatch");
    let mut acc = TopKAcc::new(k, seed);
    for (&pair, &score) in pairs.iter().zip(scores) {
        acc.push(pair, score);
    }
    acc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_highest_scores_in_order() {
        let pairs = vec![(0, 1), (0, 2), (0, 3), (0, 4)];
        let scores = vec![1.0, 4.0, 3.0, 2.0];
        let top = top_k_pairs(&pairs, &scores, 2, 0);
        assert_eq!(top, vec![(0, 2), (0, 3)]);
    }

    #[test]
    fn k_larger_than_input_returns_all() {
        let pairs = vec![(0, 1), (2, 3)];
        let scores = vec![1.0, 2.0];
        let top = top_k_pairs(&pairs, &scores, 10, 0);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0], (2, 3));
    }

    #[test]
    fn k_zero_is_empty() {
        assert!(top_k_pairs(&[(0, 1)], &[1.0], 0, 0).is_empty());
    }

    #[test]
    fn ties_break_deterministically_per_seed() {
        let pairs: Vec<(u32, u32)> = (0..100).map(|i| (i, i + 1000)).collect();
        let scores = vec![1.0; 100];
        let a = top_k_pairs(&pairs, &scores, 10, 7);
        let b = top_k_pairs(&pairs, &scores, 10, 7);
        assert_eq!(a, b);
        let c = top_k_pairs(&pairs, &scores, 10, 8);
        assert_ne!(a, c, "different seeds should break ties differently");
    }

    #[test]
    fn nan_scores_are_skipped() {
        let pairs = vec![(0, 1), (0, 2), (0, 3)];
        let scores = vec![f64::NAN, 1.0, 2.0];
        let top = top_k_pairs(&pairs, &scores, 3, 0);
        assert_eq!(top, vec![(0, 3), (0, 2)]);
    }

    #[test]
    fn negative_and_infinite_scores_ordered() {
        let pairs = vec![(0, 1), (0, 2), (0, 3)];
        let scores = vec![f64::NEG_INFINITY, -5.0, f64::INFINITY];
        let top = top_k_pairs(&pairs, &scores, 2, 0);
        assert_eq!(top, vec![(0, 3), (0, 2)]);
    }

    #[test]
    fn chunked_merge_matches_serial_selection() {
        // Split the candidate list into uneven chunks, accumulate each,
        // merge in arbitrary order: identical to one pass.
        let pairs: Vec<(u32, u32)> = (0..97).map(|i| (i, i + 200)).collect();
        let scores: Vec<f64> = (0..97).map(|i| f64::from(i % 7)).collect();
        let k = 11;
        let seed = 5;
        let serial = top_k_pairs(&pairs, &scores, k, seed);
        for bounds in [vec![0, 10, 40, 97], vec![0, 97], vec![0, 1, 2, 50, 96, 97]] {
            let mut accs: Vec<TopKAcc> = bounds
                .windows(2)
                .map(|w| {
                    let mut acc = TopKAcc::new(k, seed);
                    for i in w[0]..w[1] {
                        acc.push(pairs[i], scores[i]);
                    }
                    acc
                })
                .collect();
            // Merge back-to-front so the order differs from chunk order.
            let mut merged = accs.pop().unwrap();
            while let Some(acc) = accs.pop() {
                merged.merge(acc);
            }
            assert_eq!(merged.finish(), serial, "bounds {bounds:?}");
        }
    }

    #[test]
    fn tie_winners_match_full_sort() {
        // The heap's tie handling must agree with a full sort using the
        // same composite key.
        let pairs: Vec<(u32, u32)> = (0..50).map(|i| (i, i + 100)).collect();
        let scores: Vec<f64> = (0..50).map(|i| f64::from(i % 5)).collect();
        let k = 7;
        let fast = top_k_pairs(&pairs, &scores, k, 3);
        let mut idx: Vec<usize> = (0..50).collect();
        idx.sort_by(|&a, &b| {
            scores[b].total_cmp(&scores[a]).then_with(|| {
                pair_jitter(pairs[b].0, pairs[b].1, 3).cmp(&pair_jitter(pairs[a].0, pairs[a].1, 3))
            })
        });
        let slow: Vec<(u32, u32)> = idx[..k].iter().map(|&i| pairs[i]).collect();
        assert_eq!(fast, slow);
    }
}
