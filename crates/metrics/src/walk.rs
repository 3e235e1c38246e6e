//! Random-walk metrics: Local Random Walk (LRW) and Personalized PageRank
//! (PPR).
//!
//! Both are defined two-sided, summing a walk from each endpoint:
//!
//! * LRW: `(d_u/2E)·π_uv(m) + (d_v/2E)·π_vu(m)`;
//! * PPR: `π_u(v) + π_v(u)`.
//!
//! On an undirected graph walks are reversible. The `m`-step transition
//! probabilities satisfy `d_u·π_uv(m) = d_v·π_vu(m)`, and PPR with restart
//! `α` satisfies `π_u(v)/d_v = π_v(u)/d_u`. So one endpoint's walk carries
//! both terms. Production scoring evaluates each pair one-sided, from its
//! batch's *solve side* `s` (see [`crate::solver`]) with partner `t`:
//!
//! * LRW: `2·(d_s/2E)·π_st(m)`;
//! * PPR: `π_s(t)·(1 + d_s/d_t)`, or `π_s(t)` when `d_t = 0`, where
//!   `π_s(t) = 0` exactly.
//!
//! A batch then needs one solved column per side, and a served query (all
//! pairs holding the source) needs exactly one. The identities are exact
//! for the exact walks; LRW's `prune` and PPR's solver tolerance break
//! them by a bounded amount, so a score depends on (snapshot, pair list)
//! — the side a batch picks — within those bounds.
//!
//! Production scoring runs on the batched multi-source solver engine in
//! [`crate::solver`] (one CSR sweep advances a block of side columns per
//! step); the original two-sided per-source frontier walk and
//! forward-push implementations are retained as reference oracles
//! ([`LocalRandomWalk::score_pairs_per_source_t`],
//! [`PersonalizedPageRank::score_pairs_per_source_t`]) and the equivalence
//! tests in `tests/global_equivalence.rs` pin the two paths together.

use crate::solver::{self, SolverCache};
use crate::traits::{CandidatePolicy, Metric, ScoreContract};
use osn_graph::par;
use osn_graph::snapshot::Snapshot;
use osn_graph::NodeId;

/// Local Random Walk \[25\]:
/// `deg(u)/2|E| · π_uv(m) + deg(v)/2|E| · π_vu(m)`,
/// where `π_uv(m)` is the probability of an `m`-step walk from `u` ending
/// at `v`. The paper uses small `m`; we default to `m = 3`. The engine
/// evaluates the equal one-sided form `2·deg(s)/2|E| · π_st(m)` from the
/// pair's solve side `s` (see the module docs).
///
/// Walk distributions are computed by explicit probability propagation
/// with a prune threshold: probability mass below `prune` is dropped (and
/// with it the exponential blow-up around supernodes). `prune = 0`
/// recovers the exact distribution; a step drops at most `prune·2|E|` of
/// mass, so a pruned one-sided score is within `2·m·prune·deg(s)` of the
/// exact one.
#[derive(Clone, Debug)]
pub struct LocalRandomWalk {
    /// Number of walk steps `m`.
    pub steps: usize,
    /// Probability mass below which a frontier entry is not propagated.
    pub prune: f64,
}

impl Default for LocalRandomWalk {
    fn default() -> Self {
        LocalRandomWalk { steps: 3, prune: 1e-7 }
    }
}

/// Reusable per-source scratch space shared across a batch.
struct Scratch {
    /// Main value buffer (walk probability / PPR estimate).
    buf: Vec<f64>,
    /// Indices of `buf` that may be non-zero (cleared between sources).
    touched: Vec<NodeId>,
    /// Membership bitmap for `touched`.
    seen: Vec<bool>,
    /// Secondary buffer (PPR residuals), cleared via `touched2`.
    buf2: Vec<f64>,
    touched2: Vec<NodeId>,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Scratch {
            buf: vec![0.0; n],
            touched: Vec::new(),
            seen: vec![false; n],
            buf2: vec![0.0; n],
            touched2: Vec::new(),
        }
    }

    #[inline]
    fn touch(&mut self, x: NodeId) {
        if !self.seen[x as usize] {
            self.seen[x as usize] = true;
            self.touched.push(x);
        }
    }

    fn clear(&mut self) {
        for &x in &self.touched {
            self.buf[x as usize] = 0.0;
            self.seen[x as usize] = false;
        }
        self.touched.clear();
        for &x in &self.touched2 {
            self.buf2[x as usize] = 0.0;
        }
        self.touched2.clear();
    }
}

/// Propagates a unit of probability `steps` times from `src` through the
/// degree-normalized adjacency into `scratch.buf`.
fn walk_distribution(snap: &Snapshot, src: NodeId, steps: usize, prune: f64, scr: &mut Scratch) {
    scr.buf[src as usize] = 1.0;
    scr.touch(src);
    let mut frontier: Vec<(NodeId, f64)> = vec![(src, 1.0)];
    for _ in 0..steps {
        // Drain the frontier's mass, then scatter it to neighbors.
        for &(x, _) in &frontier {
            scr.buf[x as usize] = 0.0;
        }
        let mut next: Vec<NodeId> = Vec::new();
        for &(x, p) in &frontier {
            let d = snap.degree(x);
            if d == 0 {
                // Dangling mass is self-absorbing.
                if scr.buf[x as usize] == 0.0 {
                    next.push(x);
                }
                scr.touch(x);
                scr.buf[x as usize] += p;
                continue;
            }
            let share = p / d as f64;
            if share < prune {
                continue;
            }
            for &y in snap.neighbors(x) {
                if scr.buf[y as usize] == 0.0 {
                    next.push(y);
                }
                scr.touch(y);
                scr.buf[y as usize] += share;
            }
        }
        frontier = next.into_iter().map(|x| (x, scr.buf[x as usize])).collect();
    }
}

/// Shared two-pass batch scorer: `combine(π_uv, π_vu)` per pair, where each
/// directional probability comes from one walk/push per distinct source.
///
/// Sources are independent, so each per-source group is one work item on
/// the shared pool; every worker reuses a single [`Scratch`] allocation
/// across all the groups it claims. Each group's values are scattered back
/// by pair index and are pure functions of `(snapshot, source)`, so the
/// output is bit-identical for every `threads` value.
fn two_pass_scores<F, G>(
    snap: &Snapshot,
    pairs: &[(NodeId, NodeId)],
    run: F,
    combine: G,
    threads: usize,
) -> Vec<f64>
where
    F: Fn(&Snapshot, NodeId, &mut Scratch) + Sync,
    G: Fn(&Snapshot, (NodeId, NodeId), f64, f64) -> f64,
{
    let n = snap.node_count();
    let mut p_uv = vec![0.0; pairs.len()];
    let mut p_vu = vec![0.0; pairs.len()];

    for endpoint in 0..2 {
        let src_of = |p: (NodeId, NodeId)| if endpoint == 0 { p.0 } else { p.1 };
        let dst_of = |p: (NodeId, NodeId)| if endpoint == 0 { p.1 } else { p.0 };
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        order.sort_unstable_by_key(|&i| src_of(pairs[i]));
        // One task per distinct source.
        let mut groups: Vec<std::ops::Range<usize>> = Vec::new();
        let mut i = 0;
        while i < order.len() {
            let src = src_of(pairs[order[i]]);
            let mut j = i;
            while j < order.len() && src_of(pairs[order[j]]) == src {
                j += 1;
            }
            groups.push(i..j);
            i = j;
        }
        let results = par::run_indexed_init(
            groups.len(),
            threads.max(1),
            || Scratch::new(n),
            |scr, g| {
                let range = groups[g].clone();
                let src = src_of(pairs[order[range.start]]);
                run(snap, src, scr);
                let vals: Vec<(usize, f64)> = order[range]
                    .iter()
                    .map(|&idx| (idx, scr.buf[dst_of(pairs[idx]) as usize]))
                    .collect();
                scr.clear();
                vals
            },
        );
        let target = if endpoint == 0 { &mut p_uv } else { &mut p_vu };
        for (idx, val) in results.into_iter().flatten() {
            target[idx] = val;
        }
    }
    pairs.iter().enumerate().map(|(i, &p)| combine(snap, p, p_uv[i], p_vu[i])).collect()
}

impl Metric for LocalRandomWalk {
    fn name(&self) -> &'static str {
        "LRW"
    }

    fn candidate_policy(&self) -> CandidatePolicy {
        CandidatePolicy::ThreeHop
    }

    fn score_contract(&self) -> ScoreContract {
        ScoreContract::FiniteNonNegative
    }

    fn score_pairs(&self, snap: &Snapshot, pairs: &[(NodeId, NodeId)]) -> Vec<f64> {
        self.score_pairs_cached(snap, pairs, par::max_threads(), &mut SolverCache::transient())
    }

    fn score_pairs_cached(
        &self,
        snap: &Snapshot,
        pairs: &[(NodeId, NodeId)],
        threads: usize,
        cache: &mut SolverCache,
    ) -> Vec<f64> {
        let tv = cache.ensure_snapshot(snap);
        match solver::lrw_scores_t(&tv, pairs, self.steps, self.prune, threads, "LRW") {
            Ok(scores) => scores,
            // The Metric trait has no error channel; a tripped solver guard
            // is a hard invariant violation, same class as an audit panic.
            Err(e) => panic!("{e}"),
        }
    }
}

impl LocalRandomWalk {
    /// Per-source reference path (the original frontier-propagation
    /// implementation): one [`walk_distribution`] per distinct endpoint.
    /// Kept as the oracle the batched solver is tested and benchmarked
    /// against; not used by the engine.
    pub fn score_pairs_per_source_t(
        &self,
        snap: &Snapshot,
        pairs: &[(NodeId, NodeId)],
        threads: usize,
    ) -> Vec<f64> {
        let two_e = (2 * snap.edge_count()).max(1) as f64;
        // linklens-allow(per-source-power-iteration): reference oracle; the engine solves LRW batched
        two_pass_scores(
            snap,
            pairs,
            // linklens-allow(per-source-power-iteration): reference oracle, one walk per source on purpose
            |s, src, scr| walk_distribution(s, src, self.steps, self.prune, scr),
            |s, (u, v), puv, pvu| {
                (s.degree(u) as f64 / two_e) * puv + (s.degree(v) as f64 / two_e) * pvu
            },
            threads,
        )
    }
}

/// Personalized PageRank \[5\]: `π_uv + π_vu` with restart probability
/// `α = 0.15`. The engine evaluates the equal one-sided form
/// `π_st·(1 + deg(s)/deg(t))` from the pair's solve side `s` with a
/// tolerance-certified batched solve (see the module docs); the
/// per-source reference approximates both terms by the forward-push
/// algorithm (Andersen–Chung–Lang): push while any residual exceeds
/// `epsilon · deg`, giving per-entry error ≤ `epsilon · deg`.
#[derive(Clone, Debug)]
pub struct PersonalizedPageRank {
    /// Restart probability α.
    pub alpha: f64,
    /// Push tolerance (smaller = more accurate, slower).
    pub epsilon: f64,
}

impl Default for PersonalizedPageRank {
    fn default() -> Self {
        PersonalizedPageRank { alpha: 0.15, epsilon: 1e-5 }
    }
}

fn forward_push(snap: &Snapshot, src: NodeId, alpha: f64, epsilon: f64, scr: &mut Scratch) {
    // buf = PPR estimate, buf2 = residual.
    scr.buf2[src as usize] = 1.0;
    scr.touched2.push(src);
    let mut queue: Vec<NodeId> = vec![src];
    while let Some(x) = queue.pop() {
        let d = snap.degree(x).max(1);
        let r = scr.buf2[x as usize];
        if r < epsilon * d as f64 {
            continue;
        }
        scr.buf2[x as usize] = 0.0;
        scr.touch(x);
        scr.buf[x as usize] += alpha * r;
        let share = (1.0 - alpha) * r / d as f64;
        for &y in snap.neighbors(x) {
            let dy = snap.degree(y).max(1);
            let before = scr.buf2[y as usize];
            if before == 0.0 {
                scr.touched2.push(y);
            }
            scr.buf2[y as usize] += share;
            if before < epsilon * dy as f64 && scr.buf2[y as usize] >= epsilon * dy as f64 {
                queue.push(y);
            }
        }
    }
}

impl Metric for PersonalizedPageRank {
    fn name(&self) -> &'static str {
        "PPR"
    }

    fn candidate_policy(&self) -> CandidatePolicy {
        CandidatePolicy::ThreeHop
    }

    fn score_contract(&self) -> ScoreContract {
        ScoreContract::FiniteNonNegative
    }

    fn score_pairs(&self, snap: &Snapshot, pairs: &[(NodeId, NodeId)]) -> Vec<f64> {
        self.score_pairs_cached(snap, pairs, par::max_threads(), &mut SolverCache::transient())
    }

    fn score_pairs_cached(
        &self,
        snap: &Snapshot,
        pairs: &[(NodeId, NodeId)],
        threads: usize,
        cache: &mut SolverCache,
    ) -> Vec<f64> {
        let tv = cache.ensure_snapshot(snap);
        match solver::ppr_scores_t(&tv, pairs, self.alpha, self.solver_tol(), threads, cache, "PPR")
        {
            Ok(scores) => scores,
            // The Metric trait has no error channel; a tripped solver guard
            // is a hard invariant violation, same class as an audit panic.
            Err(e) => panic!("{e}"),
        }
    }
}

impl PersonalizedPageRank {
    /// Residual L1 tolerance the batched Chebyshev solver targets,
    /// derived from the push tolerance so the solver path is at least as
    /// accurate as the per-source reference (push guarantees per-entry
    /// error ≤ `epsilon · deg`; the solver certifies total L1 error
    /// ≤ `solver_tol / alpha`).
    pub fn solver_tol(&self) -> f64 {
        10.0 * self.epsilon
    }

    /// Per-source reference path (the original Andersen–Chung–Lang
    /// forward-push implementation): one [`forward_push`] per distinct
    /// endpoint. Kept as the oracle the batched solver is tested and
    /// benchmarked against; not used by the engine.
    pub fn score_pairs_per_source_t(
        &self,
        snap: &Snapshot,
        pairs: &[(NodeId, NodeId)],
        threads: usize,
    ) -> Vec<f64> {
        // linklens-allow(per-source-power-iteration): reference oracle; the engine solves PPR batched
        two_pass_scores(
            snap,
            pairs,
            // linklens-allow(per-source-power-iteration): reference oracle, one push per source on purpose
            |s, src, scr| forward_push(s, src, self.alpha, self.epsilon, scr),
            |_, _, puv, pvu| puv + pvu,
            threads,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Snapshot {
        Snapshot::from_edges(4, &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn walk_distribution_path_graph_exact() {
        // From node 0 on 0-1-2-3, after 2 steps: 0 w.p. 1/2, 2 w.p. 1/2.
        let s = path4();
        let mut scr = Scratch::new(4);
        walk_distribution(&s, 0, 2, 0.0, &mut scr);
        assert!((scr.buf[0] - 0.5).abs() < 1e-12);
        assert!((scr.buf[2] - 0.5).abs() < 1e-12);
        assert_eq!(scr.buf[1], 0.0);
    }

    #[test]
    fn walk_distribution_mass_conserved() {
        let s = Snapshot::from_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]);
        let mut scr = Scratch::new(5);
        walk_distribution(&s, 0, 3, 0.0, &mut scr);
        let total: f64 = scr.buf.iter().sum();
        assert!((total - 1.0).abs() < 1e-12, "mass leaked: {total}");
    }

    #[test]
    fn scratch_clear_resets_everything() {
        let s = path4();
        let mut scr = Scratch::new(4);
        walk_distribution(&s, 0, 3, 0.0, &mut scr);
        scr.clear();
        assert!(scr.buf.iter().all(|&x| x == 0.0));
        assert!(scr.seen.iter().all(|&x| !x));
        // Second run from a different source must be unaffected.
        walk_distribution(&s, 3, 2, 0.0, &mut scr);
        assert!((scr.buf[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lrw_respects_walk_parity_on_bipartite_graphs() {
        // On the bipartite path 0-1-2-3, a 3-step walk can never land at
        // even distance: π_{02}(3) = 0 exactly, while the distance-3 pair
        // gets positive mass. This is faithful to the paper's formula.
        let s = path4();
        let lrw = LocalRandomWalk::default();
        let scores = lrw.score_pairs(&s, &[(0, 2), (0, 3)]);
        assert_eq!(scores[0], 0.0, "even-distance pair unreachable in 3 steps");
        assert!(scores[1] > 0.0, "3-step walk reaches distance 3");
    }

    #[test]
    fn lrw_prefers_near_pairs_on_non_bipartite_graph() {
        // Two triangles bridged (odd cycles break parity): 0-1-2 and 3-4-5
        // triangles joined by edge 2-3.
        let s = Snapshot::from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]);
        let lrw = LocalRandomWalk::default();
        let scores = lrw.score_pairs(&s, &[(0, 3), (0, 4)]);
        assert!(scores[0] > scores[1], "distance-2 pair should beat distance-3: {scores:?}");
        assert!(scores[1] > 0.0);
    }

    #[test]
    fn lrw_symmetric_in_pair_order() {
        let s = Snapshot::from_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]);
        let lrw = LocalRandomWalk::default();
        let a = lrw.score_pairs(&s, &[(0, 3)])[0];
        let b = lrw.score_pairs(&s, &[(3, 0)])[0];
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn ppr_push_approximates_power_iteration() {
        // Reference: dense personalized-PageRank power iteration.
        let s = Snapshot::from_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)]);
        let alpha = 0.15;
        let n = 5;
        let mut pi = vec![0.0; n];
        let mut next = vec![0.0; n];
        pi[0] = 1.0;
        for _ in 0..200 {
            next.iter_mut().for_each(|x| *x = 0.0);
            next[0] += alpha;
            for x in 0..n as NodeId {
                let d = s.degree(x).max(1) as f64;
                for &y in s.neighbors(x) {
                    next[y as usize] += (1.0 - alpha) * pi[x as usize] / d;
                }
            }
            pi.copy_from_slice(&next);
        }
        let mut scr = Scratch::new(n);
        forward_push(&s, 0, alpha, 1e-7, &mut scr);
        for (v, &exact) in pi.iter().enumerate() {
            assert!(
                (scr.buf[v] - exact).abs() < 1e-4,
                "node {v}: push {} vs exact {exact}",
                scr.buf[v]
            );
        }
    }

    #[test]
    fn ppr_scores_rank_by_proximity() {
        let s = path4();
        let ppr = PersonalizedPageRank::default();
        let scores = ppr.score_pairs(&s, &[(0, 2), (0, 3)]);
        assert!(scores[0] > scores[1]);
        assert!(scores[1] > 0.0);
    }

    #[test]
    fn ppr_handles_isolated_source() {
        let s = Snapshot::from_edges(3, &[(0, 1)]);
        let ppr = PersonalizedPageRank::default();
        let scores = ppr.score_pairs(&s, &[(0, 2)]);
        assert!(scores[0] < 1e-6);
    }

    #[test]
    fn lrw_prune_trades_accuracy_for_speed() {
        // With aggressive pruning, far-away mass disappears but near-by
        // scores survive.
        let s = path4();
        let exact = LocalRandomWalk { steps: 3, prune: 0.0 };
        let pruned = LocalRandomWalk { steps: 3, prune: 0.4 };
        let e = exact.score_pairs(&s, &[(0, 2)])[0];
        let p = pruned.score_pairs(&s, &[(0, 2)])[0];
        assert!(p <= e + 1e-12);
        assert!(p >= 0.0);
    }
}
