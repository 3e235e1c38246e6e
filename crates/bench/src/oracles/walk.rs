//! Two-sided per-source references for LRW and PPR: the original
//! frontier walk and Andersen–Chung–Lang forward push, one solve per
//! distinct endpoint of each side.
//!
//! * LRW: `(d_u/2E)·π_uv(m) + (d_v/2E)·π_vu(m)`, from pruned walks;
//! * PPR: `π_u(v) + π_v(u)`, each term within `ε·deg` of exact.
//!
//! The engine scores each pair one-sided from its batch's solve side, so
//! the two agree within [`lrw_bound`] and [`ppr_bound`], derived below,
//! not bit for bit.

use osn_graph::par;
use osn_graph::snapshot::Snapshot;
use osn_graph::NodeId;
use osn_metrics::walk::{LocalRandomWalk, PersonalizedPageRank};

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
/// the shared pool; every worker reuses a single `Scratch` allocation
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

/// Local Random Walk, one `walk_distribution` per distinct endpoint of
/// each side, sources spread over `threads` workers.
pub fn local_random_walk(
    lrw: &LocalRandomWalk,
    snap: &Snapshot,
    pairs: &[(NodeId, NodeId)],
    threads: usize,
) -> Vec<f64> {
    let two_e = (2 * snap.edge_count()).max(1) as f64;
    two_pass_scores(
        snap,
        pairs,
        |s, src, scr| walk_distribution(s, src, lrw.steps, lrw.prune, scr),
        |s, (u, v), puv, pvu| {
            (s.degree(u) as f64 / two_e) * puv + (s.degree(v) as f64 / two_e) * pvu
        },
        threads,
    )
}

/// Forward push from `src` into `scr.buf`: push while a residual exceeds
/// `epsilon · deg`, so each entry is within `epsilon · deg` of exact.
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

/// Personalized PageRank, one `forward_push` per distinct endpoint of
/// each side, sources spread over `threads` workers.
pub fn personalized_pagerank(
    ppr: &PersonalizedPageRank,
    snap: &Snapshot,
    pairs: &[(NodeId, NodeId)],
    threads: usize,
) -> Vec<f64> {
    two_pass_scores(
        snap,
        pairs,
        |s, src, scr| forward_push(s, src, ppr.alpha, ppr.epsilon, scr),
        |_, _, puv, pvu| puv + pvu,
        threads,
    )
}

/// `1 + d_max/d_min` for a pair: the most the one-sided PPR factor
/// `1 + d_s/d_t` can scale a solved column's error, whichever endpoint is
/// the pair's solve side `s`. 1 when an endpoint is isolated: the factor
/// is 1 there.
pub fn side_factor(snap: &Snapshot, (u, v): (NodeId, NodeId)) -> f64 {
    let (du, dv) = (snap.degree(u) as f64, snap.degree(v) as f64);
    if du.min(dv) == 0.0 {
        1.0
    } else {
        1.0 + du.max(dv) / du.min(dv)
    }
}

/// How far the engine's PPR score of a pair may sit from the exact
/// score: `(tol/α)·(1 + d_max/d_min)`. The engine scores a pair
/// one-sided, `p̂_s[t]·(1 + d_s/d_t)` from its side's column, which the
/// Chebyshev solve certifies within `‖p − p̂‖₁ ≤ tol/α` of the exact
/// column; by reversibility the exact one-sided score is the exact
/// two-sided one, and [`side_factor`] bounds the factor. Two engine runs
/// on the same pair list take the same side for each pair, so a warm and
/// a cold start may differ by twice this.
pub fn ppr_solve_bound(ppr: &PersonalizedPageRank, snap: &Snapshot, pair: (NodeId, NodeId)) -> f64 {
    ppr.solver_tol() / ppr.alpha * side_factor(snap, pair)
}

/// How far the engine's PPR score of `(u, v)` may sit from
/// [`personalized_pagerank`]'s: `ε·(d_u + d_v) + `[`ppr_solve_bound`].
/// The forward-push reference has per-entry error at most `ε·deg`, so
/// `ε·(d_u + d_v)` over its two terms, and the engine is within
/// [`ppr_solve_bound`] of the exact score. With `d_u = d_v` that is
/// `ε·(d_u + d_v) + 2·tol/α`.
pub fn ppr_bound(ppr: &PersonalizedPageRank, snap: &Snapshot, (u, v): (NodeId, NodeId)) -> f64 {
    ppr.epsilon * (snap.degree(u) + snap.degree(v)) as f64 + ppr_solve_bound(ppr, snap, (u, v))
}

/// How far the engine's LRW score of `(u, v)` may sit from
/// [`local_random_walk`]'s: `3·m·prune·(d_u + d_v) + 1e-12`.
///
/// The engine scores a pair one-sided, `2·(d_s/2E)·π̃_st(m)` from its side
/// `s`, the reference two-sided, `(d_u/2E)·π̃_uv(m) + (d_v/2E)·π̃_vu(m)`,
/// both from pruned walks `π̃`. A pruned step drops the mass of every node
/// whose share is below `prune`, at most `Σ_x prune·d_x = prune·2E`, and
/// propagation never grows an L1 deficit, so after `m` steps every entry
/// of `π̃` is within `m·prune·2E` of the exact walk `π`. The exact walk is
/// reversible, so both forms equal the same exact score: the engine
/// within `2·(d_s/2E)·m·prune·2E = 2·m·prune·d_s`, the reference within
/// `m·prune·(d_u + d_v)`. Hence the bound, plus `1e-12` of float
/// reassociation; with `prune = 0` only the reassociation term is left.
pub fn lrw_bound(lrw: &LocalRandomWalk, snap: &Snapshot, (u, v): (NodeId, NodeId)) -> f64 {
    3.0 * lrw.steps as f64 * lrw.prune * (snap.degree(u) + snap.degree(v)) as f64 + 1e-12
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
}
