//! The bounded-latency query path: per-source candidate enumeration and
//! targeted scoring.
//!
//! Everything in this module is on the deterministic surface (the
//! `linklens-deterministic` markers) and is deliberately *pure* with
//! respect to server state: no locks, no I/O, no snapshot construction —
//! the worker loop resolves the pinned snapshot, kernel context, and
//! caches first and hands them in by reference. The
//! `blocking-in-query-path` analyzer rule enforces exactly that shape.
//!
//! Per-source enumeration reproduces the offline
//! [`CandidateSet::build`](osn_metrics::candidates::CandidateSet::build)
//! universe *restricted to pairs containing the source*: distance-2
//! targets for `TwoHop`, distance-2/3 for `ThreeHop`, and for `Global`
//! additionally the precomputed hub list (plus, for a source that *is* a
//! hub, every unconnected node — the offline hub fan-out seen from the
//! hub's side). The served pairs are the source's offline pairs,
//! canonicalized, in ascending order. The offline set need not hold them
//! in that order: a two-hop set keeps each source's targets in
//! witness-discovery order. Parity holds against the offline candidate
//! set *filtered to the source, then scored*: the same pairs, whose
//! scores do not depend on their order, and seeded top-k ties break on a
//! per-pair hash, so the answers are bit-identical (asserted by
//! `tests/serve_equivalence.rs` and the `--serving-only` scalecheck
//! phase). Every pair holds the source, so LRW, PPR, SP and LP solve or
//! scan from the source alone: one column per uncached walk query. Scoring the whole offline set and filtering the
//! scores afterwards lets the walk metrics pick other solve sides, which
//! stays within the solvers' certified bounds but is not bit-equal.

use osn_graph::snapshot::Snapshot;
use osn_graph::NodeId;
use osn_metrics::exec;
use osn_metrics::fused::{FusedCtx, FusedScratch};
use osn_metrics::solver::SolverCache;
use osn_metrics::topk;
use osn_metrics::traits::{CandidatePolicy, Metric};

/// Epoch-stamped node marker reused across queries, so enumeration costs
/// the source's neighborhood — not O(n) clearing — per query.
#[derive(Debug)]
pub struct EnumScratch {
    mark: Vec<u64>,
    epoch: u64,
}

impl EnumScratch {
    /// Scratch for snapshots of up to `n` nodes (grows on demand).
    pub fn new(n: usize) -> Self {
        EnumScratch { mark: vec![0; n], epoch: 0 }
    }

    /// Starts a new enumeration epoch covering `n` nodes.
    fn begin(&mut self, n: usize) -> u64 {
        if self.mark.len() < n {
            self.mark.resize(n, 0);
        }
        self.epoch += 1;
        self.epoch
    }
}

/// Enumerates the candidate pairs containing `source` under `policy`:
/// exactly the pairs of the offline candidate set that touch the source,
/// canonical and in ascending order (which need not be the offline set's
/// order). `hubs` is the per-version top-degree list the `Global` policy
/// fans out to.
// linklens-deterministic: serving enumeration must equal the offline candidate set filtered to the source
pub fn candidate_targets(
    snap: &Snapshot,
    source: NodeId,
    policy: CandidatePolicy,
    hubs: &[NodeId],
    scratch: &mut EnumScratch,
) -> Vec<(NodeId, NodeId)> {
    let n = snap.node_count();
    if source as usize >= n {
        return Vec::new();
    }
    let epoch = scratch.begin(n);
    scratch.mark[source as usize] = epoch;
    for &w in snap.neighbors(source) {
        scratch.mark[w as usize] = epoch;
    }
    // Distance-2 targets: unconnected by construction (neighbors are
    // already marked).
    let mut targets: Vec<NodeId> = Vec::new();
    for &w in snap.neighbors(source) {
        for &v in snap.neighbors(w) {
            if scratch.mark[v as usize] != epoch {
                scratch.mark[v as usize] = epoch;
                targets.push(v);
            }
        }
    }
    if matches!(policy, CandidatePolicy::ThreeHop | CandidatePolicy::Global) {
        let dist2_len = targets.len();
        for i in 0..dist2_len {
            let w = targets[i];
            for &v in snap.neighbors(w) {
                if scratch.mark[v as usize] != epoch {
                    scratch.mark[v as usize] = epoch;
                    targets.push(v);
                }
            }
        }
    }
    if policy == CandidatePolicy::Global {
        for &h in hubs {
            if scratch.mark[h as usize] != epoch {
                scratch.mark[h as usize] = epoch;
                targets.push(h);
            }
        }
        if hubs.contains(&source) {
            for v in 0..n as NodeId {
                if scratch.mark[v as usize] != epoch {
                    targets.push(v);
                }
            }
        }
    }
    let mut pairs: Vec<(NodeId, NodeId)> =
        targets.iter().map(|&v| osn_graph::canonical(source, v)).collect();
    pairs.sort_unstable();
    pairs
}

/// Answers one query against pinned per-version state: enumerate the
/// source's candidates, score them through the targeted engine entry
/// point ([`exec::score_pairs_targeted`]), select the seeded top-k. Pure
/// in `(snapshot, kernel state, query)` — bit-identical to the offline
/// candidate set filtered to the source and scored by the batch engine
/// at the same snapshot.
// linklens-deterministic: the served answer must equal the offline oracle at the pinned version
#[allow(clippy::too_many_arguments)]
pub fn answer_query(
    metric: &dyn Metric,
    snap: &Snapshot,
    ctx: &FusedCtx<'_>,
    fused_scratch: &mut FusedScratch,
    enum_scratch: &mut EnumScratch,
    solver: &mut SolverCache,
    hubs: &[NodeId],
    source: NodeId,
    k: usize,
    seed: u64,
) -> Vec<(NodeId, NodeId)> {
    let pairs = candidate_targets(snap, source, metric.candidate_policy(), hubs, enum_scratch);
    if pairs.is_empty() {
        return Vec::new();
    }
    let scores = exec::score_pairs_targeted(metric, snap, ctx, fused_scratch, &pairs, solver);
    topk::top_k_pairs(&pairs, &scores, k, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_metrics::candidates::CandidateSet;

    /// Two triangles bridged by a path, plus a pendant chain — distances
    /// up to 5, so every policy tier is distinguishable.
    fn fixture() -> Snapshot {
        Snapshot::from_edges(
            10,
            &[
                (0, 1),
                (1, 2),
                (0, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (3, 5),
                (5, 6),
                (6, 7),
                (7, 8),
                (8, 9),
            ],
        )
    }

    /// Edges 0-1, 0-2, 1-5, 2-3: the offline two-hop set discovers source
    /// 0's targets as 5 (via 1) then 3 (via 2), so its order differs from
    /// the served ascending order.
    fn discovery_order_fixture() -> Snapshot {
        Snapshot::from_edges(6, &[(0, 1), (0, 2), (1, 5), (2, 3)])
    }

    fn offline_filtered(
        snap: &Snapshot,
        policy: CandidatePolicy,
        top_degree: usize,
        source: NodeId,
    ) -> Vec<(NodeId, NodeId)> {
        CandidateSet::build(snap, policy, top_degree)
            .pairs()
            .iter()
            .copied()
            .filter(|&(a, b)| a == source || b == source)
            .collect()
    }

    /// The `top_degree` highest-degree nodes of `snap`, as the serving
    /// store precomputes them.
    fn hubs_of(snap: &Snapshot, top_degree: usize) -> Vec<NodeId> {
        let mut by_degree: Vec<NodeId> = (0..snap.node_count() as NodeId).collect();
        by_degree.sort_unstable_by_key(|&u| std::cmp::Reverse(snap.degree(u)));
        by_degree.truncate(top_degree);
        by_degree
    }

    #[test]
    fn enumeration_equals_offline_filter_for_every_policy_and_source() {
        let top_degree = 3;
        for snap in [fixture(), discovery_order_fixture()] {
            let by_degree = hubs_of(&snap, top_degree);
            let mut scratch = EnumScratch::new(snap.node_count());
            for policy in
                [CandidatePolicy::TwoHop, CandidatePolicy::ThreeHop, CandidatePolicy::Global]
            {
                let hubs: &[NodeId] =
                    if policy == CandidatePolicy::Global { &by_degree } else { &[] };
                for source in 0..snap.node_count() as NodeId {
                    let served = candidate_targets(&snap, source, policy, hubs, &mut scratch);
                    let mut offline = offline_filtered(&snap, policy, top_degree, source);
                    offline.sort_unstable();
                    assert_eq!(served, offline, "{policy:?} source {source}");
                }
            }
        }
        // The served order is ascending even where the offline order is not.
        let snap = discovery_order_fixture();
        let offline = offline_filtered(&snap, CandidatePolicy::TwoHop, top_degree, 0);
        assert_eq!(offline, vec![(0, 5), (0, 3)]);
        let mut scratch = EnumScratch::new(snap.node_count());
        let served = candidate_targets(&snap, 0, CandidatePolicy::TwoHop, &[], &mut scratch);
        assert_eq!(served, vec![(0, 3), (0, 5)]);
    }

    #[test]
    fn out_of_snapshot_source_yields_no_candidates() {
        let snap = fixture();
        let mut scratch = EnumScratch::new(snap.node_count());
        let served = candidate_targets(&snap, 99, CandidatePolicy::Global, &[0, 1], &mut scratch);
        assert!(served.is_empty());
    }

    #[test]
    fn walk_queries_solve_one_column_each() {
        use osn_metrics::fused::LocalKind;
        let snap = fixture();
        let ctx = FusedCtx::build(&snap, &LocalKind::ALL);
        let mut fscratch = FusedScratch::new(snap.node_count());
        let mut escratch = EnumScratch::new(snap.node_count());
        let ppr = osn_metrics::walk::PersonalizedPageRank::default();
        let mut answered = 0;
        for source in 0..snap.node_count() as NodeId {
            let policy = ppr.candidate_policy();
            if candidate_targets(&snap, source, policy, &[], &mut escratch).is_empty() {
                continue;
            }
            let mut solver = SolverCache::transient();
            answer_query(
                &ppr,
                &snap,
                &ctx,
                &mut fscratch,
                &mut escratch,
                &mut solver,
                &[],
                source,
                4,
                0x11A5,
            );
            assert_eq!(solver.stats.ppr_sources, 1, "PPR query for source {source}");
            answered += 1;
        }
        assert!(answered >= 8, "the fixture must give most sources candidates ({answered})");
    }

    #[test]
    fn answer_matches_offline_oracle_per_metric() {
        use osn_metrics::fused::LocalKind;
        let top_degree = 2;
        for (snap, sources) in
            [(fixture(), [0u32, 3, 6, 9]), (discovery_order_fixture(), [0, 1, 2, 3])]
        {
            let by_degree = hubs_of(&snap, top_degree);
            let ctx = FusedCtx::build(&snap, &LocalKind::ALL);
            let mut fscratch = FusedScratch::new(snap.node_count());
            let mut escratch = EnumScratch::new(snap.node_count());
            for m in osn_metrics::all_metrics() {
                let mut solver = SolverCache::transient();
                let hubs: &[NodeId] =
                    if m.candidate_policy() == CandidatePolicy::Global { &by_degree } else { &[] };
                for source in sources {
                    let served = answer_query(
                        m.as_ref(),
                        &snap,
                        &ctx,
                        &mut fscratch,
                        &mut escratch,
                        &mut solver,
                        hubs,
                        source,
                        4,
                        0x11A5,
                    );
                    // The oracle: offline filtered candidates in offline
                    // order, batch engine scores, same seeded selection.
                    let pairs = offline_filtered(&snap, m.candidate_policy(), top_degree, source);
                    let scores = osn_metrics::exec::score_pairs_t(m.as_ref(), &snap, &pairs, 1);
                    let oracle = topk::top_k_pairs(&pairs, &scores, 4, 0x11A5);
                    assert_eq!(served, oracle, "{} source {source}", m.name());
                }
            }
        }
    }
}
