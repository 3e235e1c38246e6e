//! Source-batched fused scoring kernel for the local metrics.
//!
//! A per-pair path pays a fresh sorted-merge intersection
//! (`Snapshot::common_neighbors`) per metric per pair, so scoring
//! `|metrics|` local metrics over `|pairs|` candidates costs
//! `|metrics| × |pairs|` merges. But every local-information index —
//! CN, JC, AA, RA and their naive-Bayes variants — is a sum over the
//! *same* witnesses `w ∈ Γ(u) ∩ Γ(v)`, and every candidate of a source
//! `u` draws its witnesses from `Γ(u)`. This kernel therefore batches by
//! source: it stamps the targets of `u` into an epoch-stamped marker
//! array, walks the CSR rows of `Γ(u)` **once**, and scatter-accumulates
//! each metric's witness contribution into per-candidate slots. When a
//! batch's targets hold a small share of the adjacency, the engine hands
//! the kernel a target-row view (`target_rows`), whose row of a witness
//! keeps only the batch's targets, so the walk skips the entries no stamp
//! can match; a rule compares its build cost with the entries it removes.
//! AA, RA
//! and the Bayes variants read their witness weights from per-snapshot
//! degree and naive-Bayes tables, memoized on the snapshot
//! ([`Snapshot::derived`]), so every context built on one
//! snapshot, in every worker, shares one copy. A batch of PA alone has no
//! witnesses, so it skips the source runs and derives each degree product
//! straight from the pair.
//!
//! **Bit-identity.** The kernel is bit-for-bit identical to the per-pair
//! path (the references in `linklens_bench::oracles`, one intersection
//! per pair), not merely numerically close:
//!
//! * the outer walk visits witnesses `w ∈ Γ(u)` in ascending order — the
//!   same order a sorted-merge intersection of `Γ(u)` and `Γ(v)` yields —
//!   so every per-candidate accumulator sees its terms in the per-pair
//!   summation order, both folding left to right from `+0.0`;
//! * each term is computed by the same expression as the per-pair path
//!   (`1.0 / (deg as f64).ln()`, `(log_s + log_r[w]) / deg as f64`, …),
//!   cached once per snapshot instead of recomputed per witness;
//! * derived scores reuse the exact per-pair expressions, including JC's
//!   integer union arithmetic and PA's integer degree product.
//!
//! The kernel scores a pair list built beforehand
//! ([`crate::candidates::CandidateSet`], or a served query's targets); it
//! never enumerates candidates itself.

use crate::bayes::BayesTables;
use osn_graph::snapshot::Snapshot;
use osn_graph::traversal::MemberLists;
use osn_graph::NodeId;
use std::sync::Arc;

/// One of the eight local metrics, and the column the fused kernel
/// computes for it. Each kind is itself a
/// [`Metric`](crate::traits::Metric) named by the paper's abbreviation,
/// whose [`fused_kind`](crate::traits::Metric::fused_kind) is itself; the
/// engine groups all the kinds of a batch into one kernel pass. Sums run
/// over the witnesses `w ∈ Γ(u) ∩ Γ(v)`, which always have degree ≥ 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LocalKind {
    /// Common Neighbors (CN) \[32\]: `|Γ(u) ∩ Γ(v)|`.
    Cn,
    /// Jaccard's Coefficient (JC) \[23\]: `|Γ(u) ∩ Γ(v)| / |Γ(u) ∪ Γ(v)|`,
    /// zero when both neighborhoods are empty.
    Jc,
    /// Adamic/Adar (AA) \[2\]: `Σ_w 1 / ln(deg w)`; a witness's degree is
    /// at least 2, so the log never vanishes.
    Aa,
    /// Resource Allocation (RA) \[45\]: `Σ_w 1 / deg w`.
    Ra,
    /// Preferential Attachment (PA) \[6\]: `deg(u) · deg(v)`, no witnesses
    /// needed — the "rich get richer" score the paper finds near-useless
    /// on friendship networks (§4.2).
    Pa,
    /// Local-naive-Bayes CN (BCN) \[26\]:
    /// `|Γ(u) ∩ Γ(v)|·log s + Σ_w log R_w`.
    Bcn,
    /// Local-naive-Bayes AA (BAA) \[26\]: `Σ_w (log s + log R_w) / ln(deg w)`.
    Baa,
    /// Local-naive-Bayes RA (BRA) \[26\]: `Σ_w (log s + log R_w) / deg w` —
    /// the strongest metric on Renren in the paper.
    Bra,
}

impl LocalKind {
    /// Every kind the kernel computes. A [`FusedCtx`] built with this
    /// list can score any fused metric, and scoring one kind out of it is
    /// bit-identical to a context built for that kind alone, since
    /// [`score_columns`] derives its accumulator needs from the requested
    /// kinds, not the built ones. The serving workers do not use it: each
    /// builds its context from the kinds of the metrics it serves, so a
    /// server with no Bayes metric never counts triangles.
    pub const ALL: [LocalKind; 8] = [
        LocalKind::Cn,
        LocalKind::Jc,
        LocalKind::Aa,
        LocalKind::Ra,
        LocalKind::Pa,
        LocalKind::Bcn,
        LocalKind::Baa,
        LocalKind::Bra,
    ];

    /// True for the kinds deriving from the naive-Bayes witness weights
    /// (these force [`FusedCtx::build`] to compute the Bayes tables).
    pub fn is_bayes(self) -> bool {
        matches!(self, LocalKind::Bcn | LocalKind::Baa | LocalKind::Bra)
    }
}

/// Which scatter accumulators a kind set requires.
#[derive(Clone, Copy, Debug, Default)]
struct Needs {
    cn: bool,
    aa: bool,
    ra: bool,
    blogr: bool,
    baa: bool,
    bra: bool,
}

impl Needs {
    fn of(kinds: &[LocalKind]) -> Self {
        let mut n = Needs::default();
        for &k in kinds {
            match k {
                LocalKind::Cn | LocalKind::Jc => n.cn = true,
                LocalKind::Aa => n.aa = true,
                LocalKind::Ra => n.ra = true,
                LocalKind::Pa => {}
                LocalKind::Bcn => {
                    n.cn = true;
                    n.blogr = true;
                }
                LocalKind::Baa => n.baa = true,
                LocalKind::Bra => n.bra = true,
            }
        }
        n
    }

    /// True when any accumulator is live, i.e. the witness walk must run
    /// (a PA-only batch skips the traversal and the per-source slot
    /// bookkeeping entirely).
    fn walk(&self) -> bool {
        self.cn || self.aa || self.ra || self.blogr || self.baa || self.bra
    }
}

/// Degree-derived witness weights for one snapshot, memoized on it.
///
/// The local-information metrics weight every common-neighbor witness `w`
/// by `1 / deg(w)` (RA) or `1 / ln(deg w)` (AA); recomputing the division
/// and logarithm per (pair, witness) is waste, since the values depend
/// only on the snapshot.
///
/// Entries are exactly the expressions the per-pair formulas evaluate
/// (`1.0 / (deg as f64).ln()`, `1.0 / deg as f64`), so sums built
/// from table lookups are bit-identical to sums built from inline
/// recomputation. Entries for degree 0 and 1 hold the raw IEEE results
/// (infinities / negative zero); they are never consulted, because a
/// common-neighbor witness always has degree ≥ 2.
struct DegreeTables {
    /// `1.0 / (deg(u) as f64).ln()` per node — AA's witness weight.
    inv_ln_deg: Vec<f64>,
    /// `1.0 / deg(u) as f64` per node — RA's witness weight.
    inv_deg: Vec<f64>,
}

impl DegreeTables {
    fn build(snap: &Snapshot) -> Self {
        let degrees = (0..snap.node_count()).map(|u| snap.degree(u as NodeId) as f64);
        DegreeTables {
            inv_ln_deg: degrees.clone().map(|d| 1.0 / d.ln()).collect(),
            inv_deg: degrees.map(|d| 1.0 / d).collect(),
        }
    }
}

/// Read-only per-snapshot state for the kernel: the snapshot itself, its
/// degree tables, and (when a Bayes kind is requested) its naive-Bayes
/// weight tables. Build once, share across workers.
pub struct FusedCtx<'s> {
    snap: &'s Snapshot,
    tables: Arc<DegreeTables>,
    bayes: Option<Arc<BayesTables>>,
}

impl<'s> FusedCtx<'s> {
    /// The snapshot this context was built on. Lets callers that thread a
    /// context separately from the snapshot (the targeted serving path)
    /// assert the two stayed in sync.
    pub fn snapshot(&self) -> &'s Snapshot {
        self.snap
    }

    /// Prepares the kernel context for `kinds` on `snap`; it can score any
    /// subset of `kinds`. The degree tables and, iff a Bayes kind is
    /// present, the Bayes weight tables come from the snapshot's memo:
    /// the first context built on a snapshot builds them, and every later
    /// one, in any worker, reads them.
    pub fn build(snap: &'s Snapshot, kinds: &[LocalKind]) -> Self {
        let tables = snap.derived::<DegreeTables, _>(&[], || DegreeTables::build(snap));
        let bayes = kinds
            .iter()
            .any(|k| k.is_bayes())
            .then(|| snap.derived::<BayesTables, _>(&[], || BayesTables::build(snap)));
        FusedCtx { snap, tables, bayes }
    }

    /// Derives one score for pair `(u, v)` whose accumulators live at
    /// `slot` in `scratch`. Mirrors the per-pair expressions exactly.
    fn derive(
        &self,
        kind: LocalKind,
        scratch: &FusedScratch,
        u: NodeId,
        v: NodeId,
        slot: usize,
    ) -> f64 {
        match kind {
            LocalKind::Cn => scratch.cn[slot] as f64,
            LocalKind::Jc => {
                let inter = scratch.cn[slot];
                let union = self.snap.degree(u) + self.snap.degree(v) - inter;
                if union == 0 {
                    0.0
                } else {
                    inter as f64 / union as f64
                }
            }
            LocalKind::Aa => scratch.aa[slot],
            LocalKind::Ra => scratch.ra[slot],
            LocalKind::Pa => (self.snap.degree(u) * self.snap.degree(v)) as f64,
            LocalKind::Bcn => {
                // linklens-allow(unwrap-in-lib): FusedCtx::build computes the Bayes tables whenever a Bayes kind is requested
                let b = self.bayes.as_ref().expect("Bayes kind scored without Bayes tables");
                scratch.cn[slot] as f64 * b.log_s + scratch.blogr[slot]
            }
            LocalKind::Baa => scratch.baa[slot],
            LocalKind::Bra => scratch.bra[slot],
        }
    }
}

/// Per-worker mutable state: an epoch-stamped target-marker array plus the
/// per-candidate scatter accumulators. One instance per worker, reused
/// across every chunk the worker claims — no per-source allocation.
pub struct FusedScratch {
    epoch: u32,
    /// `seen[x] == epoch` ⇔ `x` is a target of the current source run.
    seen: Vec<u32>,
    /// Valid iff `seen[x] == epoch`: `x`'s accumulator slot.
    slot: Vec<u32>,
    /// Slot of each pair in the current run (handles duplicate targets).
    pslot: Vec<u32>,
    cn: Vec<usize>,
    aa: Vec<f64>,
    ra: Vec<f64>,
    blogr: Vec<f64>,
    baa: Vec<f64>,
    bra: Vec<f64>,
}

impl FusedScratch {
    /// Scratch for a graph of `n` nodes.
    pub fn new(n: usize) -> Self {
        FusedScratch {
            epoch: 0,
            seen: vec![0; n],
            slot: vec![0; n],
            pslot: Vec::new(),
            cn: Vec::new(),
            aa: Vec::new(),
            ra: Vec::new(),
            blogr: Vec::new(),
            baa: Vec::new(),
            bra: Vec::new(),
        }
    }

    /// Starts a new source run: bumps the epoch (O(1) clear of all target
    /// stamps) and hard-resets the stamp array on counter wraparound so a
    /// stale stamp from 2³² runs ago can never alias the current epoch.
    fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.seen.fill(0);
            self.epoch = 1;
        }
        self.pslot.clear();
    }

    /// Sizes the live accumulators to `slots` zeroed entries.
    fn reset_acc(&mut self, slots: usize, needs: &Needs) {
        if needs.cn {
            self.cn.clear();
            self.cn.resize(slots, 0);
        }
        if needs.aa {
            self.aa.clear();
            self.aa.resize(slots, 0.0);
        }
        if needs.ra {
            self.ra.clear();
            self.ra.resize(slots, 0.0);
        }
        if needs.blogr {
            self.blogr.clear();
            self.blogr.resize(slots, 0.0);
        }
        if needs.baa {
            self.baa.clear();
            self.baa.resize(slots, 0.0);
        }
        if needs.bra {
            self.bra.clear();
            self.bra.resize(slots, 0.0);
        }
    }

    /// Accumulates witness `w`'s contribution into `slot` for every live
    /// accumulator. Called in ascending-`w` order, preserving the
    /// per-pair summation order bit-for-bit.
    #[inline]
    fn hit(&mut self, ctx: &FusedCtx<'_>, needs: &Needs, w: NodeId, slot: usize) {
        let wi = w as usize;
        if needs.cn {
            self.cn[slot] += 1;
        }
        if needs.aa {
            self.aa[slot] += ctx.tables.inv_ln_deg[wi];
        }
        if needs.ra {
            self.ra[slot] += ctx.tables.inv_deg[wi];
        }
        if let Some(b) = &ctx.bayes {
            if needs.blogr {
                self.blogr[slot] += b.log_r[wi];
            }
            if needs.baa {
                self.baa[slot] += b.baa_w[wi];
            }
            if needs.bra {
                self.bra[slot] += b.bra_w[wi];
            }
        }
    }
}

/// The target-row view of a batch: its distinct second endpoints' member
/// lists ([`MemberLists`]), whose row of a witness `w` is `Γ(w)` less every
/// entry that is no target — when scoring `kinds` walks witnesses and the
/// view costs less than the walk it removes, else `None`. With `T` the
/// distinct targets, `nnz` the snapshot's adjacency entries and
/// `W = Σ_{u∈sources} Σ_{w∈Γ(u)} deg w` the entries the walk through the
/// snapshot's rows reads (each source run reads its witnesses' rows once),
/// the view is built iff its build cost is less than the walk entries
/// outside the targets' share of the adjacency:
///
/// `n + 2·Σ_{t∈T} deg t < W·(1 − Σ_{t∈T} deg t / nnz)`.
///
/// A sampled draw (a thousand targets on a hundred-thousand-node snapshot)
/// passes by a wide margin; a sweep's two-hop set, whose targets hold
/// nearly all the adjacency, and a few pairs on a large snapshot do not,
/// and a PA-only batch walks nothing.
pub(crate) fn target_rows(
    snap: &Snapshot,
    pairs: &[(NodeId, NodeId)],
    kinds: &[LocalKind],
) -> Option<MemberLists> {
    if !Needs::of(kinds).walk() {
        return None;
    }
    let mut is_target = vec![false; snap.node_count()];
    let mut targets = Vec::new();
    let (mut target_entries, mut walk) = (0usize, 0usize);
    let mut last = None;
    for &(u, v) in pairs {
        if last != Some(u) {
            last = Some(u);
            walk += snap.neighbors(u).iter().map(|&w| snap.degree(w)).sum::<usize>();
        }
        if !std::mem::replace(&mut is_target[v as usize], true) {
            targets.push(v);
            target_entries += snap.degree(v);
        }
    }
    // Both sides times nnz, in integers: no rounding decides the rule.
    let (n, nnz) = (snap.node_count() as u128, 2 * snap.edge_count() as u128);
    let (t, w) = (target_entries as u128, walk as u128);
    ((n + 2 * t) * nnz < w * (nnz - t)).then(|| {
        targets.sort_unstable();
        MemberLists::new(snap, &targets)
    })
}

/// Scores `pairs` for every kind in `kinds` with one witness walk per
/// source run, returning one column per kind (aligned with `pairs`).
///
/// Pairs are processed in runs of equal source endpoint (candidate lists
/// are canonically sorted, so runs are maximal); within a run the targets
/// are stamped, `Γ(u)`'s witnesses are visited once in ascending order,
/// and each witness's row — `rows`, the batch's target-row view (its
/// targets' [`MemberLists`]), when the engine built one, else the
/// snapshot's own — is scanned for stamped
/// targets, whose slots take the witness's contribution. Works for *any*
/// pair list — targets need not be two-hop, unconnected, or even distinct
/// — and matches the per-pair path bit-for-bit (see the module docs for
/// the argument). `rows` must be built from a list holding every target
/// of `pairs`.
pub fn score_columns(
    ctx: &FusedCtx<'_>,
    rows: Option<&MemberLists>,
    scratch: &mut FusedScratch,
    pairs: &[(NodeId, NodeId)],
    kinds: &[LocalKind],
) -> Vec<Vec<f64>> {
    let needs = Needs::of(kinds);
    if !needs.walk() {
        // Every kind is PA, which reads only the two degrees: no target
        // stamps, slots or accumulators.
        return kinds
            .iter()
            .map(|&kind| pairs.iter().map(|&(u, v)| ctx.derive(kind, scratch, u, v, 0)).collect())
            .collect();
    }
    let mut cols: Vec<Vec<f64>> = kinds.iter().map(|_| Vec::with_capacity(pairs.len())).collect();
    let mut i = 0;
    while i < pairs.len() {
        let u = pairs[i].0;
        let mut j = i;
        while j < pairs.len() && pairs[j].0 == u {
            j += 1;
        }
        let run = &pairs[i..j];
        scratch.begin();
        let e = scratch.epoch;
        let mut slots = 0u32;
        for &(_, v) in run {
            let vi = v as usize;
            if scratch.seen[vi] != e {
                scratch.seen[vi] = e;
                scratch.slot[vi] = slots;
                slots += 1;
            }
            scratch.pslot.push(scratch.slot[vi]);
        }
        scratch.reset_acc(slots as usize, &needs);
        for &w in ctx.snap.neighbors(u) {
            let row = match rows {
                Some(view) => view.of(w),
                None => ctx.snap.neighbors(w),
            };
            for &v in row {
                if scratch.seen[v as usize] == e {
                    let s = scratch.slot[v as usize] as usize;
                    scratch.hit(ctx, &needs, w, s);
                }
            }
        }
        for (pi, &(_, v)) in run.iter().enumerate() {
            let s = scratch.pslot[pi] as usize;
            for (ki, &kind) in kinds.iter().enumerate() {
                cols[ki].push(ctx.derive(kind, scratch, u, v, s));
            }
        }
        i = j;
    }
    cols
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two bridged triangles plus a pendant path (the exec.rs fixture).
    fn fixture() -> Snapshot {
        Snapshot::from_edges(
            8,
            &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5), (5, 6), (6, 7)],
        )
    }

    #[test]
    fn degree_tables_match_inline_formulas() {
        let snap = fixture();
        let ctx = FusedCtx::build(&snap, &[LocalKind::Aa]);
        for u in 0..snap.node_count() {
            let d = snap.degree(u as NodeId) as f64;
            assert_eq!(ctx.tables.inv_ln_deg[u].to_bits(), (1.0 / d.ln()).to_bits(), "node {u}");
            assert_eq!(ctx.tables.inv_deg[u].to_bits(), (1.0 / d).to_bits(), "node {u}");
        }
        // Memoized: a second context reads the same tables.
        assert!(Arc::ptr_eq(&FusedCtx::build(&snap, &[]).tables, &ctx.tables));
    }

    #[test]
    fn scratch_epoch_wraparound_resets_stamps() {
        let snap = fixture();
        let pairs = [(1u32, 3u32), (1, 4)];
        let kinds = [LocalKind::Cn];
        let ctx = FusedCtx::build(&snap, &kinds);
        let mut scratch = FusedScratch::new(snap.node_count());
        let baseline = score_columns(&ctx, None, &mut scratch, &pairs, &kinds);
        // Leave stale stamps behind, then force the next two runs across
        // the wraparound boundary: both must still score correctly.
        scratch.epoch = u32::MAX - 1;
        assert_eq!(
            score_columns(&ctx, None, &mut scratch, &pairs, &kinds),
            baseline,
            "at u32::MAX"
        );
        assert_eq!(scratch.epoch, u32::MAX);
        assert_eq!(score_columns(&ctx, None, &mut scratch, &pairs, &kinds), baseline, "wrapped");
        assert_eq!(scratch.epoch, 1, "wraparound restarts the epoch at 1");
        assert!(scratch.seen.iter().all(|&e| e <= 1), "stamps hard-reset on wrap");
        assert_eq!(score_columns(&ctx, None, &mut scratch, &pairs, &kinds), baseline, "post-wrap");
    }

    /// Two serve workers at one version: each holds its own kernel
    /// context, scratch and solver cache on one `Arc<Snapshot>`, and both
    /// answer per-source misses of the three factored metrics and BCN.
    /// Every value derived from the snapshot is built once between them:
    /// each metric's factors by whichever miss comes first, and one set of
    /// Bayes tables. Their answers are the batch engine's on a clone.
    #[test]
    fn worker_shaped_callers_build_each_derived_value_once() {
        use crate::candidates::CandidateSet;
        use crate::exec;
        use crate::solver::SolverCache;
        use crate::traits::{CandidatePolicy, Metric};
        use std::sync::Barrier;

        let edges: Vec<(NodeId, NodeId)> = (0..60u32)
            .flat_map(|u| [(u, (u + 1) % 60), (u, (u + 7) % 60), (u % 5, (u + 30) % 60)])
            .filter(|&(u, v)| u != v)
            .collect();
        let snap = Arc::new(Snapshot::from_edges(60, &edges));
        let cands = CandidateSet::build(&snap, CandidatePolicy::Global, 4);
        let sources: Vec<NodeId> = (0..60).collect();
        let slice = |s: NodeId| -> Vec<(NodeId, NodeId)> {
            cands.pairs().iter().copied().filter(|&(u, _)| u == s).collect()
        };
        let names = ["Katz-lr", "Katz-sc", "Rescal", "BCN"];
        let start = Barrier::new(2);
        // One worker: (per metric and source, its scores), the metrics
        // whose miss factored, its factorization count, its Bayes tables.
        let worker = |order: Vec<NodeId>| {
            let snap = Arc::clone(&snap);
            let metrics: Vec<Box<dyn Metric>> =
                names.iter().map(|n| crate::metric_by_name(n).expect("known metric")).collect();
            start.wait();
            let ctx = FusedCtx::build(&snap, &[LocalKind::Bcn]);
            let mut scratch = FusedScratch::new(snap.node_count());
            let mut cache = SolverCache::transient();
            let mut answers = Vec::new();
            let mut factored = Vec::new();
            for &s in &order {
                for m in &metrics {
                    let before = cache.stats.factorizations;
                    let pairs = slice(s);
                    let scores = exec::score_pairs_targeted(
                        m.as_ref(),
                        &snap,
                        &ctx,
                        &mut scratch,
                        &pairs,
                        &mut cache,
                    );
                    if cache.stats.factorizations != before {
                        factored.push(m.name());
                    }
                    answers.push(((m.name(), s), scores));
                }
            }
            let bayes = Arc::clone(ctx.bayes.as_ref().expect("BCN builds Bayes tables"));
            (answers, factored, cache.stats.factorizations, bayes)
        };
        let (
            (answers_a, mut factored, built_a, bayes_a),
            (answers_b, factored_b, built_b, bayes_b),
        ) = std::thread::scope(|scope| {
            let a = scope.spawn(|| worker(sources.clone()));
            let b = scope.spawn(|| worker(sources.iter().rev().copied().collect()));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(built_a + built_b, 3, "one factorization per factored metric");
        factored.extend(factored_b);
        factored.sort_unstable();
        assert_eq!(factored, ["Katz-lr", "Katz-sc", "Rescal"], "later misses factor nothing");
        assert!(Arc::ptr_eq(&bayes_a, &bayes_b), "both workers read one Bayes table");

        let offline = (*snap).clone();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for ((name, s), scores) in answers_a.iter().chain(&answers_b) {
            let m = crate::metric_by_name(name).expect("known metric");
            let want = exec::score_pairs_t(m.as_ref(), &offline, &slice(*s), 1);
            assert_eq!(bits(scores), bits(&want), "{name} source {s}");
        }
    }

    /// A 3,000-node graph of degree about 16: every node linked to 8
    /// hashed others.
    fn spread_graph() -> Snapshot {
        let n = 3_000u32;
        let edges: Vec<(NodeId, NodeId)> = (0..n)
            .flat_map(|u| {
                (0..8u64)
                    .map(move |k| (u, (osn_graph::mix64(u as u64 * 8 + k) % n as u64) as NodeId))
            })
            .filter(|&(u, v)| u != v)
            .collect();
        Snapshot::from_edges(n as usize, &edges)
    }

    /// The rule builds the view for a sampled draw's pairs, with one row
    /// per node holding exactly its neighbours among the draw's members,
    /// and declines a sweep's two-hop set, one pair on a large snapshot
    /// and a PA-only batch.
    #[test]
    fn target_rows_rule_builds_the_view_only_where_it_pays() {
        use crate::candidates::CandidateSet;
        use crate::traits::CandidatePolicy;
        let snap = spread_graph();
        let members = osn_graph::sample::snowball(&snap, 0, 0.02);
        let draw: Vec<(NodeId, NodeId)> = members
            .iter()
            .enumerate()
            .flat_map(|(i, &u)| members[i + 1..].iter().map(move |&v| (u, v)))
            .collect();
        let view = target_rows(&snap, &draw, &[LocalKind::Cn]).expect("a draw builds the view");
        let targets = &members[1..];
        for w in 0..snap.node_count() as NodeId {
            let want: Vec<NodeId> =
                snap.neighbors(w).iter().copied().filter(|t| targets.contains(t)).collect();
            assert_eq!(view.of(w), &want[..], "row {w}");
        }
        let two_hop = CandidateSet::build(&snap, CandidatePolicy::TwoHop, 0);
        assert!(target_rows(&snap, two_hop.pairs(), &LocalKind::ALL).is_none(), "two-hop set");
        assert!(target_rows(&snap, &[(0, 1)], &[LocalKind::Ra]).is_none(), "one pair");
        assert!(target_rows(&snap, &draw, &[LocalKind::Pa]).is_none(), "PA walks nothing");
    }

    #[test]
    fn pa_only_batch_skips_the_walk() {
        // Needs::walk() is false for PA alone; derive must not touch the
        // (empty) accumulators, and no source run stamps targets.
        let snap = fixture();
        let pairs = [(0u32, 4u32), (1, 7)];
        let ctx = FusedCtx::build(&snap, &[LocalKind::Pa]);
        let mut scratch = FusedScratch::new(snap.node_count());
        let cols = score_columns(&ctx, None, &mut scratch, &pairs, &[LocalKind::Pa]);
        // deg(0) = 2, deg(4) = 2, deg(1) = 2, deg(7) = 1.
        assert_eq!(cols[0], vec![4.0, 2.0]);
        assert!(scratch.cn.is_empty());
        assert_eq!(scratch.epoch, 0, "no source run began");
        assert!(scratch.pslot.is_empty(), "no pair got a slot");
    }
}
