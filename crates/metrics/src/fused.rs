//! Source-batched fused scoring kernel for the local metrics.
//!
//! The per-pair path pays a fresh sorted-merge intersection
//! (`Snapshot::common_neighbors`) per metric per pair, so scoring
//! `|metrics|` local metrics over `|pairs|` candidates costs
//! `|metrics| × |pairs|` merges. But every local-information index —
//! CN, JC, AA, RA and their naive-Bayes variants — is a sum over the
//! *same* witnesses `w ∈ Γ(u) ∩ Γ(v)`, and every candidate of a source
//! `u` draws its witnesses from `Γ(u)`. This kernel therefore batches by
//! source: it stamps the targets of `u` into an epoch-stamped marker
//! array, walks the CSR rows of `Γ(u)` **once**, and scatter-accumulates
//! each metric's witness contribution into per-candidate slots. JC, PA,
//! and the Bayes variants then derive from per-snapshot cached degree
//! tables ([`Snapshot::degree_tables`]) and naive-Bayes weight tables.
//!
//! **Bit-identity.** The kernel is bit-for-bit identical to the per-pair
//! path, not merely numerically close:
//!
//! * the outer walk visits witnesses `w ∈ Γ(u)` in ascending order — the
//!   same order a sorted-merge intersection of `Γ(u)` and `Γ(v)` yields —
//!   so every per-candidate accumulator sees its terms in the per-pair
//!   summation order (f64 `sum()` folds left-to-right from `0.0`);
//! * each term is computed by the same expression as the per-pair path
//!   (`1.0 / (deg as f64).ln()`, `(log_s + log_r[w]) / deg as f64`, …),
//!   cached once per snapshot instead of recomputed per witness;
//! * derived scores reuse the exact per-pair expressions, including JC's
//!   integer union arithmetic and PA's integer degree product.
//!
//! The kernel scores a pair list built beforehand
//! ([`crate::candidates::CandidateSet`], or a served query's targets); it
//! never enumerates candidates itself.

use crate::bayes::BayesContext;
use osn_graph::snapshot::{DegreeTables, Snapshot};
use osn_graph::NodeId;

/// The local metric a fused column computes. Metrics advertise their kind
/// through [`Metric::fused_kind`](crate::traits::Metric::fused_kind); the
/// engine groups all advertised kinds of a batch into one kernel pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LocalKind {
    /// Common Neighbors: `|Γ(u) ∩ Γ(v)|`.
    Cn,
    /// Jaccard's Coefficient: `|Γ(u) ∩ Γ(v)| / |Γ(u) ∪ Γ(v)|`.
    Jc,
    /// Adamic/Adar: `Σ_w 1 / ln(deg w)`.
    Aa,
    /// Resource Allocation: `Σ_w 1 / deg w`.
    Ra,
    /// Preferential Attachment: `deg(u) · deg(v)` (no witnesses needed).
    Pa,
    /// Local-naive-Bayes CN: `|Γ(u) ∩ Γ(v)|·log s + Σ_w log R_w`.
    Bcn,
    /// Local-naive-Bayes AA: `Σ_w (log s + log R_w) / ln(deg w)`.
    Baa,
    /// Local-naive-Bayes RA: `Σ_w (log s + log R_w) / deg w`.
    Bra,
}

impl LocalKind {
    /// Every kind the kernel computes. A [`FusedCtx`] built with this
    /// list can score any fused metric — the serving query path builds
    /// one such context per snapshot version and scores single kinds out
    /// of it (bit-identical to a context built for that kind alone, since
    /// [`score_columns`] derives its accumulator needs from the requested
    /// kinds, not the built ones).
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
    /// (a PA-only batch skips the traversal entirely).
    fn walk(&self) -> bool {
        self.cn || self.aa || self.ra || self.blogr || self.baa || self.bra
    }
}

/// Per-snapshot naive-Bayes weight tables (built once per kernel context
/// when any Bayes kind is requested, instead of once per `score_pairs`
/// call per chunk as on the per-pair path).
struct BayesTables {
    log_s: f64,
    /// `log R_w` per node (the per-pair path's summand for BCN).
    log_r: Vec<f64>,
    /// `(log s + log R_w) / ln(deg w)` per node — BAA's exact summand.
    /// Entries for degree < 2 are non-finite but never consulted:
    /// witnesses always have degree ≥ 2.
    baa_w: Vec<f64>,
    /// `(log s + log R_w) / deg w` per node — BRA's exact summand.
    bra_w: Vec<f64>,
}

/// Read-only per-snapshot state for the kernel: the snapshot itself, its
/// cached degree tables, and (when a Bayes kind is requested) the
/// naive-Bayes weight tables. Build once, share across workers.
pub struct FusedCtx<'s> {
    snap: &'s Snapshot,
    tables: &'s DegreeTables,
    bayes: Option<BayesTables>,
}

impl<'s> FusedCtx<'s> {
    /// The snapshot this context was built on. Lets callers that thread a
    /// context separately from the snapshot (the targeted serving path)
    /// assert the two stayed in sync.
    pub fn snapshot(&self) -> &'s Snapshot {
        self.snap
    }

    /// Prepares the kernel context for `kinds` on `snap`. The degree
    /// tables come from the snapshot's [`Snapshot::degree_tables`] cache;
    /// Bayes tables are computed here iff a Bayes kind is present.
    pub fn build(snap: &'s Snapshot, kinds: &[LocalKind]) -> Self {
        let tables = snap.degree_tables();
        let bayes = if kinds.iter().any(|k| k.is_bayes()) {
            let ctx = BayesContext::build(snap);
            let n = snap.node_count();
            let mut baa_w = Vec::with_capacity(n);
            let mut bra_w = Vec::with_capacity(n);
            for w in 0..n {
                // Exactly the per-pair summands of BAA and BRA: same
                // log-space numerator, same divisor expressions.
                let num = ctx.log_s + ctx.log_r[w];
                baa_w.push(num / (snap.degree(w as NodeId) as f64).ln());
                bra_w.push(num / snap.degree(w as NodeId) as f64);
            }
            Some(BayesTables { log_s: ctx.log_s, log_r: ctx.log_r, baa_w, bra_w })
        } else {
            None
        };
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
            self.aa[slot] += ctx.tables.inv_ln_deg(w);
        }
        if needs.ra {
            self.ra[slot] += ctx.tables.inv_deg(w);
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

/// Scores `pairs` for every kind in `kinds` with one witness walk per
/// source run, returning one column per kind (aligned with `pairs`).
///
/// Pairs are processed in runs of equal source endpoint (candidate lists
/// are canonically sorted, so runs are maximal); within a run the targets
/// are stamped, `Γ(u)`'s CSR rows are walked once, and contributions are
/// scattered into per-target slots. Works for *any* pair list — targets
/// need not be two-hop, unconnected, or even distinct — and matches the
/// per-pair path bit-for-bit (see the module docs for the argument).
pub fn score_columns(
    ctx: &FusedCtx<'_>,
    scratch: &mut FusedScratch,
    pairs: &[(NodeId, NodeId)],
    kinds: &[LocalKind],
) -> Vec<Vec<f64>> {
    let needs = Needs::of(kinds);
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
        if needs.walk() {
            for &w in ctx.snap.neighbors(u) {
                for &v in ctx.snap.neighbors(w) {
                    if scratch.seen[v as usize] == e {
                        let s = scratch.slot[v as usize] as usize;
                        scratch.hit(ctx, &needs, w, s);
                    }
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
    use crate::candidates::CandidateSet;
    use crate::traits::{CandidatePolicy, Metric};

    const ALL_KINDS: [LocalKind; 8] = [
        LocalKind::Cn,
        LocalKind::Jc,
        LocalKind::Aa,
        LocalKind::Ra,
        LocalKind::Pa,
        LocalKind::Bcn,
        LocalKind::Baa,
        LocalKind::Bra,
    ];

    /// Two bridged triangles plus a pendant path (the exec.rs fixture).
    fn fixture() -> Snapshot {
        Snapshot::from_edges(
            8,
            &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5), (5, 6), (6, 7)],
        )
    }

    fn kind_metric(kind: LocalKind) -> Box<dyn Metric> {
        let name = match kind {
            LocalKind::Cn => "CN",
            LocalKind::Jc => "JC",
            LocalKind::Aa => "AA",
            LocalKind::Ra => "RA",
            LocalKind::Pa => "PA",
            LocalKind::Bcn => "BCN",
            LocalKind::Baa => "BAA",
            LocalKind::Bra => "BRA",
        };
        crate::metric_by_name(name).unwrap()
    }

    #[test]
    fn fused_columns_match_per_pair_scoring() {
        let snap = fixture();
        let cands = CandidateSet::build(&snap, CandidatePolicy::ThreeHop, 0);
        let ctx = FusedCtx::build(&snap, &ALL_KINDS);
        let mut scratch = FusedScratch::new(snap.node_count());
        let cols = score_columns(&ctx, &mut scratch, cands.pairs(), &ALL_KINDS);
        for (ki, &kind) in ALL_KINDS.iter().enumerate() {
            let m = kind_metric(kind);
            assert_eq!(cols[ki], m.score_pairs(&snap, cands.pairs()), "{kind:?}");
        }
    }

    #[test]
    fn fused_handles_duplicate_and_noncanonical_pairs() {
        let snap = fixture();
        // Duplicates, a reversed pair, and an existing edge — the kernel
        // must score whatever it is handed, like the per-pair path does.
        let pairs = [(0u32, 4u32), (0, 4), (4, 0), (0, 1), (1, 7)];
        let ctx = FusedCtx::build(&snap, &ALL_KINDS);
        let mut scratch = FusedScratch::new(snap.node_count());
        let cols = score_columns(&ctx, &mut scratch, &pairs, &ALL_KINDS);
        for (ki, &kind) in ALL_KINDS.iter().enumerate() {
            let m = kind_metric(kind);
            assert_eq!(cols[ki], m.score_pairs(&snap, &pairs), "{kind:?}");
        }
    }

    #[test]
    fn scratch_epoch_wraparound_resets_stamps() {
        let snap = fixture();
        let pairs = [(1u32, 3u32), (1, 4)];
        let kinds = [LocalKind::Cn];
        let ctx = FusedCtx::build(&snap, &kinds);
        let mut scratch = FusedScratch::new(snap.node_count());
        let baseline = score_columns(&ctx, &mut scratch, &pairs, &kinds);
        // Leave stale stamps behind, then force the next two runs across
        // the wraparound boundary: both must still score correctly.
        scratch.epoch = u32::MAX - 1;
        assert_eq!(score_columns(&ctx, &mut scratch, &pairs, &kinds), baseline, "at u32::MAX");
        assert_eq!(scratch.epoch, u32::MAX);
        assert_eq!(score_columns(&ctx, &mut scratch, &pairs, &kinds), baseline, "wrapped");
        assert_eq!(scratch.epoch, 1, "wraparound restarts the epoch at 1");
        assert!(scratch.seen.iter().all(|&e| e <= 1), "stamps hard-reset on wrap");
        assert_eq!(score_columns(&ctx, &mut scratch, &pairs, &kinds), baseline, "post-wrap");
    }

    #[test]
    fn pa_only_batch_skips_the_walk() {
        // Needs::walk() is false for PA alone; derive must not touch the
        // (empty) accumulators.
        let snap = fixture();
        let pairs = [(0u32, 4u32), (1, 7)];
        let ctx = FusedCtx::build(&snap, &[LocalKind::Pa]);
        let mut scratch = FusedScratch::new(snap.node_count());
        let cols = score_columns(&ctx, &mut scratch, &pairs, &[LocalKind::Pa]);
        let m = kind_metric(LocalKind::Pa);
        assert_eq!(cols[0], m.score_pairs(&snap, &pairs));
        assert!(scratch.cn.is_empty());
    }
}
