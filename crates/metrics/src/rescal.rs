//! RESCAL \[33\]: collective matrix factorization `A ≈ X R Xᵀ` fitted by
//! alternating least squares, scored as `(XRXᵀ)_{uv} + (XRXᵀ)_{vu}`.
//!
//! RESCAL factorizes each relation slice of a tensor; link prediction on an
//! undirected graph is the single-slice special case. ALS updates:
//!
//! * `X ← [A X Rᵀ + Aᵀ X R] · [R XᵀX Rᵀ + Rᵀ XᵀX R + λI]⁻¹`
//! * `R ← (XᵀX + λI)⁻¹ Xᵀ A X (XᵀX + λI)⁻¹`
//!
//! The paper singles RESCAL out as the metric that captures supernode-
//! driven (YouTube-style) growth because the latent components assign
//! heavy weights to globally important nodes (§4.2).
//!
//! ## Engine integration
//!
//! The production fit runs on the blocked ALS core in
//! [`osn_linalg::factor`] over the snapshot's own adjacency CSR: `A·X`
//! products go through the thread-parallel `spmm_into_t` kernel
//! (bit-identical to the serial dense fold at every thread count), each
//! sweep certifies a sparse Frobenius residual,
//! and every normal-equations solve is guarded — a singular system
//! surfaces as [`SolverError::Singular`] instead of the silent
//! stale-factor skip the original dense loop performed. The engine hook
//! ([`Metric::score_pairs_cached`]) scores the whole batch through
//! [`solver::bilinear_scores_t`], and fitted models register in the
//! [`SolverCache`] so framework sweeps reuse the fit within a snapshot
//! and — in certified mode (`tol > 0`) — warm-start the next snapshot's
//! fit from the previous factors, like PPR warm-starts its columns.
//! The original serial loop is the property-tested oracle in
//! `linklens_bench::oracles`.

use std::sync::Arc;

use crate::solver::{self, SolverCache, SolverError};
use crate::traits::{CandidatePolicy, Metric};
use osn_graph::par;
use osn_graph::snapshot::Snapshot;
use osn_graph::NodeId;
use osn_linalg::factor::{self, AlsConfig, FactorError};
use osn_linalg::Matrix;

/// RESCAL configuration.
#[derive(Clone, Debug)]
pub struct Rescal {
    /// Latent dimensionality r.
    pub rank: usize,
    /// ALS sweep budget. With `tol == 0` exactly this many sweeps run;
    /// with `tol > 0` it bounds the certified fit.
    pub iterations: usize,
    /// Ridge regularization λ.
    pub lambda: f64,
    /// Deterministic init seed.
    pub seed: u64,
    /// Relative residual-plateau tolerance for certified early stopping
    /// (see [`AlsConfig::tol`]). `0.0` — the default — runs the
    /// paper-parity fixed-sweep fit, a pure function of the snapshot and
    /// this config; `> 0` enables early stopping and cross-snapshot
    /// warm starts on persistent caches.
    pub tol: f64,
}

impl Default for Rescal {
    fn default() -> Self {
        // The latent dimensionality must scale with the graph: the paper's
        // multi-million-node networks support ranks in the tens, but at
        // LinkLens's preset scale (10³-10⁴ nodes) higher ranks overfit and
        // bury the supernode structure RESCAL is prized for on YouTube
        // (§4.2) under factorization noise. Rank 2 — one popularity axis
        // plus one community axis — is the empirical sweet spot across all
        // three presets (see `cargo bench --bench ablations`).
        Rescal { rank: 2, iterations: 30, lambda: 0.01, seed: 7, tol: 0.0 }
    }
}

/// A fitted factorization, exposed for tests and for reuse across pair
/// batches and snapshots (via the [`SolverCache`]).
#[derive(Clone)]
pub struct RescalModel {
    /// Node embeddings, `n × r`.
    pub x: Matrix,
    /// Core interaction matrix, `r × r`.
    pub r: Matrix,
    /// Certified Frobenius residual `‖A − XRXᵀ‖_F` at the fitted factors.
    pub residual: f64,
    /// ALS sweeps actually run.
    pub iterations: usize,
    /// Whether the fit warm-started from a previous snapshot's factors.
    pub warm_started: bool,
}

impl std::fmt::Debug for RescalModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RescalModel")
            .field("n", &self.x.rows())
            .field("rank", &self.x.cols())
            .field("residual", &self.residual)
            .field("iterations", &self.iterations)
            .field("warm_started", &self.warm_started)
            .finish_non_exhaustive()
    }
}

impl RescalModel {
    /// Frobenius reconstruction error `‖A − XRXᵀ‖_F`, computed sparsely
    /// over the nonzeros plus a trace-correction term — nothing `n × n`
    /// is materialized, so this is safe at preset scale and equals the
    /// per-sweep certification value ([`factor::frobenius_residual`]).
    pub fn reconstruction_error(&self, snap: &Snapshot) -> f64 {
        factor::frobenius_residual(snap, &self.x, &self.r, par::max_threads())
    }
}

fn map_factor_err(e: FactorError) -> SolverError {
    match e {
        FactorError::Singular { iteration, .. } => {
            SolverError::Singular { metric: "Rescal", iteration }
        }
        FactorError::NonFinite { iteration } => {
            SolverError::NonFinite { metric: "Rescal", iteration }
        }
        FactorError::NoConvergence { iterations } => {
            SolverError::NoConvergence { metric: "Rescal", iterations }
        }
    }
}

impl Rescal {
    fn config(&self) -> AlsConfig {
        AlsConfig {
            rank: self.rank,
            iterations: self.iterations,
            lambda: self.lambda,
            seed: self.seed,
            tol: self.tol,
        }
    }

    /// Config fingerprint keying [`SolverCache`] model slots, so two
    /// Rescal configurations sharing one cache never alias fits.
    fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for w in [
            self.rank as u64,
            self.iterations as u64,
            self.lambda.to_bits(),
            self.seed,
            self.tol.to_bits(),
        ] {
            h ^= w;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Fits the factorization on a snapshot with the shared worker pool.
    ///
    /// # Errors
    ///
    /// [`SolverError::Singular`] when an ALS normal-equations system
    /// loses rank (previously a silent skip that left stale factors),
    /// [`SolverError::NonFinite`] when factors or residual leave the
    /// finite range, [`SolverError::NoConvergence`] when `tol > 0` and
    /// the residual never plateaus within the sweep budget.
    pub fn fit(&self, snap: &Snapshot) -> Result<RescalModel, SolverError> {
        self.fit_t(snap, par::max_threads())
    }

    /// [`fit`](Self::fit) with an explicit thread count; bit-identical
    /// for every `threads` value.
    pub fn fit_t(&self, snap: &Snapshot, threads: usize) -> Result<RescalModel, SolverError> {
        self.fit_warm_t(snap, None, threads)
    }

    /// [`fit_t`](Self::fit_t) seeded with warm factors from a previous
    /// snapshot's model. The warm start is honored only in certified
    /// mode (`tol > 0`); fixed-sweep fits ignore it so the default
    /// configuration stays a pure function of the snapshot.
    pub fn fit_warm_t(
        &self,
        snap: &Snapshot,
        warm: Option<(&Matrix, &Matrix)>,
        threads: usize,
    ) -> Result<RescalModel, SolverError> {
        let fit = factor::als_fit(snap, &self.config(), warm, threads).map_err(map_factor_err)?;
        Ok(RescalModel {
            x: fit.x,
            r: fit.r,
            residual: fit.residual,
            iterations: fit.iterations,
            warm_started: fit.warm_started,
        })
    }

    /// The per-snapshot fitted model for the engine paths: reuses the
    /// cache's current-snapshot model when the config fingerprint
    /// matches, otherwise fits (warm-starting from the previous
    /// snapshot's factors in certified mode) and registers the result.
    /// `None` marks an edgeless snapshot — all scores zero.
    fn fitted_model(
        &self,
        snap: &Snapshot,
        cache: &mut SolverCache,
        threads: usize,
    ) -> Result<Option<Arc<RescalModel>>, SolverError> {
        if snap.edge_count() == 0 {
            return Ok(None);
        }
        let fp = self.fingerprint();
        if let Some(model) = cache.rescal_model(fp) {
            return Ok(Some(model));
        }
        let warm = cache.rescal_warm(fp);
        let model = self.fit_warm_t(snap, warm.as_ref().map(|m| (&m.x, &m.r)), threads)?;
        cache.stats.rescal_fits += 1;
        cache.stats.rescal_iterations += model.iterations as u64;
        if model.warm_started {
            cache.stats.rescal_warm_starts += 1;
        }
        let model = Arc::new(model);
        cache.store_rescal(fp, Arc::clone(&model));
        Ok(Some(model))
    }
}

impl Metric for Rescal {
    fn name(&self) -> &'static str {
        "Rescal"
    }

    fn candidate_policy(&self) -> CandidatePolicy {
        CandidatePolicy::Global
    }

    fn score_pairs_cached(
        &self,
        snap: &Snapshot,
        pairs: &[(NodeId, NodeId)],
        threads: usize,
        cache: &mut SolverCache,
    ) -> Vec<f64> {
        cache.ensure_snapshot(snap);
        match self.fitted_model(snap, cache, threads) {
            Ok(None) => vec![0.0; pairs.len()],
            Ok(Some(model)) => solver::bilinear_scores_t(&model.x, &model.r, pairs, threads),
            // The Metric trait has no error channel; a tripped solver guard
            // is a hard invariant violation, same class as an audit panic.
            Err(e) => panic!("{e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::score_pairs_t;

    /// Two 4-cliques sharing no edge, bridged 3-4.
    fn two_cliques() -> Snapshot {
        let mut edges = Vec::new();
        for a in 0..4u32 {
            for b in a + 1..4 {
                edges.push((a, b));
            }
        }
        for a in 4..8u32 {
            for b in a + 1..8 {
                edges.push((a, b));
            }
        }
        edges.push((3, 4));
        Snapshot::from_edges(8, &edges)
    }

    #[test]
    fn reconstruction_improves_over_random_init() {
        let s = two_cliques();
        let quick = Rescal { iterations: 0, rank: 4, ..Default::default() };
        let fitted = Rescal { iterations: 25, rank: 4, ..Default::default() };
        let e0 = quick.fit(&s).expect("init fit").reconstruction_error(&s);
        let e1 = fitted.fit(&s).expect("fit").reconstruction_error(&s);
        assert!(e1 < e0 * 0.6, "ALS should cut the error substantially ({e0} → {e1})");
    }

    #[test]
    fn full_rank_reconstruction_is_tight() {
        let s = two_cliques();
        let r = Rescal { rank: 8, iterations: 60, lambda: 1e-3, seed: 5, tol: 0.0 };
        let err = r.fit(&s).expect("fit").reconstruction_error(&s);
        // ‖A‖_F = sqrt(2 · 13 edges) ≈ 5.1; full rank should get well below.
        assert!(err < 1.0, "full-rank error {err}");
    }

    #[test]
    fn model_residual_matches_reconstruction_error() {
        let s = two_cliques();
        let model = Rescal::default().fit(&s).expect("fit");
        assert_eq!(model.residual, model.reconstruction_error(&s));
    }

    #[test]
    fn scores_intra_cluster_over_inter_cluster() {
        // Remove one intra-clique edge and compare against a cross pair.
        let mut edges = Vec::new();
        for a in 0..4u32 {
            for b in a + 1..4 {
                if (a, b) != (0, 2) {
                    edges.push((a, b));
                }
            }
        }
        for a in 4..8u32 {
            for b in a + 1..8 {
                edges.push((a, b));
            }
        }
        edges.push((3, 4));
        let s = Snapshot::from_edges(8, &edges);
        let r = Rescal { rank: 4, iterations: 30, lambda: 0.1, ..Default::default() };
        let scores = score_pairs_t(&r, &s, &[(0, 2), (0, 7)], 1);
        assert!(
            scores[0] > scores[1],
            "missing intra-clique edge should outrank cross-clique pair: {scores:?}"
        );
    }

    #[test]
    fn deterministic_fit() {
        let s = two_cliques();
        let r = Rescal::default();
        let a = r.fit(&s).expect("fit");
        let b = r.fit(&s).expect("fit");
        assert!(a.x.max_abs_diff(&b.x) == 0.0);
        assert!(a.r.max_abs_diff(&b.r) == 0.0);
    }

    #[test]
    fn transient_cache_fits_once_per_snapshot() {
        // A serve worker scores every miss of one version on one
        // transient cache: the second call reuses the first call's fit.
        let s = two_cliques();
        let r = Rescal::default();
        let pairs = [(0, 5), (1, 2), (3, 7)];
        let mut cache = SolverCache::transient();
        let first = r.score_pairs_cached(&s, &pairs, 1, &mut cache);
        let second = r.score_pairs_cached(&s, &pairs, 1, &mut cache);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&first), bits(&second));
        assert_eq!(cache.stats.rescal_fits, 1);
    }

    #[test]
    fn rank_clamped_to_node_count() {
        let s = Snapshot::from_edges(3, &[(0, 1), (1, 2)]);
        let r = Rescal { rank: 50, iterations: 5, ..Default::default() };
        let model = r.fit(&s).expect("fit");
        assert_eq!(model.x.cols(), 3);
    }

    #[test]
    fn singular_system_is_structured_error_not_silent_skip() {
        // Rank-deficient regression: one edge among 4 nodes at rank 3
        // with no ridge. After the first X update the embedding has rank
        // ≤ 1, so G = XᵀX is singular — the original loop silently kept
        // stale factors here; now it must surface structurally.
        let s = Snapshot::from_edges(4, &[(0, 1)]);
        let bad = Rescal { rank: 3, iterations: 5, lambda: 0.0, ..Default::default() };
        let err = bad.fit(&s).expect_err("singular system must surface");
        assert!(matches!(err, SolverError::Singular { metric: "Rescal", .. }), "got {err:?}");
        // Recoverable: any positive ridge regularizes the same system.
        let good = Rescal { lambda: 0.01, ..bad };
        good.fit(&s).expect("regularized fit recovers");
    }

    #[test]
    #[should_panic(expected = "singular")]
    fn singular_fit_panics_in_audit_class_on_score_pairs() {
        let s = Snapshot::from_edges(4, &[(0, 1)]);
        let bad = Rescal { rank: 3, iterations: 5, lambda: 0.0, ..Default::default() };
        let _ = score_pairs_t(&bad, &s, &[(0, 2)], 1);
    }
}
