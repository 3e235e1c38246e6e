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
//! (bit-identical to the serial dense fold at every thread count), and
//! every normal-equations solve is guarded — a singular system surfaces
//! as [`SolverError::Singular`]. A fit runs a fixed number of sweeps from
//! a seeded init, so the model is a pure function of the snapshot and the
//! config. The engine hook ([`Metric::score_pairs_cached`]) scores the
//! whole batch through the fit's [`LowRank`] form, `a = [XR | X]` and
//! `b = [X | XR]`, which the snapshot's memo keeps, so every hook call on
//! one snapshot reuses one fit. The original serial loop is the
//! property-tested oracle in `linklens_bench::oracles`.

use crate::solver::{self, LowRank, SolverCache, SolverError};
use crate::traits::{CandidatePolicy, Metric};
use osn_graph::par;
use osn_graph::snapshot::Snapshot;
use osn_graph::NodeId;
use osn_linalg::factor::{self, AlsConfig, AlsFit, FactorError};
use osn_linalg::Matrix;

/// RESCAL configuration.
#[derive(Clone, Debug)]
pub struct Rescal {
    /// Latent dimensionality r.
    pub rank: usize,
    /// ALS sweeps per fit.
    pub iterations: usize,
    /// Ridge regularization λ.
    pub lambda: f64,
    /// Deterministic init seed.
    pub seed: u64,
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
        Rescal { rank: 2, iterations: 30, lambda: 0.01, seed: 7 }
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
    }
}

impl Rescal {
    fn config(&self) -> AlsConfig {
        AlsConfig {
            rank: self.rank,
            iterations: self.iterations,
            lambda: self.lambda,
            seed: self.seed,
        }
    }

    /// Fits the factorization on a snapshot with the shared worker pool.
    ///
    /// # Errors
    ///
    /// [`SolverError::Singular`] when an ALS normal-equations system
    /// loses rank, and [`SolverError::NonFinite`] when a factor leaves the
    /// finite range.
    pub fn fit(&self, snap: &Snapshot) -> Result<AlsFit, SolverError> {
        self.fit_t(snap, par::max_threads())
    }

    /// [`fit`](Self::fit) with an explicit thread count; bit-identical
    /// for every `threads` value.
    pub fn fit_t(&self, snap: &Snapshot, threads: usize) -> Result<AlsFit, SolverError> {
        factor::als_fit(snap, &self.config(), threads).map_err(map_factor_err)
    }

    /// The fit's scoring factors, `a = [XR | X]` and `b = [X | XR]`, so
    /// `score(u, v) = ⟨(XR)_u, x_v⟩ + ⟨x_u, (XR)_v⟩ = (XRXᵀ)_{uv} + (XRXᵀ)_{vu}`.
    /// An edgeless snapshot has no columns.
    fn factors(&self, snap: &Snapshot, threads: usize) -> Result<LowRank, SolverError> {
        if snap.edge_count() == 0 {
            return Ok(LowRank::empty());
        }
        let AlsFit { x, r } = self.fit_t(snap, threads)?;
        let xr = x.matmul(&r);
        let side_by_side = |left: &Matrix, right: &Matrix| {
            let w = left.cols();
            let mut out = Matrix::zeros(left.rows(), 2 * w);
            for u in 0..left.rows() {
                let row = out.row_mut(u);
                row[..w].copy_from_slice(left.row(u));
                row[w..].copy_from_slice(right.row(u));
            }
            out
        };
        Ok(LowRank { a: side_by_side(&xr, &x), b: side_by_side(&x, &xr) })
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
        let Rescal { rank, iterations, lambda, seed } = *self;
        let params = [rank as u64, iterations as u64, lambda.to_bits(), seed];
        solver::score_low_rank::<Self>(&params, snap, pairs, threads, cache, || {
            self.factors(snap, threads)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::score_pairs_t;
    use linklens_bench::oracles::rescal::frobenius_residual;

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
        let e0 = frobenius_residual(&s, &quick.fit(&s).expect("init fit"));
        let e1 = frobenius_residual(&s, &fitted.fit(&s).expect("fit"));
        assert!(e1 < e0 * 0.6, "ALS should cut the error substantially ({e0} → {e1})");
    }

    #[test]
    fn full_rank_reconstruction_is_tight() {
        let s = two_cliques();
        let r = Rescal { rank: 8, iterations: 60, lambda: 1e-3, seed: 5 };
        let err = frobenius_residual(&s, &r.fit(&s).expect("fit"));
        // ‖A‖_F = sqrt(2 · 13 edges) ≈ 5.1; full rank should get well below.
        assert!(err < 1.0, "full-rank error {err}");
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
        assert_eq!(cache.stats.factorizations, 1);
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
