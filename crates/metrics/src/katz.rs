//! The Katz index \[18\] and the two scalable implementations the paper
//! compares: low-rank approximation (Katz-lr, after Acar et al. \[1\]) and
//! scalable proximity estimation via landmarks (Katz-sc, after Song et
//! al. \[38\]).
//!
//! Exact Katz is `K = Σ_{l≥1} βˡ Aˡ = (I − βA)⁻¹ − I`, infeasible beyond
//! toy graphs. With the symmetric eigendecomposition `A = U Λ Uᵀ`:
//! `K = U (1/(1−βλ) − 1) Uᵀ`, so a rank-r Lanczos factorization gives the
//! Katz-lr scores in O(r) per pair. Katz-sc instead takes a Nyström-style
//! landmark approximation: with `C = K[:, L]` (truncated-series columns for
//! a landmark set `L`) and `W = K[L, L]`, `K ≈ C W⁺ Cᵀ`.
//!
//! Both build one [`LowRank`] per snapshot, reading the snapshot's
//! adjacency CSR in place through [`osn_linalg::sparse`], and keep it in
//! the snapshot's memo, so every later hook call on the snapshot only
//! scores. The dense truncated series and Katz-sc's per-landmark
//! column loop are reference oracles in `linklens_bench::oracles`.

use crate::solver::{self, LowRank, SolverCache, SolverError};
use crate::traits::{CandidatePolicy, Metric};
use osn_graph::snapshot::Snapshot;
use osn_graph::NodeId;
use osn_linalg::lanczos::{lanczos_top_k, symmetric_eigen, EigenError};
use osn_linalg::{sparse, Matrix};

/// Shared Katz attenuation default (the paper uses β = 0.001 after \[1\]).
pub const DEFAULT_BETA: f64 = 1e-3;

/// Low-rank Katz (Katz-lr): rank-`rank` Lanczos eigendecomposition of the
/// adjacency, scored as `Σ_k f(λ_k) U[u,k] U[v,k]` with
/// `f(λ) = 1/(1 − βλ) − 1`.
///
/// The spectral transform requires `βλ_max < 1`; with β = 1e-3 that holds
/// for any graph with maximum degree below 1000-ish, and the factor is
/// clamped defensively otherwise.
#[derive(Clone, Debug)]
pub struct KatzLr {
    /// Attenuation factor β.
    pub beta: f64,
    /// Eigenpair count r.
    pub rank: usize,
    /// Lanczos iteration cap.
    pub max_iter: usize,
    /// Deterministic start-vector seed.
    pub seed: u64,
}

impl Default for KatzLr {
    fn default() -> Self {
        KatzLr { beta: DEFAULT_BETA, rank: 48, max_iter: 160, seed: 1 }
    }
}

impl Metric for KatzLr {
    fn name(&self) -> &'static str {
        "Katz-lr"
    }

    fn candidate_policy(&self) -> CandidatePolicy {
        CandidatePolicy::ThreeHop
    }

    /// Scores through the snapshot's memoized factors, built by
    /// `factors` on the snapshot's first call.
    fn score_pairs_cached(
        &self,
        snap: &Snapshot,
        pairs: &[(NodeId, NodeId)],
        threads: usize,
        cache: &mut SolverCache,
    ) -> Vec<f64> {
        let KatzLr { beta, rank, max_iter, seed } = *self;
        let params = [beta.to_bits(), rank as u64, max_iter as u64, seed];
        solver::score_low_rank::<Self>(&params, snap, pairs, threads, cache, || self.factors(snap))
    }
}

impl KatzLr {
    /// The spectral factors of the snapshot's adjacency: `a = U·diag(f(λ))`
    /// and `b = U` for the top-`rank` eigenpairs, so
    /// `score(u, v) = Σ_k f(λ_k) U[u,k] U[v,k]`.
    ///
    /// # Errors
    /// The eigensolver's failure as a [`SolverError`]: a non-finite
    /// spectrum, or a QL step that used up its iteration budget.
    fn factors(&self, snap: &Snapshot) -> Result<LowRank, SolverError> {
        if snap.edge_count() == 0 {
            return Ok(LowRank::empty());
        }
        // Single-start Lanczos recovers one Ritz vector per eigenvalue
        // cluster, so on small graphs (where exact is cheap and spectra are
        // often degenerate by symmetry) factor the whole adjacency with the
        // dense Householder + QL solver; the Lanczos path is for large
        // snapshots where extremal clusters are all the ranking needs.
        let eig = if snap.node_count() <= 256 {
            symmetric_eigen(&sparse::to_dense(snap)).map(|full| full.top_by_magnitude(self.rank))
        } else {
            lanczos_top_k(snap, self.rank.min(snap.node_count()), self.max_iter, self.seed)
        }
        .map_err(|e| match e {
            EigenError::NonFinite => SolverError::NonFinite { metric: "Katz-lr", iteration: 0 },
            EigenError::NoConvergence { iterations } => {
                SolverError::NoConvergence { metric: "Katz-lr", iterations }
            }
        })?;
        // f(λ) = 1/(1-βλ) - 1, clamped away from the pole.
        let f: Vec<f64> = eig
            .values
            .iter()
            .map(|&l| {
                let denom = (1.0 - self.beta * l).max(0.05);
                1.0 / denom - 1.0
            })
            .collect();
        let mut a = eig.vectors.clone();
        for u in 0..a.rows() {
            for (x, fk) in a.row_mut(u).iter_mut().zip(&f) {
                *x *= fk;
            }
        }
        Ok(LowRank { a, b: eig.vectors })
    }
}

/// Scalable-proximity Katz (Katz-sc): Nyström approximation through
/// `landmarks` landmark nodes (half top-degree, half stride-spread), with
/// landmark Katz columns computed by a `series_terms`-term truncated series
/// (each term one SpMV).
#[derive(Clone, Debug)]
pub struct KatzSc {
    /// Attenuation factor β.
    pub beta: f64,
    /// Number of landmark nodes.
    pub landmarks: usize,
    /// Truncation length of the Katz series for landmark columns.
    pub series_terms: usize,
    /// Ridge added to the landmark Gram block before inversion.
    pub ridge: f64,
}

impl Default for KatzSc {
    fn default() -> Self {
        KatzSc { beta: DEFAULT_BETA, landmarks: 48, series_terms: 5, ridge: 1e-10 }
    }
}

impl KatzSc {
    /// Picks landmark node ids: the top half by degree plus an
    /// evenly-strided sweep over the rest (Song et al. pick high-degree
    /// landmarks; the strided half guards low-degree regions).
    pub fn pick_landmarks(&self, snap: &Snapshot) -> Vec<NodeId> {
        let n = snap.node_count();
        let l = self.landmarks.min(n);
        let mut by_degree: Vec<NodeId> = (0..n as NodeId).collect();
        by_degree.sort_unstable_by_key(|&u| std::cmp::Reverse(snap.degree(u)));
        let mut picked: Vec<NodeId> = by_degree[..l.div_ceil(2)].to_vec();
        let stride = (n / l.max(1)).max(1);
        let mut u = 0usize;
        while picked.len() < l && u < n {
            let cand = u as NodeId;
            if !picked.contains(&cand) {
                picked.push(cand);
            }
            u += stride;
        }
        // Fallback fill for tiny graphs.
        let mut u = 0;
        while picked.len() < l {
            if !picked.contains(&(u as NodeId)) {
                picked.push(u as NodeId);
            }
            u += 1;
        }
        picked.sort_unstable();
        picked
    }
}

impl Metric for KatzSc {
    fn name(&self) -> &'static str {
        "Katz-sc"
    }

    fn candidate_policy(&self) -> CandidatePolicy {
        CandidatePolicy::ThreeHop
    }

    /// Scores through the snapshot's memoized factors, built on the
    /// snapshot's first call from the landmark columns on `threads`
    /// workers.
    fn score_pairs_cached(
        &self,
        snap: &Snapshot,
        pairs: &[(NodeId, NodeId)],
        threads: usize,
        cache: &mut SolverCache,
    ) -> Vec<f64> {
        let KatzSc { beta, landmarks, series_terms, ridge } = *self;
        let params = [beta.to_bits(), landmarks as u64, series_terms as u64, ridge.to_bits()];
        solver::score_low_rank::<Self>(&params, snap, pairs, threads, cache, || {
            Ok(self.factors_from_columns(snap, |lm| self.landmark_columns(snap, lm, threads)))
        })
    }
}

impl KatzSc {
    /// Katz-sc's factors of `snap` from the landmark columns `columns`
    /// builds for the picked landmarks: `C = columns(lm)`, `W = C[lm, :]`,
    /// `M = C (W + δI)⁻¹`, and `a = M`, `b = C`, so
    /// `score(u, v) = M[u, :] · C[v, :] ≈ K[u, v]`. The hook passes
    /// [`landmark_columns`](Self::landmark_columns); a reference that
    /// builds the columns another way gets the factors they imply.
    pub fn factors_from_columns(
        &self,
        snap: &Snapshot,
        columns: impl FnOnce(&[NodeId]) -> Matrix,
    ) -> LowRank {
        if snap.edge_count() == 0 {
            return LowRank::empty();
        }
        let lm = self.pick_landmarks(snap);
        let c = columns(&lm);
        let l = lm.len();
        let mut w = Matrix::zeros(l, l);
        for (r_out, &lr) in lm.iter().enumerate() {
            w.row_mut(r_out).copy_from_slice(c.row(lr as usize));
            w[(r_out, r_out)] += self.ridge;
        }
        match w.lu_factor() {
            // Row u of M solves (W + δI) M[u, :]ᵀ = C[u, :]ᵀ.
            Some(lu) => {
                let mut m = Matrix::zeros(c.rows(), l);
                for u in 0..c.rows() {
                    lu.solve_into(c.row(u), m.row_mut(u));
                }
                LowRank { a: m, b: c }
            }
            // Singular landmark block even after the ridge: no mixing,
            // score(u, v) = C[u, :] · C[v, :].
            None => LowRank { a: c.clone(), b: c },
        }
    }

    /// Truncated Katz columns for all landmarks at once:
    /// `C[:, j] = Σ_{i=1..T} βⁱ Aⁱ e_{lm[j]}` for the adjacency `A` of
    /// `snap`, each series term one SpMM over the `n × l` block, so `A`'s
    /// CSR is swept `T` times total instead of `T` times per landmark.
    /// Bit-identical per column, at every thread count, to one SpMV per
    /// term per landmark (the row fold visits the same neighbors in the
    /// same ascending order); that loop is the reference oracle in
    /// `linklens_bench::oracles`.
    pub fn landmark_columns(&self, snap: &Snapshot, lm: &[NodeId], threads: usize) -> Matrix {
        let n = snap.node_count();
        let l = lm.len();
        let mut x = Matrix::zeros(n, l);
        for (j, &src) in lm.iter().enumerate() {
            x[(src as usize, j)] = 1.0;
        }
        let mut next = Matrix::zeros(n, l);
        let mut c = Matrix::zeros(n, l);
        let mut weight = 1.0;
        for _ in 0..self.series_terms {
            sparse::spmm_into_t(snap, &x, &mut next, threads);
            std::mem::swap(&mut x, &mut next);
            weight *= self.beta;
            for (av, &cv) in c.data_mut().iter_mut().zip(x.data()) {
                *av += weight * cv;
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::score_pairs_t;

    /// Two triangles bridged: 0-1-2 triangle, 3-4-5 triangle, bridge 2-3.
    fn fixture() -> Snapshot {
        Snapshot::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])
    }

    /// Dense exact Katz via (I − βA)⁻¹ − I, small graphs only.
    fn exact_katz(snap: &Snapshot, beta: f64) -> Matrix {
        let n = snap.node_count();
        let a = sparse::to_dense(snap);
        let mut i_minus = Matrix::identity(n);
        for r in 0..n {
            for c in 0..n {
                i_minus[(r, c)] -= beta * a[(r, c)];
            }
        }
        // Invert by solving against identity columns.
        let rhs: Vec<Vec<f64>> =
            (0..n).map(|j| (0..n).map(|i| f64::from(u8::from(i == j))).collect()).collect();
        let cols = i_minus.solve_many(&rhs).expect("I - βA invertible for small β");
        let mut inv = Matrix::zeros(n, n);
        for (j, coljj) in cols.iter().enumerate() {
            for i in 0..n {
                inv[(i, j)] = coljj[i];
            }
        }
        for d in 0..n {
            inv[(d, d)] -= 1.0;
        }
        inv
    }

    #[test]
    fn katz_lr_full_rank_matches_exact() {
        let s = fixture();
        let beta = 0.05; // large enough that scores are well above noise
        let lr = KatzLr { beta, rank: 6, max_iter: 60, seed: 3 };
        let exact = exact_katz(&s, beta);
        let pairs = [(0, 3), (0, 4), (1, 5), (2, 4)];
        let got = score_pairs_t(&lr, &s, &pairs, 1);
        for (i, &(u, v)) in pairs.iter().enumerate() {
            let want = exact[(u as usize, v as usize)];
            assert!((got[i] - want).abs() < 1e-6, "pair ({u},{v}): got {} want {want}", got[i]);
        }
    }

    #[test]
    fn katz_lr_ranks_near_over_far() {
        let s = fixture();
        let lr = KatzLr::default();
        let scores = score_pairs_t(&lr, &s, &[(1, 3), (1, 5)], 1);
        assert!(scores[0] > scores[1], "distance-2 pair must beat distance-3");
    }

    #[test]
    fn katz_sc_few_landmarks_still_ranks_sanely() {
        let s = fixture();
        let sc = KatzSc { landmarks: 3, ..Default::default() };
        let scores = score_pairs_t(&sc, &s, &[(1, 3), (1, 5)], 1);
        assert!(scores[0] > scores[1]);
    }

    #[test]
    fn landmark_selection_is_dedup_and_sized() {
        let s = fixture();
        let sc = KatzSc { landmarks: 4, ..Default::default() };
        let lm = sc.pick_landmarks(&s);
        assert_eq!(lm.len(), 4);
        let mut d = lm.clone();
        d.dedup();
        assert_eq!(d.len(), 4);
    }

    #[test]
    fn empty_graph_scores_zero() {
        let s = Snapshot::from_edges(3, &[(0, 1)]);
        // Not empty, but test the guard path via a pair on a fresh snapshot.
        let lr = KatzLr::default();
        let scores = score_pairs_t(&lr, &s, &[(0, 2)], 1);
        assert!(scores[0].abs() < 1e-9, "no path 0→2 exists");
    }
}
