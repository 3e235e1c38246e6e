//! One-column references for the batched walk kernels of
//! `osn_metrics::solver`: PPR's Chebyshev semi-iteration and LRW's
//! pruned walk, written as separate passes over one source column on the
//! snapshot's neighbour lists and degrees. Every per-element expression and
//! every fold order is the kernels' own, so a kernel's column, at any
//! block width and thread count, must equal these bit for bit. Test
//! targets include this one file with `#[path]`.

use osn_graph::snapshot::Snapshot;
use osn_graph::NodeId;
use osn_metrics::solver::PPR_MAX_ITERS;

/// `z / d(u)` per node, `0.0` on a dangling node.
fn shares(snap: &Snapshot, z: &[f64]) -> Vec<f64> {
    (0..snap.node_count())
        .map(|u| match snap.degree(u as NodeId) {
            0 => 0.0,
            d => z[u] / d as f64,
        })
        .collect()
}

/// `Σ_{u∈Γ(v)} s_u` per node, folded in ascending neighbour order from
/// `0.0`.
fn gather(snap: &Snapshot, s: &[f64]) -> Vec<f64> {
    let mut g = vec![0.0; snap.node_count()];
    for (v, g) in g.iter_mut().enumerate() {
        for &u in snap.neighbors(v as NodeId) {
            *g += s[u as usize];
        }
    }
    g
}

/// A PPR column frozen at the first Chebyshev iteration whose residual
/// L1 norm is at most the tolerance.
pub struct PprColumn {
    /// The solution `x` at that iteration.
    pub x: Vec<f64>,
    /// The iteration index `k` at which it froze.
    pub iterations: u64,
}

/// Solves `(I - (1-α)Pᵀ) p = α e_src` from zero by the Chebyshev
/// semi-iteration on the spectrum `[α, 2-α]`.
///
/// # Panics
/// Panics on a non-finite residual norm or after [`PPR_MAX_ITERS`]
/// iterations.
pub fn ppr_column(snap: &Snapshot, src: NodeId, alpha: f64, tol: f64) -> PprColumn {
    let n = snap.node_count();
    let oma = 1.0 - alpha;
    let mut x = vec![0.0; n];
    // r = α e_src - x + (1-α)Pᵀ x, which from x = 0 is α e_src; the
    // first direction is r.
    let g = gather(snap, &shares(snap, &x));
    let mut r: Vec<f64> = (0..n).map(|i| oma * g[i] - x[i]).collect();
    r[src as usize] += alpha;
    let mut d = r.clone();

    let sigma1 = 1.0 / oma;
    let delta = oma;
    let mut rho = oma;
    let mut k = 0usize;
    loop {
        let mut norm = 0.0;
        for &r in &r {
            norm += r.abs();
        }
        assert!(norm.is_finite(), "non-finite residual norm at iteration {k}");
        if norm <= tol {
            return PprColumn { x, iterations: k as u64 };
        }
        assert!(k < PPR_MAX_ITERS, "no convergence within {PPR_MAX_ITERS} iterations");
        for i in 0..n {
            x[i] += d[i];
        }
        let g = gather(snap, &shares(snap, &d));
        for i in 0..n {
            r[i] -= d[i] - oma * g[i];
        }
        let rho_next = 1.0 / (2.0 * sigma1 - rho);
        let a = rho_next * rho;
        let c = 2.0 * rho_next / delta;
        for i in 0..n {
            d[i] = a * d[i] + c * r[i];
        }
        rho = rho_next;
        k += 1;
    }
}

/// The `steps`-step walk distribution from `src`: per step, phase A
/// takes each node's degree share of its mass (`0.0` below `prune`) and
/// lets a dangling node keep its own mass; phase B adds each node's
/// neighbours' shares in ascending order.
pub fn lrw_column(snap: &Snapshot, src: NodeId, steps: usize, prune: f64) -> Vec<f64> {
    let n = snap.node_count();
    let mut x = vec![0.0; n];
    x[src as usize] = 1.0;
    for _ in 0..steps {
        let mut y = vec![0.0; n];
        let mut s = vec![0.0; n];
        for u in 0..n {
            match snap.degree(u as NodeId) {
                0 => y[u] += x[u],
                d => {
                    let share = x[u] / d as f64;
                    s[u] = if share < prune { 0.0 } else { share };
                }
            }
        }
        for (v, y) in y.iter_mut().enumerate() {
            for &u in snap.neighbors(v as NodeId) {
                *y += s[u as usize];
            }
        }
        x = y;
    }
    x
}
