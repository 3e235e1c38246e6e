//! Per-pair references for the eight fused local metrics: one sorted-merge
//! intersection of `Γ(u)` and `Γ(v)` per pair, per metric. The fused
//! kernel (`osn_metrics::fused`) reproduces these expressions, and their
//! summation order, bit for bit; [`super::contract`] names each one's
//! metric.

use osn_graph::snapshot::Snapshot;
use osn_graph::{stats, NodeId};
use std::sync::Arc;

/// Sums a pair's witness terms left to right from `+0.0`, as the fused
/// kernel's accumulators do; `Iterator::sum` starts from `-0.0`, which a
/// pair without witnesses would keep.
fn witness_sum(terms: impl Iterator<Item = f64>) -> f64 {
    terms.fold(0.0, |acc, term| acc + term)
}

/// Common Neighbors: `|Γ(u) ∩ Γ(v)|`.
pub fn common_neighbors(snap: &Snapshot, pairs: &[(NodeId, NodeId)]) -> Vec<f64> {
    pairs.iter().map(|&(u, v)| snap.common_neighbor_count(u, v) as f64).collect()
}

/// Jaccard's Coefficient: `|Γ(u) ∩ Γ(v)| / |Γ(u) ∪ Γ(v)|`, zero when both
/// neighborhoods are empty.
pub fn jaccard_coefficient(snap: &Snapshot, pairs: &[(NodeId, NodeId)]) -> Vec<f64> {
    pairs
        .iter()
        .map(|&(u, v)| {
            let inter = snap.common_neighbor_count(u, v);
            let union = snap.degree(u) + snap.degree(v) - inter;
            if union == 0 {
                0.0
            } else {
                inter as f64 / union as f64
            }
        })
        .collect()
}

/// Adamic/Adar: `Σ_{w ∈ Γ(u) ∩ Γ(v)} 1 / ln(deg w)`.
pub fn adamic_adar(snap: &Snapshot, pairs: &[(NodeId, NodeId)]) -> Vec<f64> {
    pairs
        .iter()
        .map(|&(u, v)| {
            witness_sum(snap.common_neighbors(u, v).map(|w| 1.0 / (snap.degree(w) as f64).ln()))
        })
        .collect()
}

/// Resource Allocation: `Σ_{w ∈ Γ(u) ∩ Γ(v)} 1 / deg w`.
pub fn resource_allocation(snap: &Snapshot, pairs: &[(NodeId, NodeId)]) -> Vec<f64> {
    pairs
        .iter()
        .map(|&(u, v)| {
            witness_sum(snap.common_neighbors(u, v).map(|w| 1.0 / snap.degree(w) as f64))
        })
        .collect()
}

/// Preferential Attachment: `deg(u) · deg(v)`, as an integer product.
pub fn preferential_attachment(snap: &Snapshot, pairs: &[(NodeId, NodeId)]) -> Vec<f64> {
    pairs.iter().map(|&(u, v)| (snap.degree(u) * snap.degree(v)) as f64).collect()
}

/// The memo key of [`bayes_weights`]: the oracle's own, so it never
/// reads the tables the engine derives.
struct BayesWeights;

/// The naive-Bayes quantities `(log s, log R_w per node)`, from the
/// snapshot's triangle counts by the expressions the fused
/// kernel's naive-Bayes tables use: `s = |V|(|V|−1)/(2|E|) − 1` (guarded
/// positive) and `R_w = (N_△w + 1) / (N_∧w + 1)`. Memoized on the
/// snapshot, so the chunks of one reference call count triangles once.
fn bayes_weights(snap: &Snapshot) -> Arc<(f64, Vec<f64>)> {
    snap.derived::<BayesWeights, _>(&[], || {
        let n = snap.node_count() as f64;
        let e = snap.edge_count() as f64;
        let s = (n * (n - 1.0) / (2.0 * e.max(1.0)) - 1.0).max(1e-9);
        let tri = stats::triangle_counts(snap);
        let log_r = (0..snap.node_count())
            .map(|w| {
                let d = snap.degree(w as NodeId) as f64;
                let wedges = d * (d - 1.0) / 2.0;
                let t = tri[w] as f64;
                ((t + 1.0) / ((wedges - t) + 1.0)).ln()
            })
            .collect();
        (s.ln(), log_r)
    })
}

/// Local-naive-Bayes CN: `|Γ(u) ∩ Γ(v)|·log s + Σ_w log R_w`.
pub fn bayes_common_neighbors(snap: &Snapshot, pairs: &[(NodeId, NodeId)]) -> Vec<f64> {
    let weights = bayes_weights(snap);
    let (log_s, log_r) = (weights.0, &weights.1);
    pairs
        .iter()
        .map(|&(u, v)| {
            let mut cn = 0usize;
            let mut acc = 0.0;
            for w in snap.common_neighbors(u, v) {
                cn += 1;
                acc += log_r[w as usize];
            }
            cn as f64 * log_s + acc
        })
        .collect()
}

/// Local-naive-Bayes AA: `Σ_w (log s + log R_w) / ln(deg w)`.
pub fn bayes_adamic_adar(snap: &Snapshot, pairs: &[(NodeId, NodeId)]) -> Vec<f64> {
    let weights = bayes_weights(snap);
    let (log_s, log_r) = (weights.0, &weights.1);
    pairs
        .iter()
        .map(|&(u, v)| {
            witness_sum(
                snap.common_neighbors(u, v)
                    .map(|w| (log_s + log_r[w as usize]) / (snap.degree(w) as f64).ln()),
            )
        })
        .collect()
}

/// Local-naive-Bayes RA: `Σ_w (log s + log R_w) / deg w`.
pub fn bayes_resource_allocation(snap: &Snapshot, pairs: &[(NodeId, NodeId)]) -> Vec<f64> {
    let weights = bayes_weights(snap);
    let (log_s, log_r) = (weights.0, &weights.1);
    pairs
        .iter()
        .map(|&(u, v)| {
            witness_sum(
                snap.common_neighbors(u, v)
                    .map(|w| (log_s + log_r[w as usize]) / snap.degree(w) as f64),
            )
        })
        .collect()
}
