//! Per-pair references for the eight fused local metrics: one sorted-merge
//! intersection of `Γ(u)` and `Γ(v)` per pair, per metric. The fused
//! kernel (`osn_metrics::fused`) reproduces these expressions, and their
//! summation order, bit for bit.

use osn_graph::snapshot::Snapshot;
use osn_graph::NodeId;

/// A per-pair reference: one score per pair of the batch.
pub type PairScorer = fn(&Snapshot, &[(NodeId, NodeId)]) -> Vec<f64>;

/// The per-pair reference of the fused metric named `name` (CN, JC, AA,
/// RA, PA, BCN, BAA or BRA); `None` for every other metric.
pub fn per_pair(name: &str) -> Option<PairScorer> {
    Some(match name {
        "CN" => common_neighbors,
        "JC" => jaccard_coefficient,
        "AA" => adamic_adar,
        "RA" => resource_allocation,
        "PA" => preferential_attachment,
        "BCN" => bayes_common_neighbors,
        "BAA" => bayes_adamic_adar,
        "BRA" => bayes_resource_allocation,
        _ => return None,
    })
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
            snap.common_neighbors(u, v).map(|w| 1.0 / (snap.degree(w) as f64).ln()).sum()
        })
        .collect()
}

/// Resource Allocation: `Σ_{w ∈ Γ(u) ∩ Γ(v)} 1 / deg w`.
pub fn resource_allocation(snap: &Snapshot, pairs: &[(NodeId, NodeId)]) -> Vec<f64> {
    pairs
        .iter()
        .map(|&(u, v)| snap.common_neighbors(u, v).map(|w| 1.0 / snap.degree(w) as f64).sum())
        .collect()
}

/// Preferential Attachment: `deg(u) · deg(v)`, as an integer product.
pub fn preferential_attachment(snap: &Snapshot, pairs: &[(NodeId, NodeId)]) -> Vec<f64> {
    pairs.iter().map(|&(u, v)| (snap.degree(u) * snap.degree(v)) as f64).collect()
}

/// The naive-Bayes quantities `(log s, log R_w per node)`, from the
/// snapshot's cached triangle counts by the expressions
/// `osn_metrics::bayes` uses: `s = |V|(|V|−1)/(2|E|) − 1` (guarded
/// positive) and `R_w = (N_△w + 1) / (N_∧w + 1)`.
fn bayes_weights(snap: &Snapshot) -> (f64, Vec<f64>) {
    let n = snap.node_count() as f64;
    let e = snap.edge_count() as f64;
    let s = (n * (n - 1.0) / (2.0 * e.max(1.0)) - 1.0).max(1e-9);
    let tri = snap.triangle_counts();
    let log_r = (0..snap.node_count())
        .map(|w| {
            let d = snap.degree(w as NodeId) as f64;
            let wedges = d * (d - 1.0) / 2.0;
            let t = tri[w] as f64;
            ((t + 1.0) / ((wedges - t) + 1.0)).ln()
        })
        .collect();
    (s.ln(), log_r)
}

/// Local-naive-Bayes CN: `|Γ(u) ∩ Γ(v)|·log s + Σ_w log R_w`.
pub fn bayes_common_neighbors(snap: &Snapshot, pairs: &[(NodeId, NodeId)]) -> Vec<f64> {
    let (log_s, log_r) = bayes_weights(snap);
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
    let (log_s, log_r) = bayes_weights(snap);
    pairs
        .iter()
        .map(|&(u, v)| {
            snap.common_neighbors(u, v)
                .map(|w| (log_s + log_r[w as usize]) / (snap.degree(w) as f64).ln())
                .sum()
        })
        .collect()
}

/// Local-naive-Bayes RA: `Σ_w (log s + log R_w) / deg w`.
pub fn bayes_resource_allocation(snap: &Snapshot, pairs: &[(NodeId, NodeId)]) -> Vec<f64> {
    let (log_s, log_r) = bayes_weights(snap);
    pairs
        .iter()
        .map(|&(u, v)| {
            snap.common_neighbors(u, v)
                .map(|w| (log_s + log_r[w as usize]) / snap.degree(w) as f64)
                .sum()
        })
        .collect()
}
