//! Friend recommendation — the paper's motivating application ("People You
//! May Know"). Trains an SVM over all similarity metrics on one snapshot
//! transition, then prints the top recommendations for a few users, with
//! the metric evidence behind each suggestion.
//!
//! Feature columns are produced by the cached batched engine
//! ([`exec::score_matrix_cached_t`] with one [`SolverCache`] shared
//! across both snapshots), and the run self-asserts that every feature
//! row, on the training and on the recommendation snapshot, is
//! bit-identical to the legacy per-metric scoring path — CI runs this
//! example, so the assert doubles as a regression gate.
//!
//! ```sh
//! cargo run --release --example friend_recommender
//! ```

use linklens::core::classify::ClassifierKind;
use linklens::graph::par;
use linklens::graph::traversal;
use linklens::metrics::exec;
use linklens::metrics::solver::SolverCache;
use linklens::metrics::topk;
use linklens::ml::data::Dataset;
use linklens::ml::Classifier;
use linklens::prelude::*;

fn main() {
    // A Renren-like friendship network.
    let config = TraceConfig::renren_like().scaled(0.08).with_days(60);
    let trace = config.generate(11);
    let seq = SnapshotSequence::with_count(&trace, 8);
    let t = seq.len() - 1;
    println!(
        "network: {} nodes / {} edges; training on transition {} → {}",
        trace.node_count(),
        trace.edge_count(),
        t - 1,
        t
    );

    let metrics = linklens::metrics::all_metrics();
    let metric_refs: Vec<&dyn Metric> = metrics.iter().map(|m| m.as_ref()).collect();
    let threads = par::max_threads();
    // One solver cache across the whole run: it shares the Rescal fit
    // within each snapshot and keeps nothing from one snapshot to the
    // next.
    let mut cache = SolverCache::transient();

    // Batched feature matrix: one engine call yields every metric column
    // at once (fused kernel for the local metrics, cached solvers for the
    // global ones), then transpose columns into per-pair feature rows.
    let features = |snap: &Snapshot, pairs: &[(NodeId, NodeId)], cache: &mut SolverCache| {
        let cols = exec::score_matrix_cached_t(&metric_refs, snap, pairs, threads, cache);
        (0..pairs.len())
            .map(|i| cols.iter().map(|c| c[i]).collect::<Vec<f64>>())
            .collect::<Vec<Vec<f64>>>()
    };

    // --- Train: label pairs of G_{t-2} by connectivity in G_{t-1}. ---
    let train_snap = seq.snapshot(t - 2);
    let truth: std::collections::HashSet<_> = seq.new_edges(t - 1).into_iter().collect();
    let candidates = traversal::two_hop_pairs(&train_snap, None, threads);

    // Undersample: all positives, 30 negatives per positive.
    let positives: Vec<_> = candidates.iter().copied().filter(|p| truth.contains(p)).collect();
    let negatives: Vec<_> = candidates
        .iter()
        .copied()
        .filter(|p| !truth.contains(p))
        .take(positives.len() * 30)
        .collect();
    println!("training pairs: {} positive, {} negative", positives.len(), negatives.len());

    // The batched feature rows must be bit-identical to the legacy
    // one-metric-at-a-time path: each metric scored alone with a fresh
    // solver cache.
    let assert_legacy_rows = |snap: &Snapshot, pairs: &[(NodeId, NodeId)], rows: &[Vec<f64>]| {
        let legacy: Vec<Vec<f64>> =
            metrics.iter().map(|m| exec::score_pairs_t(m.as_ref(), snap, pairs, threads)).collect();
        let differing = (0..pairs.len())
            .filter(|&i| rows[i].iter().zip(&legacy).any(|(x, c)| x.to_bits() != c[i].to_bits()))
            .count();
        assert_eq!(
            differing,
            0,
            "{differing} of {} batched feature rows differ from the per-metric path",
            pairs.len()
        );
    };
    let positive_rows = features(&train_snap, &positives, &mut cache);
    assert_legacy_rows(&train_snap, &positives, &positive_rows);

    let mut data = Dataset::new(metrics.len());
    for f in positive_rows {
        data.push(&f, 1);
    }
    for f in features(&train_snap, &negatives, &mut cache) {
        data.push(&f, 0);
    }
    let data = data.shuffled(3);
    let scaler = data.fit_scaler();
    let mut svm = LinearSvm::seeded(5);
    svm.fit(&data.scaled_by(&scaler));
    let _ = ClassifierKind::Svm; // the harness enum exists for sweeps; here we use the model directly

    // --- Recommend: rank current 2-hop pairs on the latest snapshot. ---
    let now = seq.snapshot(t - 1);
    let cands = traversal::two_hop_pairs(&now, None, threads);
    let feats = features(&now, &cands, &mut cache);
    // The cache scored the training snapshot first; the recommendation
    // rows must still be the per-metric rows, bit for bit.
    assert_legacy_rows(&now, &cands, &feats);
    println!("parity: batched-engine feature rows match the legacy per-metric path");
    let scores: Vec<f64> = feats.iter().map(|f| svm.decision(&scaler.transform(f))).collect();
    let top = topk::top_k_pairs(&cands, &scores, 10, 1);

    // Show the strongest metric features overall (Figure 12 style).
    let names: Vec<&str> = metrics.iter().map(|m| m.name()).collect();
    let coefs = svm.normalized_coefficients();
    let mut ranked: Vec<(&str, f64)> = names.iter().copied().zip(coefs).collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("\nSVM's heaviest features: {:?}", &ranked[..4]);

    // Top recommendations network-wide.
    println!("\ntop 10 recommendations (u ↔ v, SVM margin, CN count):");
    for (u, v) in top {
        let idx = cands.iter().position(|&p| p == (u, v)).expect("pair came from cands");
        println!(
            "  {u:>5} ↔ {v:<5}  margin {:>7.2}   common friends: {}",
            scores[idx],
            now.common_neighbor_count(u, v)
        );
    }

    // Per-user recommendations for the three highest-degree users.
    let mut by_degree: Vec<NodeId> = (0..now.node_count() as NodeId).collect();
    by_degree.sort_unstable_by_key(|&u| std::cmp::Reverse(now.degree(u)));
    for &user in by_degree.iter().take(3) {
        let mut user_scores: Vec<(usize, f64)> = cands
            .iter()
            .enumerate()
            .filter(|(_, &(a, b))| a == user || b == user)
            .map(|(i, _)| (i, scores[i]))
            .collect();
        user_scores.sort_by(|a, b| b.1.total_cmp(&a.1));
        let picks: Vec<String> = user_scores
            .iter()
            .take(3)
            .map(|&(i, s)| {
                let (a, b) = cands[i];
                let other = if a == user { b } else { a };
                format!("{other} ({s:.2})")
            })
            .collect();
        println!("user {user} (degree {}): suggest {}", now.degree(user), picks.join(", "));
    }
}
