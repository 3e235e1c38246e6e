//! Friend recommendation — the paper's motivating application ("People You
//! May Know"). Trains an SVM over all similarity metrics on one snapshot
//! transition, then prints the top recommendations for a few users, with
//! the metric evidence behind each suggestion.
//!
//! Feature columns are produced by the cached batched engine
//! ([`exec::score_matrix_cached_t`] with one sweep [`SolverCache`] shared
//! across snapshots), and the run self-asserts that the recommendations
//! are identical to the legacy per-metric scoring path — CI runs this
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
    // One sweep cache across the whole run: the transition view is shared
    // within each snapshot and converged solver state warm-starts the
    // next snapshot's solves.
    let mut cache = SolverCache::sweep();

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

    // On the first snapshot the sweep cache runs cold, so the batched
    // columns must be bit-identical to the legacy one-metric-at-a-time
    // path the example used before the engine existed.
    let legacy_cols: Vec<Vec<f64>> =
        metrics.iter().map(|m| m.score_pairs(&train_snap, &positives)).collect();
    let batched_cols =
        exec::score_matrix_cached_t(&metric_refs, &train_snap, &positives, threads, &mut cache);
    assert_eq!(
        batched_cols, legacy_cols,
        "cached batched engine diverged from the per-metric path on the training snapshot"
    );

    let mut data = Dataset::new(metrics.len());
    for f in features(&train_snap, &positives, &mut cache) {
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
    let scores: Vec<f64> = feats.iter().map(|f| svm.decision(&scaler.transform(f))).collect();
    let top = topk::top_k_pairs(&cands, &scores, 10, 1);

    // Same top-k as the legacy path, warm solver state and all: recompute
    // the recommendation features one metric at a time and assert the
    // ranked pairs agree.
    let legacy_now: Vec<Vec<f64>> = metrics.iter().map(|m| m.score_pairs(&now, &cands)).collect();
    let legacy_scores: Vec<f64> = (0..cands.len())
        .map(|i| {
            let row: Vec<f64> = legacy_now.iter().map(|c| c[i]).collect();
            svm.decision(&scaler.transform(&row))
        })
        .collect();
    let legacy_top = topk::top_k_pairs(&cands, &legacy_scores, 10, 1);
    assert_eq!(top, legacy_top, "batched path recommends different pairs than the legacy path");
    println!("parity: batched-engine recommendations match the legacy per-metric path");

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
