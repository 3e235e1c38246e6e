//! Ablation benches for the design choices DESIGN.md §6 calls out:
//! candidate-policy width, PPR push tolerance, Katz-lr rank, and LRW prune
//! threshold. Each reports both cost (criterion timing) and, on stderr,
//! the accuracy-relevant quantity it trades against.

use criterion::{criterion_group, criterion_main, Criterion};
use osn_graph::snapshot::Snapshot;
use osn_graph::{par, traversal};
use osn_metrics::katz::KatzLr;
use osn_metrics::traits::Metric;
use osn_metrics::walk::{LocalRandomWalk, PersonalizedPageRank};
use osn_trace::presets::TraceConfig;

fn setup() -> (Snapshot, Vec<(u32, u32)>) {
    let cfg = TraceConfig::facebook_like().scaled(0.08).with_days(45);
    let trace = cfg.generate(42);
    let snap = Snapshot::up_to(&trace, trace.edge_count());
    let pairs: Vec<_> =
        traversal::two_hop_pairs(&snap, None, par::max_threads()).into_iter().take(5_000).collect();
    (snap, pairs)
}

fn bench_candidate_width(c: &mut Criterion) {
    let (snap, _) = setup();
    let mut group = c.benchmark_group("candidates");
    group.sample_size(10);
    let threads = par::max_threads();
    group.bench_function("two_hop", |b| b.iter(|| traversal::two_hop_pairs(&snap, None, threads)));
    group
        .bench_function("three_hop", |b| b.iter(|| traversal::within3_pairs(&snap, None, threads)));
    let two = traversal::two_hop_pairs(&snap, None, threads).len();
    let three = traversal::within3_pairs(&snap, None, threads).len();
    eprintln!("[ablation] candidate width: 2-hop {two} pairs vs ≤3-hop {three} pairs");
    group.finish();
}

fn bench_ppr_eps(c: &mut Criterion) {
    let (snap, pairs) = setup();
    let mut group = c.benchmark_group("ppr_epsilon");
    group.sample_size(10);
    let exact = PersonalizedPageRank { alpha: 0.15, epsilon: 1e-7 }.score_pairs(&snap, &pairs);
    for eps in [1e-3, 1e-4, 1e-5] {
        let ppr = PersonalizedPageRank { alpha: 0.15, epsilon: eps };
        let approx = ppr.score_pairs(&snap, &pairs);
        let max_err = approx.iter().zip(&exact).map(|(a, e)| (a - e).abs()).fold(0.0, f64::max);
        eprintln!("[ablation] PPR ε={eps:e}: max abs error vs ε=1e-7 is {max_err:.2e}");
        group.bench_function(format!("eps_{eps:e}"), |b| b.iter(|| ppr.score_pairs(&snap, &pairs)));
    }
    group.finish();
}

fn bench_katz_rank(c: &mut Criterion) {
    let (snap, pairs) = setup();
    let mut group = c.benchmark_group("katz_rank");
    group.sample_size(10);
    let reference = KatzLr { rank: 128, ..Default::default() }.score_pairs(&snap, &pairs);
    for rank in [16, 48, 96] {
        let katz = KatzLr { rank, ..Default::default() };
        let approx = katz.score_pairs(&snap, &pairs);
        // Rank-order agreement with the high-rank reference (top-100 overlap).
        let top = |scores: &[f64]| -> std::collections::HashSet<usize> {
            let mut idx: Vec<usize> = (0..scores.len()).collect();
            idx.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
            idx.into_iter().take(100).collect()
        };
        let overlap = top(&approx).intersection(&top(&reference)).count();
        eprintln!("[ablation] Katz-lr rank {rank}: top-100 overlap with rank-128 = {overlap}/100");
        group
            .bench_function(format!("rank_{rank}"), |b| b.iter(|| katz.score_pairs(&snap, &pairs)));
    }
    group.finish();
}

fn bench_lrw_prune(c: &mut Criterion) {
    let (snap, pairs) = setup();
    let mut group = c.benchmark_group("lrw_prune");
    group.sample_size(10);
    for prune in [0.0, 1e-7, 1e-4] {
        let lrw = LocalRandomWalk { steps: 3, prune };
        group.bench_function(format!("prune_{prune:e}"), |b| {
            b.iter(|| lrw.score_pairs(&snap, &pairs))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_candidate_width, bench_ppr_eps, bench_katz_rank, bench_lrw_prune);
criterion_main!(benches);
