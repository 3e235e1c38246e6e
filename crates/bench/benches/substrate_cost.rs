//! Substrate costs: snapshot construction, candidate enumeration, graph
//! statistics, sampling, and classifier training.

use criterion::{criterion_group, criterion_main, Criterion};
use osn_graph::snapshot::Snapshot;
use osn_graph::{par, sample, stats, traversal};
use osn_ml::data::Dataset;
use osn_ml::svm::LinearSvm;
use osn_ml::Classifier;
use osn_trace::presets::TraceConfig;

fn bench_substrate(c: &mut Criterion) {
    let cfg = TraceConfig::facebook_like().scaled(0.2).with_days(60);
    let trace = cfg.generate(42);
    let snap = Snapshot::up_to(&trace, trace.edge_count());
    println!("substrate graph: {} nodes, {} edges", snap.node_count(), snap.edge_count());

    let mut group = c.benchmark_group("substrate");
    group.sample_size(10);
    group.bench_function("trace_generation", |b| b.iter(|| cfg.generate(7)));
    group.bench_function("snapshot_build", |b| {
        b.iter(|| Snapshot::up_to(&trace, trace.edge_count()))
    });
    let threads = par::max_threads();
    group.bench_function("two_hop_pairs", |b| {
        b.iter(|| traversal::two_hop_pairs(&snap, None, threads))
    });
    group.bench_function("within3_pairs", |b| {
        b.iter(|| traversal::within3_pairs(&snap, None, threads))
    });
    group.bench_function("triangle_counts", |b| b.iter(|| stats::triangle_counts(&snap)));
    group.bench_function("snapshot_properties", |b| {
        b.iter(|| stats::snapshot_properties(&snap, 20))
    });
    group.bench_function("snowball_20pct", |b| b.iter(|| sample::snowball(&snap, 0, 0.2)));
    group.finish();

    // Classifier training on synthetic features (the §5 inner loop).
    let mut data = Dataset::new(15);
    let mut s = 1u64;
    let mut next = move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((s >> 33) as f64 / (1u64 << 31) as f64) - 0.5
    };
    for i in 0..20_000 {
        let row: Vec<f64> = (0..15).map(|_| next()).collect();
        data.push(&row, u32::from(i % 100 == 0));
    }
    let mut group = c.benchmark_group("training");
    group.sample_size(10);
    group.bench_function("svm_fit_20k", |b| {
        b.iter(|| {
            let mut svm = LinearSvm::seeded(1);
            svm.fit(&data);
            svm.decision(data.row(0))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_substrate);
criterion_main!(benches);
