//! Per-metric scoring cost — the §3.2 computation-cost comparison.
//!
//! The paper reports three cost tiers on its cluster: local metrics
//! (CN/JC/AA/RA/B*) in minutes, walk/path metrics (LRW, PPR, LP) in hours,
//! and embedding metrics (Rescal, Katz, SP) in days. These benches measure
//! the same ordering on one snapshot: every metric scores the same 2-hop
//! candidate batch through the engine (`exec::score_pairs_t`), the path
//! production runs, at one worker, so no metric gets more cores than
//! another.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use osn_graph::snapshot::Snapshot;
use osn_graph::{par, traversal};
use osn_metrics::exec;
use osn_trace::presets::TraceConfig;

fn bench_metrics(c: &mut Criterion) {
    let cfg = TraceConfig::renren_like().scaled(0.06).with_days(45);
    let trace = cfg.generate(42);
    let snap = Snapshot::up_to(&trace, trace.edge_count());
    let pairs = traversal::two_hop_pairs(&snap, None, par::max_threads());
    let batch: Vec<_> = pairs.iter().copied().take(20_000).collect();
    println!(
        "benchmark graph: {} nodes, {} edges, batch of {} pairs",
        snap.node_count(),
        snap.edge_count(),
        batch.len()
    );

    let mut group = c.benchmark_group("metric_scoring");
    group.sample_size(10);
    for metric in osn_metrics::all_metrics() {
        group.bench_function(metric.name(), |b| {
            b.iter_batched(
                || batch.clone(),
                |pairs| exec::score_pairs_t(metric.as_ref(), &snap, &pairs, 1),
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_metrics);
criterion_main!(benches);
