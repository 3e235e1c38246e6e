//! Every call the benchmark makes into library code, grouped by workload.
//!
//! The rest of the benchmark only orchestrates, times and checks; when an
//! engine entry point is renamed, this is the one file to update. Traced
//! functions take a [`Recorder`] and open one span around each call into a
//! layer, named `<layer>.<what>`: `trace` (osn-trace), `graph`
//! (osn-graph), `metrics` and `solver` (osn-metrics), `core`
//! (linklens-core) and `serve` (linklens-serve).

use crate::spans::Recorder;
use linklens_core::framework::{unconnected_pair_count, SequenceEvaluator};
use linklens_core::sampling::{self, SampleSpec};
use linklens_serve::query::{self, EnumScratch};
use linklens_serve::store::Versioned;
use linklens_serve::{ServeConfig, Server};
use osn_graph::io::{CacheFileWriter, SectionedCacheReader};
use osn_graph::live::LiveGraph;
use osn_graph::sequence::SnapshotSequence;
use osn_graph::snapshot::Snapshot;
use osn_graph::stream::StreamingSequence;
use osn_metrics::candidates::CandidateSet;
use osn_metrics::fused::{FusedCtx, FusedScratch, LocalKind};
use osn_metrics::solver::SolverCache;
use osn_metrics::traits::{CandidatePolicy, Metric};
use osn_metrics::{exec, topk};
use osn_trace::presets::TraceConfig;
use osn_trace::GrowthTrace;
use std::collections::{BTreeMap, HashSet};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A canonical node pair `(u, v)`, `u < v`.
pub type Pair = (u32, u32);

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Fixes the engine's worker count for the whole process.
pub fn pin_engine_threads(threads: usize) {
    osn_graph::par::set_thread_override(Some(threads));
}

/// The engine's worker count.
pub fn engine_threads() -> usize {
    osn_graph::par::max_threads()
}

fn renren(scale: f64, days: u32) -> TraceConfig {
    TraceConfig::renren_like().scaled(scale).with_days(days)
}

// ---------------------------------------------------------------- trace --

/// An in-core growth trace.
pub struct Trace(GrowthTrace);

/// Generates the renren-like trace at `scale` over `days`.
pub fn generate(scale: f64, days: u32, seed: u64) -> Trace {
    Trace(renren(scale, days).generate(seed))
}

impl Trace {
    pub fn node_count(&self) -> usize {
        self.0.node_count()
    }

    pub fn edge_count(&self) -> usize {
        self.0.edge_count()
    }

    /// The edges as canonical pairs, in trace order.
    pub fn edge_pairs(&self) -> Vec<Pair> {
        self.0.edges().iter().map(|e| (e.u, e.v)).collect()
    }
}

// ---------------------------------------------------------------- sweep --

/// The sweep's metrics: all 14 of the paper's predictors except Rescal.
fn sweep_metrics() -> Vec<Box<dyn Metric>> {
    osn_metrics::all_metrics().into_iter().filter(|m| m.name() != "Rescal").collect()
}

pub fn sweep_metric_names() -> Vec<&'static str> {
    sweep_metrics().iter().map(|m| m.name()).collect()
}

/// Hits and accuracy ratio per `[metric][transition - 1]`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SweepOutcomes {
    pub correct: Vec<Vec<usize>>,
    pub ratio: Vec<Vec<f64>>,
}

impl SweepOutcomes {
    fn new(metrics: usize) -> Self {
        SweepOutcomes { correct: vec![Vec::new(); metrics], ratio: vec![Vec::new(); metrics] }
    }
}

/// One timed sweep: outcomes plus per-transition latencies.
pub struct SweepPass {
    pub outcomes: SweepOutcomes,
    pub advance_ms: Vec<f64>,
    pub evaluate_ms: Vec<f64>,
}

/// `SequenceEvaluator::evaluate_all`'s loop, one public call per step, so
/// each snapshot advance and each transition's evaluation is timed.
pub fn sweep_pass(trace: &Trace, snapshots: usize) -> SweepPass {
    let seq = SnapshotSequence::with_count(&trace.0, snapshots);
    let eval = SequenceEvaluator::new(&seq);
    let metrics = sweep_metrics();
    let refs: Vec<&dyn Metric> = metrics.iter().map(|m| m.as_ref()).collect();
    let mut out = SweepPass {
        outcomes: SweepOutcomes::new(refs.len()),
        advance_ms: Vec::new(),
        evaluate_ms: Vec::new(),
    };
    let mut sweep = seq.snapshots();
    let mut cache = SolverCache::sweep();
    for t in 1..seq.len() {
        let t0 = Instant::now();
        let prev = sweep.next().expect("the sweep yields every boundary");
        out.advance_ms.push(ms_since(t0));
        let t0 = Instant::now();
        let outcomes = eval.evaluate_metrics_on_cached(&refs, prev, t, None, &mut cache);
        out.evaluate_ms.push(ms_since(t0));
        for (mi, o) in outcomes.iter().enumerate() {
            out.outcomes.correct[mi].push(o.correct);
            out.outcomes.ratio[mi].push(o.accuracy_ratio);
        }
    }
    out
}

/// `SequenceEvaluator::evaluate_all` itself: the reference the replays
/// are checked against.
pub fn sweep_evaluate_all(trace: &Trace, snapshots: usize) -> SweepOutcomes {
    let seq = SnapshotSequence::with_count(&trace.0, snapshots);
    let metrics = sweep_metrics();
    let refs: Vec<&dyn Metric> = metrics.iter().map(|m| m.as_ref()).collect();
    let mut out = SweepOutcomes::new(refs.len());
    for (mi, row) in SequenceEvaluator::new(&seq).evaluate_all(&refs, None).iter().enumerate() {
        out.correct[mi] = row.iter().map(|o| o.correct).collect();
        out.ratio[mi] = row.iter().map(|o| o.accuracy_ratio).collect();
    }
    out
}

/// Work counts of a traced sweep.
#[derive(Clone, Debug, Default)]
pub struct SweepCounts {
    /// Candidate pairs scored per policy group, summed over transitions.
    pub pairs: BTreeMap<&'static str, usize>,
    pub ppr_sources: u64,
    pub ppr_iterations: u64,
    pub ppr_warm_starts: u64,
}

fn policy_label(p: CandidatePolicy) -> &'static str {
    match p {
        CandidatePolicy::TwoHop => "two_hop",
        CandidatePolicy::ThreeHop => "three_hop",
        CandidatePolicy::Global => "global",
    }
}

/// The sweep with the framework's per-transition core replayed call by
/// call (snapshot advance, ground truth, candidate enumeration per policy
/// group, batched top-k, judging), a span around each call. Same calls in
/// the same order as `evaluate_all`, so the hits must match it exactly.
pub fn sweep_traced(
    trace: &Trace,
    snapshots: usize,
    rec: &Recorder,
) -> (SweepOutcomes, SweepCounts) {
    let seq = SnapshotSequence::with_count(&trace.0, snapshots);
    let eval = SequenceEvaluator::new(&seq);
    let metrics = sweep_metrics();
    let refs: Vec<&dyn Metric> = metrics.iter().map(|m| m.as_ref()).collect();
    let has = |p: CandidatePolicy| refs.iter().any(|m| m.candidate_policy() == p);
    let mut out = SweepOutcomes::new(refs.len());
    let mut counts = SweepCounts::default();
    let mut sweep = seq.snapshots();
    let mut cache = SolverCache::sweep();
    for t in 1..seq.len() {
        let _transition = rec.span("core.transition");
        let prev = {
            let _s = rec.span("graph.advance");
            sweep.next().expect("the sweep yields every boundary")
        };
        let truth = {
            let _s = rec.span("core.evaluate");
            eval.ground_truth(t)
        };
        let k = truth.len();
        let mut base3 = None;
        if has(CandidatePolicy::ThreeHop) && has(CandidatePolicy::Global) {
            let _s = rec.span("metrics.candidates.within3");
            base3 = Some(CandidateSet::within3_base(prev, None));
        }
        let mut predictions: Vec<Vec<Pair>> = vec![Vec::new(); refs.len()];
        for policy in [CandidatePolicy::TwoHop, CandidatePolicy::ThreeHop, CandidatePolicy::Global]
        {
            let group: Vec<usize> =
                (0..refs.len()).filter(|&i| refs[i].candidate_policy() == policy).collect();
            if group.is_empty() {
                continue;
            }
            let group_metrics: Vec<&dyn Metric> = group.iter().map(|&i| refs[i]).collect();
            let top = eval.top_degree_candidates;
            let cands = match policy {
                CandidatePolicy::TwoHop => {
                    let _s = rec.span("metrics.candidates.two_hop");
                    CandidateSet::build_pruned(prev, policy, top, None)
                        .capped(eval.max_candidate_pairs)
                }
                CandidatePolicy::ThreeHop => {
                    let base = match &base3 {
                        Some(base) => {
                            let _s = rec.span("metrics.candidates.three_hop");
                            base.clone()
                        }
                        None => {
                            let _s = rec.span("metrics.candidates.within3");
                            CandidateSet::within3_base(prev, None)
                        }
                    };
                    let _s = rec.span("metrics.candidates.three_hop");
                    CandidateSet::three_hop_from_base(base).capped(eval.max_candidate_pairs)
                }
                CandidatePolicy::Global => {
                    let base = match base3.take() {
                        Some(base) => base,
                        None => {
                            let _s = rec.span("metrics.candidates.within3");
                            CandidateSet::within3_base(prev, None)
                        }
                    };
                    let _s = rec.span("metrics.candidates.global");
                    CandidateSet::global_from_base(prev, base, top, None)
                        .capped(eval.max_candidate_pairs)
                }
            };
            *counts.pairs.entry(policy_label(policy)).or_default() += cands.len();
            let group_predictions = {
                let _s = rec.span(match policy {
                    CandidatePolicy::TwoHop => "metrics.score.two_hop",
                    CandidatePolicy::ThreeHop => "metrics.score.three_hop",
                    CandidatePolicy::Global => "metrics.score.global",
                });
                exec::predict_top_k_many_cached_t(
                    &group_metrics,
                    prev,
                    &cands,
                    k,
                    eval.seed,
                    engine_threads(),
                    &mut cache,
                )
            };
            for (&i, p) in group.iter().zip(group_predictions) {
                predictions[i] = p;
            }
        }
        let _s = rec.span("core.evaluate");
        let universe = unconnected_pair_count(prev);
        for (mi, predicted) in predictions.iter().enumerate() {
            let correct = predicted.iter().filter(|p| truth.contains(p)).count();
            out.correct[mi].push(correct);
            out.ratio[mi].push(accuracy_ratio(correct, k, universe));
        }
    }
    counts.ppr_sources = cache.stats.ppr_sources;
    counts.ppr_iterations = cache.stats.ppr_iterations;
    counts.ppr_warm_starts = cache.stats.ppr_warm_starts;
    (out, counts)
}

/// The paper's accuracy ratio: hits over the random predictor's expected
/// hits `k² / U`; `NaN` when there is no baseline, as in linklens-core.
fn accuracy_ratio(correct: usize, k: usize, universe: f64) -> f64 {
    let expected = if universe > 0.0 { (k * k) as f64 / universe } else { f64::NAN };
    if expected > 0.0 {
        correct as f64 / expected
    } else {
        f64::NAN
    }
}

/// Attribution of transition `t`'s scoring to single metrics: each metric
/// scored alone on its policy's candidate set with a cold solver cache.
/// Returns `(metric, milliseconds)`.
pub fn sweep_attribution(trace: &Trace, snapshots: usize, t: usize) -> Vec<(&'static str, f64)> {
    let seq = SnapshotSequence::with_count(&trace.0, snapshots);
    let eval = SequenceEvaluator::new(&seq);
    let prev = seq.snapshot(t - 1);
    let k = eval.ground_truth(t).len();
    let mut sets: BTreeMap<CandidatePolicy, CandidateSet> = BTreeMap::new();
    sweep_metrics()
        .iter()
        .map(|m| {
            let policy = m.candidate_policy();
            let cands = sets.entry(policy).or_insert_with(|| {
                CandidateSet::build(&prev, policy, eval.top_degree_candidates)
                    .capped(eval.max_candidate_pairs)
            });
            let mut cache = SolverCache::sweep();
            let t0 = Instant::now();
            let top = exec::predict_top_k_many_cached_t(
                &[m.as_ref()],
                &prev,
                cands,
                k,
                eval.seed,
                engine_threads(),
                &mut cache,
            );
            let spent = ms_since(t0);
            std::hint::black_box(top);
            (m.name(), spent)
        })
        .collect()
}

// --------------------------------------------------------- sample-large --

/// The sampled metrics (the §5 local predictors) and their span names.
pub const SAMPLED_METRICS: [(&str, &str); 3] =
    [("CN", "core.sampling.CN"), ("AA", "core.sampling.AA"), ("RA", "core.sampling.RA")];

/// What a sampled pass generates, reads and estimates.
pub struct SampledSpec {
    pub scale: f64,
    pub days: u32,
    pub seed: u64,
    pub snapshots: usize,
    /// Transitions whose observed snapshot is sampled.
    pub transitions: Range<usize>,
    /// Target members per snowball draw.
    pub members: usize,
    pub draws: usize,
}

/// One sampled estimate.
#[derive(Clone, Debug, PartialEq)]
pub struct Estimate {
    pub metric: &'static str,
    pub t: usize,
    pub per_draw: Vec<f64>,
    pub mean_ratio: f64,
    pub mean_sample_size: f64,
}

/// What generation wrote into the cache file.
#[derive(Clone, Copy, Debug, Default)]
pub struct Generated {
    pub nodes: usize,
    pub edges: usize,
    pub cache_nodes: usize,
    pub cache_edges: usize,
    pub cache_sections: usize,
    pub cache_bytes: u64,
}

/// Streams a generated trace through a `CacheFileWriter` into a new cache
/// file at `path`: the sampled workload's set-up.
pub fn cache_generate(
    path: &Path,
    spec: &SampledSpec,
    rec: &Recorder,
) -> Result<Generated, String> {
    let io = |e: osn_graph::io::TraceIoError| format!("{path:?}: {e}");
    let _s = rec.span("trace.generate");
    let mut sink = CacheFileWriter::create(path).map_err(io)?;
    let cfg = renren(spec.scale, spec.days);
    let generated =
        osn_trace::stream::generate_streaming(&cfg, spec.seed, &mut sink).map_err(io)?;
    let cached = sink.finish().map_err(io)?;
    Ok(Generated {
        nodes: generated.nodes,
        edges: generated.edges,
        cache_nodes: cached.nodes,
        cache_edges: cached.edges,
        cache_sections: cached.sections,
        cache_bytes: std::fs::metadata(path).map_err(|e| format!("{path:?}: {e}"))?.len(),
    })
}

/// Removes the cache file at `path` and the temporary sibling a
/// `CacheFileWriter` streams into before it renames; either may be absent.
pub fn cache_remove(path: &Path) -> Result<(), String> {
    for file in [path.to_path_buf(), path.with_extension("llc.tmp")] {
        match std::fs::remove_file(&file) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                return Err(format!("remove {file:?}: {e}"))
            }
            _ => {}
        }
    }
    Ok(())
}

/// Totals and timings of one sampled pass.
#[derive(Clone, Debug, Default)]
pub struct SampledPass {
    pub snapshots_seen: usize,
    pub last_prefix: usize,
    pub advance_ms: Vec<f64>,
    pub estimate_ms: Vec<f64>,
    pub estimates: Vec<Estimate>,
}

/// Sweeps the cache file at `path` through the windowed reader and runs
/// snowball-sampled estimates of the sampled metrics on the chosen
/// transitions.
pub fn sampled_pass(
    path: &Path,
    spec: &SampledSpec,
    rec: &Recorder,
) -> Result<SampledPass, String> {
    let io = |e: osn_graph::io::TraceIoError| e.to_string();
    let mut out = SampledPass::default();
    let (mut sweep, truths) = {
        let _s = rec.span("graph.io.open");
        let reader = SectionedCacheReader::open(path).map_err(io)?;
        let mut seq = StreamingSequence::with_count(reader, spec.snapshots);
        let mut truths = BTreeMap::new();
        for t in spec.transitions.clone() {
            let truth: HashSet<Pair> = seq.new_edges(t).map_err(io)?.into_iter().collect();
            truths.insert(t, truth);
        }
        (seq.sweep(), truths)
    };
    let metrics: Vec<(Box<dyn Metric>, &'static str)> = SAMPLED_METRICS
        .iter()
        .map(|&(n, span)| (osn_metrics::metric_by_name(n).expect("sampled metrics exist"), span))
        .collect();
    let mut t = 0;
    loop {
        let t0 = Instant::now();
        let snap = {
            let _s = rec.span("graph.advance");
            sweep.next().map_err(io)?
        };
        let Some(snap) = snap else { break };
        out.advance_ms.push(ms_since(t0));
        out.snapshots_seen += 1;
        out.last_prefix = snap.prefix_len();
        t += 1;
        let Some(truth) = truths.get(&t) else { continue };
        let p = (spec.members as f64 / snap.node_count() as f64).min(1.0);
        let sample = SampleSpec { p, draws: spec.draws, seed: spec.seed, ..SampleSpec::default() };
        for (m, span) in &metrics {
            let t0 = Instant::now();
            let est = {
                let _s = rec.span(span);
                sampling::evaluate_metric_sampled_on(m.as_ref(), snap, truth, t, None, &sample)
            };
            out.estimate_ms.push(ms_since(t0));
            out.estimates.push(Estimate {
                metric: m.name(),
                t,
                per_draw: est.per_draw_ratios,
                mean_ratio: est.mean_accuracy_ratio,
                mean_sample_size: est.mean_sample_size,
            });
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------- serve --

/// Answers per query.
const TOP_K: usize = 10;
/// Top-k tie-break seed: the offline evaluator's, so served and offline
/// answers are comparable.
const TIE_SEED: u64 = 0x11A5;
/// Hub-list size for `Global`-policy candidates.
const TOP_DEGREE: usize = 32;

/// The serving configuration a workload fixes.
#[derive(Clone, Debug)]
pub struct ServeSpec {
    pub metrics: &'static [&'static str],
    pub workers: usize,
}

impl ServeSpec {
    fn config(&self) -> ServeConfig {
        ServeConfig {
            metrics: self.metrics.iter().map(|m| m.to_string()).collect(),
            workers: self.workers,
            queue_capacity: 4096,
            cache_shards: 32,
            k: TOP_K,
            seed: TIE_SEED,
            top_degree: TOP_DEGREE,
            promote_limit: 1 << 17,
        }
    }
}

/// A running server.
pub struct Serve {
    server: Arc<Server>,
}

/// A served answer.
#[derive(Clone, Debug)]
pub struct Answer {
    pub version: u64,
    pub hit: bool,
    pub topk: Arc<Vec<Pair>>,
}

/// A published version: number, edge prefix, node count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Published {
    pub version: u64,
    pub prefix: usize,
    pub nodes: usize,
}

/// Server counters the checks read.
#[derive(Clone, Copy, Debug)]
pub struct ServeCounters {
    pub pending_edges: usize,
    pub rejected: u64,
}

/// One ingest event.
enum Event {
    Node(u64),
    Edge(u32, u32, u64),
}

/// Feeds `trace` edges `range` to `ingest` in trace order, registering
/// each node just before the first edge at or after its arrival.
fn replay_events(
    trace: &Trace,
    range: Range<usize>,
    next_node: &mut usize,
    mut ingest: impl FnMut(Event) -> Result<(), String>,
) -> Result<(), String> {
    let arrivals = trace.0.arrivals();
    for e in &trace.0.edges()[range] {
        while *next_node < arrivals.len() && arrivals[*next_node] <= e.t {
            ingest(Event::Node(arrivals[*next_node]))?;
            *next_node += 1;
        }
        ingest(Event::Edge(e.u, e.v, e.t))?;
    }
    Ok(())
}

impl Serve {
    /// `Server::start` (workers spawn and wait for queries).
    pub fn start(spec: &ServeSpec) -> Result<Serve, String> {
        Ok(Serve { server: Server::start(spec.config())? })
    }

    /// Ingests `trace` edges `range` (and the nodes they need);
    /// `next_node` is the first trace node not yet registered.
    pub fn ingest(
        &self,
        next_node: &mut usize,
        trace: &Trace,
        range: Range<usize>,
    ) -> Result<(), String> {
        let server = &self.server;
        replay_events(trace, range, next_node, |event| {
            match event {
                Event::Node(t) => server.ingest_node(t).map(drop),
                Event::Edge(u, v, t) => server.ingest_edge(u, v, t).map(drop),
            }
            .map_err(|e| e.to_string())
        })
    }

    /// Publishes everything ingested.
    pub fn publish(&self) -> Published {
        self.server.publish();
        let current = self.server.current();
        Published {
            version: current.version,
            prefix: current.snapshot.prefix_len(),
            nodes: current.snapshot.node_count(),
        }
    }

    /// One blocking top-k query.
    pub fn query(&self, metric: u32, source: u32) -> Result<Answer, String> {
        self.server
            .query_blocking(metric, source, Duration::from_secs(120))
            .map(|r| Answer { version: r.version, hit: r.cache_hit, topk: r.topk })
            .map_err(|e| e.to_string())
    }

    pub fn counters(&self) -> ServeCounters {
        let s = self.server.stats();
        ServeCounters { pending_edges: s.pending_edges, rejected: s.admission.rejected }
    }

    /// The offline batch answer at the current version: the source's
    /// candidate pairs found by a bounded BFS (plus the degree hubs for
    /// `Global` metrics), scored by the batch engine at one worker and cut
    /// with the same seeded top-k. Shares no code with the serving path's
    /// enumeration or targeted scoring.
    pub fn offline_answer(&self, spec: &ServeSpec, metric: u32, source: u32) -> (u64, Vec<Pair>) {
        let current = self.server.current();
        let snap: &Snapshot = &current.snapshot;
        let m = osn_metrics::metric_by_name(spec.metrics[metric as usize]).expect("served metric");
        let policy = m.candidate_policy();
        let dist = osn_graph::traversal::bfs_distances(snap, source, 3);
        let max_dist = if policy == CandidatePolicy::TwoHop { 2 } else { 3 };
        let mut targets: Vec<u32> = (0..snap.node_count() as u32)
            .filter(|&v| (2..=max_dist).contains(&dist[v as usize]))
            .collect();
        if policy == CandidatePolicy::Global {
            let n = snap.node_count();
            let mut by_degree: Vec<u32> = (0..n as u32).collect();
            by_degree.sort_unstable_by_key(|&u| std::cmp::Reverse(snap.degree(u)));
            let hubs = &by_degree[..TOP_DEGREE.min(n)];
            let unconnected = |v: u32| v != source && dist[v as usize] != 1;
            if hubs.contains(&source) {
                targets = (0..n as u32).filter(|&v| unconnected(v)).collect();
            } else {
                targets.extend(hubs.iter().copied().filter(|&h| unconnected(h)));
            }
        }
        let mut pairs: Vec<Pair> =
            targets.iter().map(|&v| osn_graph::canonical(source, v)).collect();
        pairs.sort_unstable();
        pairs.dedup();
        let scores = exec::score_pairs_t(m.as_ref(), snap, &pairs, 1);
        (current.version, topk::top_k_pairs(&pairs, &scores, TOP_K, TIE_SEED))
    }

    /// Stops the workers and waits for them; counters stay readable.
    pub fn shutdown(&self) {
        self.server.shutdown();
    }
}

/// The replayed costs of one published version.
#[derive(Clone, Debug, Default)]
pub struct ReplayedVersion {
    pub version: u64,
    pub publish_ms: f64,
    pub derive_ms: f64,
    pub fused_ctx_ms: f64,
    pub ppr_sources: u64,
    /// `(metric, source)` → replayed answer and its cost.
    pub answers: BTreeMap<(u32, u32), Replayed>,
}

/// One replayed answer and the time each step took.
#[derive(Clone, Debug, Default)]
pub struct Replayed {
    pub topk: Vec<Pair>,
    pub candidates: usize,
    pub enumerate_ms: f64,
    pub score_ms: f64,
    pub topk_ms: f64,
}

/// Attribution replay of a serving run: a standalone `LiveGraph` is fed
/// the same bootstrap and tail batches, each version is derived as the
/// server derives it, and every `(metric, source)` in `wanted[version]`
/// is answered as a worker answers it (fused context per version,
/// transient solver cache, targeted scoring), one step at a time.
pub fn serve_replay(
    trace: &Trace,
    spec: &ServeSpec,
    batches: &[Range<usize>],
    wanted: &BTreeMap<u64, Vec<(u32, u32)>>,
) -> Result<Vec<ReplayedVersion>, String> {
    let metrics: Vec<Box<dyn Metric>> = spec
        .metrics
        .iter()
        .map(|n| osn_metrics::metric_by_name(n).ok_or_else(|| format!("unknown metric {n}")))
        .collect::<Result<_, _>>()?;
    let mut live = LiveGraph::new();
    let mut next_node = 0;
    let mut out = Vec::with_capacity(batches.len());
    for batch in batches {
        replay_events(trace, batch.clone(), &mut next_node, |event| {
            match event {
                Event::Node(t) => live.ingest_node(t).map(drop),
                Event::Edge(u, v, t) => live.ingest_edge(u, v, t).map(drop),
            }
            .map_err(|e| e.to_string())
        })?;
        let t0 = Instant::now();
        let publication = live.publish();
        let publish_ms = ms_since(t0);
        let t0 = Instant::now();
        let versioned = Versioned::derive(publication.version, publication.snapshot, TOP_DEGREE);
        let derive_ms = ms_since(t0);
        let snap: &Snapshot = &versioned.snapshot;
        let t0 = Instant::now();
        let ctx = FusedCtx::build(snap, &LocalKind::ALL);
        let fused_ctx_ms = ms_since(t0);
        let mut fused = FusedScratch::new(snap.node_count());
        let mut enums = EnumScratch::new(snap.node_count());
        let mut solver = SolverCache::transient();
        let mut replayed = ReplayedVersion {
            version: versioned.version,
            publish_ms,
            derive_ms,
            fused_ctx_ms,
            ..ReplayedVersion::default()
        };
        for &(mi, source) in wanted.get(&versioned.version).into_iter().flatten() {
            if replayed.answers.contains_key(&(mi, source)) {
                continue;
            }
            let m = metrics[mi as usize].as_ref();
            let t0 = Instant::now();
            let pairs = query::candidate_targets(
                snap,
                source,
                m.candidate_policy(),
                &versioned.hubs,
                &mut enums,
            );
            let mut answer = Replayed {
                candidates: pairs.len(),
                enumerate_ms: ms_since(t0),
                ..Replayed::default()
            };
            if !pairs.is_empty() {
                let t0 = Instant::now();
                let scores =
                    exec::score_pairs_targeted(m, snap, &ctx, &mut fused, &pairs, &mut solver);
                answer.score_ms = ms_since(t0);
                let t0 = Instant::now();
                answer.topk = topk::top_k_pairs(&pairs, &scores, TOP_K, TIE_SEED);
                answer.topk_ms = ms_since(t0);
            }
            replayed.answers.insert((mi, source), answer);
        }
        replayed.ppr_sources = solver.stats.ppr_sources;
        out.push(replayed);
    }
    Ok(out)
}
