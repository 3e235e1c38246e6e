//! `serve-local` and `serve-walk`: per-user top-k serving while the trace
//! tail is ingested and published under the readers.
//!
//! After a bootstrap of 70% of the trace, closed-loop clients each issue a
//! fixed Zipfian query stream; the last client also ingests and publishes
//! the next tail batch every `publish_every` of its own queries. The tail
//! is cut into one batch per publish, so the whole trace is served by the
//! end of the stream.
//! `serve-local` serves the fused local metrics with two clients and two
//! workers, so admission, the result cache and per-version re-pins are
//! busy and no solver runs. `serve-walk` serves the walk and path metrics
//! with one client and one worker, so cold solves dominate each miss and
//! every answer lands at a deterministic version.

use crate::inputs::{self, derive, input_seed, Query, TRACED_INPUT};
use crate::layers::{self, Answer, Pair, Published, ServeSpec};
use crate::report::{percentile, Outcome, Pct};
use crate::spans::{self, Recorder, Span};
use crate::{heap, repeat_setup, timed_rounds, RunMode, Timed};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Range;
use std::time::Instant;

pub struct Params {
    pub scale: f64,
    pub days: u32,
    pub metrics: &'static [&'static str],
    pub workers: usize,
    pub clients: usize,
    pub queries_per_client: usize,
    /// The publishing client's queries between two publishes.
    pub publish_every: usize,
    /// Distinct inputs (trace and query streams) a run measures.
    pub inputs: usize,
    /// The tail percentile of queries, and of the traced rounds' misses:
    /// the highest one their counts support with room to spare.
    pub tail: Pct,
}

pub const LOCAL: Params = Params {
    scale: 2.0,
    days: 120,
    metrics: &["CN", "JC", "AA", "RA", "PA", "BCN"],
    workers: 2,
    clients: 2,
    queries_per_client: 750,
    publish_every: 125,
    inputs: 4,
    tail: Pct::P99,
};

pub const WALK: Params = Params {
    scale: 0.06,
    days: 60,
    metrics: &["LP", "LRW", "PPR"],
    workers: 1,
    clients: 1,
    queries_per_client: 50,
    publish_every: 10,
    inputs: 4,
    tail: Pct::P95,
};

pub const LOCAL_SMOKE: Params =
    Params { scale: 0.1, days: 40, queries_per_client: 500, publish_every: 20, inputs: 1, ..LOCAL };
pub const WALK_SMOKE: Params = Params { days: 30, inputs: 4, ..WALK };

/// The first 70% of the trace's edges, ingested before serving starts.
fn bootstrap_edges(trace: &layers::Trace) -> usize {
    trace.edge_count() * 7 / 10
}
/// Zipfian probes per metric in the final parity check.
const PROBES: usize = 12;
/// Zipfian probes per metric the accuracy gate judges.
const ACCURACY_PROBES: usize = 32;

fn spec(p: &Params) -> ServeSpec {
    ServeSpec { metrics: p.metrics, workers: p.workers }
}

/// One answered query.
struct Record {
    query: Query,
    latency_ms: f64,
    answer: Answer,
}

/// One client's share of a round.
#[derive(Default)]
struct ClientOut {
    records: Vec<Record>,
    failed: usize,
    batches: Vec<Range<usize>>,
    published: Vec<Published>,
    ingest_ms: Vec<f64>,
    publish_ms: Vec<f64>,
    spans: Vec<Span>,
}

struct Round {
    trace: layers::Trace,
    serve: layers::Serve,
    /// The timed phase; client spans are timed from its start.
    timed: Timed,
    /// Node ids queries are drawn from: the bootstrapped users.
    users: usize,
    /// Bootstrap first, then every ingested tail batch, in order.
    batches: Vec<Range<usize>>,
    published: Vec<Published>,
    records: Vec<Record>,
    failed: usize,
    ingest_ms: Vec<f64>,
    publish_ms: Vec<f64>,
    spans: Vec<Span>,
}

impl Round {
    fn versions_observed(&self) -> usize {
        self.records.iter().map(|r| r.answer.version).collect::<BTreeSet<_>>().len()
    }
}

fn round(p: &Params, seed: u64, traced: bool) -> Result<Round, String> {
    let spec = spec(p);
    let heap = heap::Window::open();
    let ((trace, serve, next_node, boot_published), setups) = repeat_setup(|| {
        let trace = layers::generate(p.scale, p.days, seed);
        let serve = layers::Serve::start(&spec)?;
        let mut next_node = 0;
        serve.ingest(&mut next_node, &trace, 0..bootstrap_edges(&trace))?;
        let published = serve.publish();
        Ok((trace, serve, next_node, published))
    })?;
    let (boot, total) = (bootstrap_edges(&trace), trace.edge_count());

    let schedule = inputs::tail_batches(boot, total, p.queries_per_client / p.publish_every);
    let users = boot_published.nodes;
    let origin = Instant::now();
    let clients: Vec<ClientOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..p.clients)
            .map(|c| {
                let (serve, trace, schedule) = (&serve, &trace, &schedule);
                let mut next_node = (c + 1 == p.clients).then_some(next_node);
                scope.spawn(move || -> Result<ClientOut, String> {
                    let rec = if traced { Recorder::new(origin) } else { Recorder::off() };
                    let stream = inputs::query_stream(
                        seed,
                        c as u64,
                        p.queries_per_client,
                        users,
                        p.metrics.len(),
                    );
                    let mut out = ClientOut::default();
                    for (i, &query) in stream.iter().enumerate() {
                        let t0 = Instant::now();
                        let result = {
                            let _s = rec.span("serve.query");
                            serve.query(query.metric, query.source)
                        };
                        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
                        match result {
                            Ok(answer) => out.records.push(Record { query, latency_ms, answer }),
                            Err(_) => out.failed += 1,
                        }
                        let Some(cursor) = next_node.as_mut() else { continue };
                        let batch = out.batches.len();
                        if (i + 1) % p.publish_every != 0 || batch >= schedule.len() {
                            continue;
                        }
                        let t0 = Instant::now();
                        {
                            let _s = rec.span("serve.ingest");
                            serve.ingest(cursor, trace, schedule[batch].clone())?;
                        }
                        out.ingest_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                        let t0 = Instant::now();
                        let published = {
                            let _s = rec.span("serve.publish");
                            serve.publish()
                        };
                        out.publish_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                        out.batches.push(schedule[batch].clone());
                        out.published.push(published);
                    }
                    out.spans = rec.into_spans();
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Result<_, _>>()
    })?;
    let run_s = origin.elapsed().as_secs_f64();

    let mut r = Round {
        trace,
        serve,
        timed: Timed { setups, run_s, peak_mb: heap.peak_mb() },
        users,
        batches: Vec::new(),
        published: vec![boot_published],
        records: Vec::new(),
        failed: 0,
        ingest_ms: Vec::new(),
        publish_ms: Vec::new(),
        spans: Vec::new(),
    };
    r.batches.push(0..boot);
    let mut span_lists = Vec::new();
    for c in clients {
        r.records.extend(c.records);
        r.failed += c.failed;
        r.batches.extend(c.batches);
        r.published.extend(c.published);
        r.ingest_ms.extend(c.ingest_ms);
        r.publish_ms.extend(c.publish_ms);
        span_lists.push(c.spans);
    }
    r.spans = spans::merge(span_lists);
    Ok(r)
}

/// The edges that arrive after each published prefix: the ground truth a
/// served top-k is judged against.
struct Future {
    index: HashMap<Pair, usize>,
    /// Per node: `(edge index, other endpoint)`, by edge index.
    incident: Vec<Vec<(usize, u32)>>,
}

impl Future {
    fn new(trace: &layers::Trace) -> Self {
        let pairs = trace.edge_pairs();
        let mut incident = vec![Vec::new(); trace.node_count()];
        for (i, &(u, v)) in pairs.iter().enumerate() {
            incident[u as usize].push((i, v));
            incident[v as usize].push((i, u));
        }
        Future { index: pairs.into_iter().enumerate().map(|(i, p)| (p, i)).collect(), incident }
    }

    /// Hits of `topk` among the edges after `at`, and the hits a uniform
    /// random pick of as many of `source`'s unconnected nodes expects.
    fn judge(&self, source: u32, topk: &[Pair], at: Published) -> (usize, f64) {
        let hits =
            topk.iter().filter(|p| self.index.get(p).is_some_and(|&i| i >= at.prefix)).count();
        let edges = &self.incident[source as usize];
        let degree = edges.partition_point(|&(i, _)| i < at.prefix);
        let future = edges[degree..].iter().filter(|&&(_, w)| (w as usize) < at.nodes).count();
        let universe = at.nodes.saturating_sub(1 + degree);
        let expected =
            if universe == 0 { 0.0 } else { topk.len() as f64 * future as f64 / universe as f64 };
        (hits, expected)
    }
}

/// One answer to judge: metric, source, top-k and the version it is
/// judged at.
type Judged<'a> = (u32, u32, &'a [Pair], Published);

/// Mean over metrics of the answers' accuracy ratio: hits among later
/// edges over the hits a random pick expects, pooled per metric.
fn accuracy<'a>(answers: impl Iterator<Item = Judged<'a>>, future: &Future, metrics: usize) -> f64 {
    let mut hits = vec![0usize; metrics];
    let mut expected = vec![0.0; metrics];
    for (metric, source, topk, at) in answers {
        let (h, e) = future.judge(source, topk, at);
        hits[metric as usize] += h;
        expected[metric as usize] += e;
    }
    let ratios: Vec<f64> =
        hits.iter().zip(&expected).filter(|(_, &e)| e > 0.0).map(|(&h, &e)| h as f64 / e).collect();
    ratios.iter().sum::<f64>() / ratios.len() as f64
}

/// The accuracy of the answers a round served, each at its version.
fn served_accuracy(r: &Round, future: &Future, metrics: usize) -> f64 {
    let at: BTreeMap<u64, Published> = r.published.iter().map(|p| (p.version, *p)).collect();
    let answers = r.records.iter().map(|rec| {
        (rec.query.metric, rec.query.source, &rec.answer.topk[..], at[&rec.answer.version])
    });
    accuracy(answers, future, metrics)
}

/// The accuracy gate: the offline answers of every metric for Zipfian
/// probes at the reference input's bootstrap version, judged against the
/// edges that arrive later. With two clients the version a served answer
/// lands at varies with timing; these answers are fixed, so the gate is
/// one number per build.
fn reference_accuracy(p: &Params, seed: u64) -> Result<f64, String> {
    let (input, spec) = (input_seed(seed, 0), spec(p));
    let trace = layers::generate(p.scale, p.days, input);
    let serve = layers::Serve::start(&spec)?;
    serve.ingest(&mut 0, &trace, 0..bootstrap_edges(&trace))?;
    let at = serve.publish();
    let probes = inputs::probes(input, ACCURACY_PROBES, at.nodes);
    let answers: Vec<(u32, u32, Vec<Pair>)> = (0..p.metrics.len() as u32)
        .flat_map(|m| probes.iter().map(move |&source| (m, source)))
        .map(|(m, source)| (m, source, serve.offline_answer(&spec, m, source).1))
        .collect();
    serve.shutdown();
    let judged = answers.iter().map(|(m, source, topk)| (*m, *source, &topk[..], at));
    Ok(accuracy(judged, &Future::new(&trace), p.metrics.len()))
}

/// Per-round checks: answers span several versions, and the whole trace
/// was ingested and published.
fn check_round(out: &mut Outcome, r: &Round) {
    let versions = r.versions_observed();
    out.check(versions >= 2, || format!("answers span {versions} version(s); expected at least 2"));
    let (ingested, total) = (r.batches.last().map_or(0, |b| b.end), r.trace.edge_count());
    out.check(ingested == total, || format!("{ingested} of {total} trace edges ingested"));
    let pending = r.serve.counters().pending_edges;
    out.check(pending == 0, || format!("{pending} ingested edges left unpublished"));
}

/// Zipfian probes of every metric at the final version must equal the
/// offline batch answer bit for bit. The final version holds the whole
/// trace, so the probe answers are deterministic and enter the digest.
fn check_probes(out: &mut Outcome, p: &Params, seed: u64, r: &Round) {
    let spec = spec(p);
    for (mi, name) in p.metrics.iter().enumerate() {
        for source in inputs::probes(seed, PROBES, r.users) {
            let served = r.serve.query(mi as u32, source);
            let (version, offline) = r.serve.offline_answer(&spec, mi as u32, source);
            out.check(
                served.as_ref().is_ok_and(|a| a.version == version && *a.topk == offline),
                || format!("{name} probe {source}: served {served:?} != offline {offline:?} at v{version}"),
            );
            out.digest.add(version);
            offline.iter().for_each(|&(u, v)| out.digest.add(u64::from(u) << 32 | u64::from(v)));
        }
    }
}

/// What a finished timed round leaves behind; its server and trace are
/// dropped before the next round starts.
struct Summary {
    timed: Timed,
    latencies: Vec<f64>,
    publish_ms: Vec<f64>,
}

/// A round's checks and counts; the first round also runs the probes.
fn finish_round(out: &mut Outcome, p: &Params, seed: u64, r: &Round, probe: bool) {
    check_round(out, r);
    if probe {
        check_probes(out, p, derive(seed, 0), r);
    }
    r.serve.shutdown();
    out.attempted += r.records.len() + r.failed;
    out.failed += r.failed;
}

pub fn run(p: &Params, seed: u64, mode: RunMode) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    if !mode.traced {
        let mut probed = false;
        let measured = timed_rounds(
            p.inputs,
            mode.seconds,
            |i| {
                let r = round(p, input_seed(seed, i), false)?;
                finish_round(&mut out, p, seed, &r, !std::mem::replace(&mut probed, true));
                Ok(Summary {
                    latencies: r.records.iter().map(|q| q.latency_ms).collect(),
                    publish_ms: r.publish_ms,
                    timed: r.timed,
                })
            },
            |s| &s.timed,
        )?;
        measured.record(&mut out);
        out.set_accuracy(reference_accuracy(p, seed)?);
        let latencies = measured.best_per_input(|r| &r.latencies);
        let publishes = measured.best_per_input(|r| &r.publish_ms);
        out.set_percentile("request_p50_ms", &latencies, Pct::P50);
        out.set_percentile("request_tail_ms", &latencies, p.tail);
        out.set_percentile("advance_p50_ms", &publishes, Pct::P50);
        return Ok(out);
    }

    // A warm-up round (the process's first pays one-off page faults), then
    // per input an untraced reference and the traced round.
    let warm = round(p, input_seed(seed, TRACED_INPUT), false)?;
    finish_round(&mut out, p, seed, &warm, true);
    drop(warm);
    let mut attribution = Attribution::default();
    let planned = traced_rounds(p);
    // After the planned inputs, more until the cache hits, which a short
    // stream holds few of, support a median as well; at most four times
    // as many, after which the guard refuses the percentile.
    let mut i = 0;
    while i < planned || (attribution.hit_ms.len() < Pct::P50.min_samples() && i < 4 * planned) {
        let input = input_seed(seed, TRACED_INPUT + i);
        i += 1;
        let untraced = round(p, input, false)?;
        finish_round(&mut out, p, seed, &untraced, false);
        let r = round(p, input, true)?;
        finish_round(&mut out, p, seed, &r, false);
        let future = Future::new(&r.trace);
        let accuracy = served_accuracy(&r, &future, p.metrics.len());
        // With one client every answer lands at a fixed version, so the
        // served accuracy of one input must not change between runs.
        if p.clients == 1 {
            let before = served_accuracy(&untraced, &future, p.metrics.len());
            out.check(accuracy == before, || {
                format!("served accuracy {accuracy} differs from the untraced round's {before}")
            });
        }
        attribution.accuracy.push(accuracy);
        attribution.add(&mut out, p, &r, untraced.timed.run_s)?;
    }
    attribution.report(&mut out, p);
    Ok(out)
}

/// Traced rounds a run attributes, one input each: enough that their
/// answers hold twice the samples the tail percentile needs, since cache
/// hits and repeated answers thin the replayed ones, and that their
/// publishes support a median.
fn traced_rounds(p: &Params) -> usize {
    let for_answers = (2 * p.tail.min_samples()).div_ceil(p.clients * p.queries_per_client);
    let for_publishes = Pct::P50.min_samples().div_ceil(p.queries_per_client / p.publish_every);
    for_answers.max(for_publishes)
}

/// The per-layer samples of a traced run, pooled over its traced rounds:
/// client-side spans, then the attribution replay of every served answer.
#[derive(Default)]
struct Attribution {
    traced_s: f64,
    untraced_s: f64,
    covered_s: f64,
    accuracy: Vec<f64>,
    records: usize,
    versions: Vec<f64>,
    rejected: u64,
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    wait_ms: Vec<f64>,
    ingest_ms: Vec<f64>,
    publish_ms: Vec<f64>,
    live_ms: Vec<f64>,
    derive_ms: Vec<f64>,
    fused_ctx_ms: Vec<f64>,
    enumerate_ms: Vec<f64>,
    candidates: Vec<f64>,
    score_ms: Vec<f64>,
    topk_ms: Vec<f64>,
    answers: usize,
    ppr_sources: u64,
}

impl Attribution {
    /// Replays every answer the traced round `r` served, checks each
    /// against its replay, and adds the round's samples.
    fn add(
        &mut self,
        out: &mut Outcome,
        p: &Params,
        r: &Round,
        untraced_run_s: f64,
    ) -> Result<(), String> {
        let mut wanted: BTreeMap<u64, Vec<(u32, u32)>> = BTreeMap::new();
        for rec in &r.records {
            wanted
                .entry(rec.answer.version)
                .or_default()
                .push((rec.query.metric, rec.query.source));
        }
        let replay = layers::serve_replay(&r.trace, &spec(p), &r.batches, &wanted)?;
        let by_version: BTreeMap<u64, &layers::ReplayedVersion> =
            replay.iter().map(|v| (v.version, v)).collect();
        for rec in &r.records {
            let q = rec.query;
            let replayed = by_version
                .get(&rec.answer.version)
                .and_then(|v| v.answers.get(&(q.metric, q.source)));
            let same = replayed.is_some_and(|a| a.topk == *rec.answer.topk);
            out.check(same, || {
                format!(
                    "served answer for metric {} source {} at v{} differs from its replay",
                    q.metric, q.source, rec.answer.version
                )
            });
            if rec.answer.hit {
                self.hit_ms.push(rec.latency_ms);
            } else {
                self.miss_ms.push(rec.latency_ms);
                if let Some(a) = replayed {
                    self.wait_ms.push(rec.latency_ms - (a.enumerate_ms + a.score_ms + a.topk_ms));
                }
            }
        }
        // Tail publishes only: the bootstrap version is part of set-up.
        for v in &replay[1..] {
            self.live_ms.push(v.publish_ms);
            self.derive_ms.push(v.derive_ms);
            self.fused_ctx_ms.push(v.fused_ctx_ms);
        }
        for a in replay.iter().flat_map(|v| v.answers.values()) {
            self.answers += 1;
            self.enumerate_ms.push(a.enumerate_ms);
            self.candidates.push(a.candidates as f64);
            if a.candidates > 0 {
                self.score_ms.push(a.score_ms);
                self.topk_ms.push(a.topk_ms);
            }
        }
        self.ppr_sources += replay.iter().map(|v| v.ppr_sources).sum::<u64>();
        self.traced_s += r.timed.run_s;
        self.untraced_s += untraced_run_s;
        self.covered_s += spans::covered_frac(&r.spans, 0.0, r.timed.run_s) * r.timed.run_s;
        self.records += r.records.len();
        self.versions.push(r.versions_observed() as f64);
        self.rejected += r.serve.counters().rejected;
        self.ingest_ms.extend_from_slice(&r.ingest_ms);
        self.publish_ms.extend_from_slice(&r.publish_ms);
        Ok(())
    }

    fn report(&self, out: &mut Outcome, p: &Params) {
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        out.set("accuracy_ratio_mean", mean(&self.accuracy));
        out.set("trace.overhead_frac", self.traced_s / self.untraced_s - 1.0);
        out.set("trace.covered_frac", self.covered_s / self.traced_s);
        out.set_layer_percentile("serve.query.hit_ms_p50", &self.hit_ms, Pct::P50);
        out.set_layer_percentile("serve.query.miss_ms_p50", &self.miss_ms, Pct::P50);
        out.set_layer_percentile("serve.query.miss_ms_tail", &self.miss_ms, p.tail);
        out.set_layer_percentile("serve.query.wait_ms_p50", &self.wait_ms, Pct::P50);
        out.set_layer_percentile("serve.query.enumerate_ms_p50", &self.enumerate_ms, Pct::P50);
        out.set_layer_percentile("serve.query.candidates_per_miss_p50", &self.candidates, Pct::P50);
        out.set_layer_percentile("serve.query.score_ms_p50", &self.score_ms, Pct::P50);
        out.set_layer_percentile("serve.query.score_ms_tail", &self.score_ms, p.tail);
        out.set_layer_percentile("serve.query.topk_ms_p50", &self.topk_ms, Pct::P50);
        out.set("serve.cache.hit_rate", self.hit_ms.len() as f64 / self.records as f64);
        out.set("serve.admission.rejected", self.rejected as f64);
        out.set_layer_percentile("serve.ingest_ms_p50", &self.ingest_ms, Pct::P50);
        out.set("serve.versions_observed", mean(&self.versions));
        let live = out.set_layer_percentile("graph.live.publish_ms_p50", &self.live_ms, Pct::P50);
        let derive =
            out.set_layer_percentile("serve.store.derive_ms_p50", &self.derive_ms, Pct::P50);
        match (percentile(&self.publish_ms, Pct::P50), live, derive) {
            (Ok(client), Some(live), Some(derive)) => {
                out.set("serve.publish.other_ms_p50", client - live - derive)
            }
            _ => out
                .refused
                .push("serve.publish.other_ms_p50: a publish percentile was refused".into()),
        }
        out.set_layer_percentile("serve.repin.fused_ctx_ms_p50", &self.fused_ctx_ms, Pct::P50);
        out.set("solver.ppr_sources_per_miss", self.ppr_sources as f64 / self.answers as f64);
    }
}
