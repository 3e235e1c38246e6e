//! Scale checks. Each row of [`SCENARIOS`] checks a fast path against its
//! reference at scale, untimed, and only then times both. A row's name is
//! its whole interface: `--{name}-only` selects it, and it writes
//! `BENCH_{name}.json` stamped `"bench": "{name}"`, dashes becoming
//! underscores.
//!
//! | row | what it checks, then times |
//! |---|---|
//! | `parallel-scaling` | Candidate enumeration, scoring of every metric and fused top-k on renren-like at each worker count. |
//! | `snapshot-build` | Incremental snapshot sweeps against from-scratch builds on every preset, full-CSR digests asserted equal. |
//! | `fused-scoring` | The fused local-metric kernel against the per-pair path, bit for bit. |
//! | `global-scoring` | Batched SP/LP/LRW/PPR/Katz against their `oracles::contract` references, then a worker sweep. |
//! | `factor-scoring` | The blocked Rescal fit and batched scoring against the dense reference on youtube-like. |
//! | `e2e-sweep` | The framework sweep: per-pair baseline vs batched routing vs routing with the Table 7 filter pushed into enumeration. |
//! | `large-trace` | Streaming generation, windowed cache reads and sampled evaluation against full materialization, with peak RSS. |
//! | `serving` | linklens-serve: a served-vs-offline parity gate, then a Zipfian query mix under tail ingest. |
//!
//! ```text
//! scalecheck [SCALE] [DAYS] [--{row}-only]... [--rss-budget-mb=MB] [--paranoid]
//! ```
//!
//! SCALE and DAYS default to 0.35 and 90. With no `--{row}-only` flag every
//! row runs, in table order. `--rss-budget-mb` bounds the large-trace
//! row's streaming peak RSS. `--paranoid` turns the runtime invariant
//! audits on in this release binary: every incremental snapshot advance
//! re-validates the full CSR and the scoring engine checks every metric's
//! score contract. Any other argument prints usage and exits with status 2.

#![forbid(unsafe_code)]

use linklens_bench::bench_merge;
use linklens_bench::oracles;
use osn_graph::sequence::SnapshotSequence;
use osn_graph::snapshot::Snapshot;
use osn_metrics::candidates::CandidateSet;
use osn_metrics::exec;
use osn_metrics::solver::SolverCache;
use osn_metrics::traits::{CandidatePolicy, Metric};
use osn_trace::presets::TraceConfig;
use osn_trace::GrowthTrace;
use serde_json::{json, Value};
use std::time::Instant;

/// One scale check: its name and the function that fills its report.
struct Scenario {
    name: &'static str,
    run: fn(&Ctx, &mut Report),
}

/// Every scale check, in run order.
const SCENARIOS: [Scenario; 8] = [
    Scenario { name: "parallel-scaling", run: parallel_scaling },
    Scenario { name: "snapshot-build", run: snapshot_build },
    Scenario { name: "fused-scoring", run: fused_scoring },
    Scenario { name: "global-scoring", run: global_scoring },
    Scenario { name: "factor-scoring", run: factor_scoring },
    Scenario { name: "e2e-sweep", run: e2e_sweep },
    Scenario { name: "large-trace", run: large_trace },
    Scenario { name: "serving", run: serving },
];

impl Scenario {
    fn flag(&self) -> String {
        linklens_bench::row_flag(self.name)
    }

    fn bench(&self) -> String {
        self.name.replace('-', "_")
    }

    fn file(&self) -> String {
        format!("BENCH_{}.json", self.bench())
    }

    /// Runs the row under the shared report header and writes its file.
    fn execute(&self, ctx: &Ctx) {
        println!("== {} ==", self.name);
        let mut report = Report::default();
        report.set("bench", self.bench());
        report.set("scale", ctx.scale);
        report.set("days", ctx.days);
        report.set("host_cores", ctx.host.effective);
        report.set("host", ctx.host.json());
        (self.run)(ctx, &mut report);
        bench_merge::write_report(&self.file(), &Value::Object(report.fields));
    }
}

/// What every row reads.
struct Ctx {
    scale: f64,
    days: u32,
    host: HostParallelism,
    /// Upper bound on the large-trace row's streaming peak RSS.
    rss_budget_mb: Option<f64>,
}

/// A row's JSON report. Each value is printed once, on one line, when it
/// is recorded.
#[derive(Default)]
struct Report {
    fields: Vec<(String, Value)>,
}

impl Report {
    fn slot(&mut self, key: &str) -> &mut Value {
        let at = match self.fields.iter().position(|(k, _)| k == key) {
            Some(at) => at,
            None => {
                self.fields.push((key.to_string(), Value::Null));
                self.fields.len() - 1
            }
        };
        &mut self.fields[at].1
    }

    /// Sets `key` to `value`.
    fn set(&mut self, key: &str, value: impl serde::Serialize) {
        let value = serde_json::to_value(&value);
        println!("{key}: {}", one_line(&value));
        *self.slot(key) = value;
    }

    /// Appends `value` to the list under `key`.
    fn row(&mut self, key: &str, value: Value) {
        let slot = self.slot(key);
        if !matches!(slot, Value::Array(_)) {
            *slot = Value::Array(Vec::new());
        }
        if let Value::Array(items) = slot {
            println!("{key}[{}]: {}", items.len(), one_line(&value));
            items.push(value);
        }
    }
}

fn one_line(value: &Value) -> String {
    serde_json::to_string(value).expect("serialize report value")
}

/// The parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    scale: f64,
    days: u32,
    paranoid: bool,
    rss_budget_mb: Option<f64>,
    /// Indices into [`SCENARIOS`] of the selected rows, ascending; empty
    /// selects every row.
    only: Vec<usize>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed =
        Args { scale: 0.35, days: 90, paranoid: false, rss_budget_mb: None, only: Vec::new() };
    let mut positional = 0;
    let names: Vec<&str> = SCENARIOS.iter().map(|s| s.name).collect();
    parsed.only = linklens_bench::select_rows(args, &names, |arg, _| {
        if arg == "--paranoid" {
            parsed.paranoid = true;
        } else if let Some(mb) = arg.strip_prefix("--rss-budget-mb=") {
            let mb = mb.parse().map_err(|_| format!("bad --rss-budget-mb value `{mb}`"))?;
            parsed.rss_budget_mb = Some(mb);
        } else if arg.starts_with("--") {
            return Err(format!("unknown flag `{arg}`"));
        } else {
            match positional {
                0 => parsed.scale = arg.parse().map_err(|_| format!("bad SCALE `{arg}`"))?,
                1 => parsed.days = arg.parse().map_err(|_| format!("bad DAYS `{arg}`"))?,
                _ => return Err(format!("unexpected argument `{arg}`")),
            }
            positional += 1;
        }
        Ok(())
    })?;
    Ok(parsed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&args).unwrap_or_else(|e| {
        let flags: Vec<String> = SCENARIOS.iter().map(Scenario::flag).collect();
        eprintln!(
            "error: {e}\nusage: scalecheck [SCALE] [DAYS] [{}]... [--rss-budget-mb=MB] [--paranoid]",
            flags.join(" | ")
        );
        std::process::exit(2);
    });
    if args.paranoid {
        osn_graph::audit::set_paranoid(true);
        println!("paranoid mode: CSR + score-contract audits enabled");
    }
    let ctx = Ctx {
        scale: args.scale,
        days: args.days,
        host: detect_host(),
        rss_budget_mb: args.rss_budget_mb,
    };
    for (i, scenario) in SCENARIOS.iter().enumerate() {
        if args.only.is_empty() || args.only.contains(&i) {
            scenario.execute(&ctx);
        }
    }
}

/// Times one stage, returning (seconds, result).
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

fn rate(pairs: usize, secs: f64) -> f64 {
    if secs > 0.0 {
        pairs as f64 / secs
    } else {
        f64::INFINITY
    }
}

/// Detected host parallelism, from every signal the container exposes.
///
/// `available_parallelism` alone under-reports inside containers: with a
/// restrictive affinity mask or an unreadable cgroup it returns 1 even
/// while the benchmark legitimately sweeps 1/2/4 workers — and the old
/// report then recorded `host_cores: 1` against multi-worker rows. The
/// benchmarks now record each raw signal plus the derived effective
/// count, sweep the fixed {1, 2, 4} ladder regardless, and annotate
/// oversubscribed rows instead of silently clamping or silently lying.
struct HostParallelism {
    /// `std::thread::available_parallelism()` (affinity/cgroup aware on
    /// glibc, but falls back to 1 when it cannot tell).
    available: usize,
    /// `processor` entries in `/proc/cpuinfo` (the hardware ceiling;
    /// blind to cgroup quotas).
    cpuinfo: Option<usize>,
    /// cgroup v2 `cpu.max` quota ÷ period (fractional CPUs possible).
    cgroup_cpus: Option<f64>,
    /// Best estimate of usable cores: the hardware ceiling capped by the
    /// cgroup quota, never below 1.
    effective: usize,
}

fn detect_host() -> HostParallelism {
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .filter(|&c| c > 0);
    let cgroup_cpus = std::fs::read_to_string("/sys/fs/cgroup/cpu.max").ok().and_then(|s| {
        let mut parts = s.split_whitespace();
        let quota: f64 = parts.next()?.parse().ok()?; // "max" (no quota) fails the parse
        let period: f64 = parts.next()?.parse().ok()?;
        (period > 0.0 && quota > 0.0).then_some(quota / period)
    });
    let hardware = cpuinfo.unwrap_or(available).max(available);
    let effective = cgroup_cpus.map_or(hardware, |q| (q.ceil() as usize).min(hardware)).max(1);
    HostParallelism { available, cpuinfo, cgroup_cpus, effective }
}

impl HostParallelism {
    /// The detection detail every bench report embeds.
    fn json(&self) -> serde_json::Value {
        serde_json::json!({
            "available_parallelism": self.available,
            "cpuinfo_processors": self.cpuinfo,
            "cgroup_cpus": self.cgroup_cpus,
            "effective": self.effective,
        })
    }
}

/// The worker counts a sweep probes: the fixed {1, 2, 4} ladder plus the
/// effective host count. Oversubscribed settings (workers > effective
/// cores) still run — their rows carry an `oversubscribed` annotation so
/// a contention-bound number is never mistaken for a scaling number.
fn sweep_thread_counts(host: &HostParallelism) -> Vec<usize> {
    let mut counts = vec![1usize, 2, 4];
    if !counts.contains(&host.effective) {
        counts.push(host.effective);
    }
    counts.sort_unstable();
    counts
}

/// Runs `f` at each worker count of [`sweep_thread_counts`] and records the
/// object it returns under `key`, behind `threads` and `oversubscribed`.
fn thread_sweep(ctx: &Ctx, report: &mut Report, key: &str, mut f: impl FnMut(usize) -> Value) {
    for t in sweep_thread_counts(&ctx.host) {
        let mut row = vec![
            ("threads".to_string(), json!(t)),
            ("oversubscribed".to_string(), json!(t > ctx.host.effective)),
        ];
        if let Value::Object(fields) = f(t) {
            row.extend(fields);
        }
        report.row(key, Value::Object(row));
    }
}

/// The renren-like trace at the run's scale and length (seed 42).
fn renren_trace(ctx: &Ctx) -> GrowthTrace {
    TraceConfig::renren_like().scaled(ctx.scale).with_days(ctx.days).generate(42)
}

/// Snapshot 9 of the 12-snapshot sequence over `trace`, the one the
/// single-snapshot rows score.
fn fixture(trace: &GrowthTrace) -> Snapshot {
    SnapshotSequence::with_count(trace, 12).snapshot(9)
}

/// splitmix64 step — the deterministic stream the pair sampler, every
/// serving driver thread and the serving probe set derive from.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic uniform canonical-pair sample for scoring-throughput
/// stages whose snapshots are too supernode-heavy for distance-bounded
/// enumeration to terminate in bench time.
fn sample_pairs(n: usize, budget: usize, seed: u64) -> Vec<(u32, u32)> {
    let mut state = seed;
    let mut pairs = Vec::with_capacity(budget);
    while pairs.len() < budget {
        let u = (splitmix64(&mut state) % n.max(2) as u64) as u32;
        let v = (splitmix64(&mut state) % n.max(2) as u64) as u32;
        if u != v {
            pairs.push(osn_graph::canonical(u, v));
        }
    }
    pairs
}

/// Zipfian rank in `[0, n)` by inverse CDF: `floor(exp(U(0, ln n)))`
/// lands on rank r with probability ∝ 1/r — low node ids are the
/// popular users a serving query mix concentrates on.
fn zipf_rank(state: &mut u64, n: usize) -> usize {
    let u = (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64;
    let r = (u * (n as f64).ln()).exp() as usize;
    r.min(n - 1)
}

/// Order-sensitive digest of a snapshot's full CSR content, so the
/// equality checks cover every array, not just summary counts.
fn snapshot_digest(acc: u64, snap: &Snapshot) -> u64 {
    let mut h = acc ^ 0xCBF2_9CE4_8422_2325;
    let mut mix = |x: u64| {
        h = (h ^ x).wrapping_mul(0x0000_0100_0000_01B3);
    };
    mix(snap.node_count() as u64);
    mix(snap.time());
    for u in 0..snap.node_count() as u32 {
        for (&v, &t) in snap.neighbors(u).iter().zip(snap.neighbor_times(u)) {
            mix(v as u64);
            mix(t);
        }
    }
    h
}

/// Worker-count sweep on the renren-like preset (the densest candidate
/// sets): per-stage pairs/sec at each probed worker count.
fn parallel_scaling(ctx: &Ctx, report: &mut Report) {
    let trace = renren_trace(ctx);
    let snap = fixture(&trace);
    let metrics = osn_metrics::all_metrics();
    let refs: Vec<&dyn Metric> = metrics.iter().map(|m| m.as_ref()).collect();
    report.set("network", "renren-like");
    report.set("nodes", snap.node_count());
    report.set("edges", snap.edge_count());
    report.set("metrics", refs.len());
    report.set("note", "pairs/sec; score and topk rates count candidate_pairs x metrics; rows with oversubscribed=true time contention, not scaling");

    let mut cands_len = 0usize;
    thread_sweep(ctx, report, "sweep", |t| {
        // Stage 1: candidate enumeration (distance ≤ 3 scan, the loosest
        // distance-bounded policy).
        let (enum_secs, pairs) = timed(|| osn_graph::traversal::within3_pairs(&snap, None, t));
        let cands = CandidateSet::from_pairs(pairs, CandidatePolicy::ThreeHop);
        cands_len = cands.len();
        let scored_pairs = cands.len() * refs.len();

        // Stage 2: chunked scoring of every metric over the shared slice.
        let (score_secs, _cols) = timed(|| {
            let mut cache = SolverCache::transient();
            exec::score_matrix_cached_t(&refs, &snap, cands.pairs(), t, &mut cache)
        });

        // Stage 3: fused scoring + streaming top-k (the prediction path —
        // per-chunk heaps merged at the end, never materializing scores).
        let k = (cands.len() / 100).max(10);
        let (topk_secs, _preds) = timed(|| {
            let mut cache = SolverCache::transient();
            exec::predict_top_k_many_cached_t(&refs, &snap, &cands, k, 0x11A5, t, &mut cache)
        });
        json!({
            "enumerate_secs": enum_secs,
            "enumerate_pairs_per_sec": rate(cands.len(), enum_secs),
            "score_secs": score_secs,
            "score_pairs_per_sec": rate(scored_pairs, score_secs),
            "topk_secs": topk_secs,
            "topk_pairs_per_sec": rate(scored_pairs, topk_secs),
        })
    });
    report.set("candidate_pairs", cands_len);
}

/// From-scratch vs incremental full-sequence sweeps per preset. An untimed
/// verification pass first digests every snapshot on both paths and
/// asserts the digests match (the property tests assert bit-identity,
/// this asserts it at scale); the timed passes then measure construction
/// alone, so the numbers are not diluted by a shared digest cost.
fn snapshot_build(ctx: &Ctx, report: &mut Report) {
    report.set("note", "full-sequence sweep: Snapshot::up_to per boundary vs one SnapshotBuilder arena; digests cover the full CSR of every snapshot");
    let mut largest: Option<(usize, f64)> = None;
    for cfg in TraceConfig::all() {
        let cfg = cfg.scaled(ctx.scale).with_days(ctx.days);
        let trace = cfg.generate(42);
        let seq = SnapshotSequence::with_count(&trace, 16);

        // Untimed equality witness over the full CSR of every snapshot.
        let mut scratch_digest = 0u64;
        for i in 0..seq.len() {
            scratch_digest = snapshot_digest(scratch_digest, &seq.snapshot(i));
        }
        let mut incr_digest = 0u64;
        let mut sweep = seq.snapshots();
        while let Some(snap) = sweep.next() {
            incr_digest = snapshot_digest(incr_digest, snap);
        }
        assert_eq!(
            scratch_digest, incr_digest,
            "{}: incremental sweep diverged from from-scratch snapshots",
            cfg.name
        );

        // Timed passes: build every snapshot of the sequence, nothing else.
        let (scratch_secs, ()) = timed(|| {
            for i in 0..seq.len() {
                std::hint::black_box(&seq.snapshot(i));
            }
        });
        let (incr_secs, ()) = timed(|| {
            let mut sweep = seq.snapshots();
            while let Some(snap) = sweep.next() {
                std::hint::black_box(snap);
            }
        });

        let speedup = scratch_secs / incr_secs.max(1e-12);
        if largest.is_none_or(|(e, _)| trace.edge_count() > e) {
            largest = Some((trace.edge_count(), speedup));
        }
        report.row(
            "presets",
            json!({
                "network": cfg.name,
                "nodes": trace.node_count(),
                "edges": trace.edge_count(),
                "snapshots": seq.len(),
                "from_scratch_secs": scratch_secs,
                "incremental_secs": incr_secs,
                "from_scratch_edges_per_sec": rate(trace.edge_count() * seq.len(), scratch_secs),
                "incremental_edges_per_sec": rate(trace.edge_count() * seq.len(), incr_secs),
                "speedup": speedup,
                "digests_equal": true,
            }),
        );
    }
    report.set("largest_preset_speedup", largest.map(|(_, s)| s));
}

/// Fused local-metric kernel vs the per-pair scoring path on the
/// renren-like preset: all 8 local metrics (CN, JC, AA, RA, PA and the
/// naive-Bayes BCN, BAA, BRA) over the shared `TwoHop` candidate set.
/// Two stages per worker count:
///
/// 1. per-pair baseline: each metric's reference from
///    [`oracles::contract`], the per-pair functions of [`oracles::local`]
///    in source-aligned chunks through `exec::score_chunked` (one
///    sorted-merge intersection per metric per pair);
/// 2. fused: `exec::score_matrix_cached_t` (one witness walk per source
///    per chunk produces every column).
///
/// Before anything is timed, the two-hop enumeration at the row's worker
/// count is asserted equal to the shared candidate set, and the fused
/// output to meet each metric's contract with the baseline (bit for
/// bit), so a reported speedup can never come from computing something
/// different.
fn fused_scoring(ctx: &Ctx, report: &mut Report) {
    let trace = renren_trace(ctx);
    let snap = fixture(&trace);

    let names = ["CN", "JC", "AA", "RA", "PA", "BCN", "BAA", "BRA"];
    let metrics: Vec<Box<dyn Metric>> =
        names.iter().map(|n| osn_metrics::metric_by_name(n).expect("local metric")).collect();
    let refs: Vec<&dyn Metric> = metrics.iter().map(|m| m.as_ref()).collect();

    let cands = CandidateSet::build(&snap, CandidatePolicy::TwoHop, 0);
    let scored_pairs = cands.len() * refs.len();
    report.set("network", "renren-like");
    report.set("nodes", snap.node_count());
    report.set("edges", snap.edge_count());
    report.set("candidate_pairs", cands.len());
    report.set("metrics", names.to_vec());
    report.set("note", "pairs/sec counts candidate_pairs x metrics; both paths asserted bit-identical before timing, and the two-hop enumeration at each thread count asserted equal to the scored candidate set");

    let contracts: Vec<oracles::Contract> =
        names.iter().map(|n| oracles::contract(n).expect("every metric has a contract")).collect();
    let per_pair = |t: usize| -> Vec<Vec<f64>> {
        contracts
            .iter()
            .map(|c| c.reference.as_ref().expect("local reference")(&snap, cands.pairs(), t))
            .collect()
    };
    let fused = |t: usize| {
        let mut cache = SolverCache::transient();
        exec::score_matrix_cached_t(&refs, &snap, cands.pairs(), t, &mut cache)
    };
    thread_sweep(ctx, report, "sweep", |t| {
        // Untimed equality witness first: both paths must agree.
        let baseline = per_pair(t);
        let fused_cols = fused(t);
        for (i, c) in contracts.iter().enumerate() {
            c.check(&snap, cands.pairs(), &fused_cols[i], &baseline[i]).unwrap_or_else(|e| {
                panic!("{}: fused column diverged from per-pair at {t} threads: {e}", names[i])
            });
        }
        let enum_pairs = osn_graph::traversal::two_hop_pairs(&snap, None, t);
        assert_eq!(enum_pairs, cands.pairs(), "two-hop enumeration drifted at {t} threads");

        let (per_pair_secs, _) = timed(|| per_pair(t));
        let (fused_secs, _) = timed(|| fused(t));
        json!({
            "per_pair_secs": per_pair_secs,
            "per_pair_pairs_per_sec": rate(scored_pairs, per_pair_secs),
            "fused_secs": fused_secs,
            "fused_pairs_per_sec": rate(scored_pairs, fused_secs),
            "fused_speedup": per_pair_secs / fused_secs.max(1e-12),
            "outputs_bit_identical": true,
        })
    });
}

/// Batched frontier/SpMV global-metric engine vs its retained per-source
/// reference oracles on the renren-like preset over the shared `ThreeHop`
/// candidate set.
///
/// Per metric (SP, LP, LRW, PPR, Katz-lr, Katz-sc) at one worker: the
/// batched path and the reference from [`oracles::contract`] are scored
/// untimed first and checked against the metric's contract — bit for bit
/// for the exact algorithms (SP, LP, Katz-sc, and Katz-lr against its own
/// serial path), within the bound the contract derives for the iterative
/// solvers (LRW, PPR) — then both are timed. The headline
/// `group_speedup_threads1` is total reference time over total batched
/// time for the solver group {LRW, PPR, Katz-lr, Katz-sc}. A worker-count
/// sweep then times the batched paths alone, asserting each stays
/// bit-identical to its one-worker output.
///
/// Katz-lr's reference is the same serial path at one worker, so it
/// dilutes the group speedup rather than inflating it.
fn global_scoring(ctx: &Ctx, report: &mut Report) {
    use osn_graph::par;

    let trace = renren_trace(ctx);
    let snap = fixture(&trace);
    let cands = CandidateSet::build(&snap, CandidatePolicy::ThreeHop, 0);
    let pairs = cands.pairs();

    let names = ["SP", "LP", "LRW", "PPR", "Katz-lr", "Katz-sc"];
    let metrics: Vec<Box<dyn Metric>> =
        names.iter().map(|n| osn_metrics::metric_by_name(n).expect("global metric")).collect();
    report.set("network", "renren-like");
    report.set("nodes", snap.node_count());
    report.set("edges", snap.edge_count());
    report.set("candidate_pairs", pairs.len());
    report.set("metrics", names.to_vec());
    report.set("note", "batched vs per-source-oracle, equality asserted before timing (bit-identical for SP/LP/Katz, analytic tolerance for LRW/PPR); Katz-lr has no distinct per-source oracle so its reference is the same serial path; LRW/PPR engine scores are one-sided from the pair's solve side (within oracles::walk::lrw_bound and ppr_bound)");

    // --- Stage 1: batched vs reference at one worker, equality first ----
    par::set_thread_override(Some(1));
    let mut batched_at_one: Vec<Vec<f64>> = Vec::new();
    let mut group_ref_secs = 0.0;
    let mut group_batched_secs = 0.0;
    for (name, m) in names.iter().zip(&metrics) {
        let contract = oracles::contract(name).expect("every metric has a contract");
        // Katz-lr has no reference: it is held to, and timed against, its
        // own serial path.
        let reference = || match &contract.reference {
            Some(reference) => reference(&snap, pairs, 1),
            None => exec::score_pairs_t(m.as_ref(), &snap, pairs, 1),
        };
        let batched = exec::score_pairs_t(m.as_ref(), &snap, pairs, 1);
        contract
            .check(&snap, pairs, &batched, &reference())
            .unwrap_or_else(|e| panic!("{name}: batched diverged from its reference: {e}"));

        let (ref_secs, _) = timed(reference);
        let (batched_secs, _) = timed(|| exec::score_pairs_t(m.as_ref(), &snap, pairs, 1));
        if *name != "SP" && *name != "LP" {
            group_ref_secs += ref_secs;
            group_batched_secs += batched_secs;
        }
        report.row(
            "per_metric_threads1",
            json!({
                "metric": name,
                "reference_secs": ref_secs,
                "reference_pairs_per_sec": rate(pairs.len(), ref_secs),
                "batched_secs": batched_secs,
                "batched_pairs_per_sec": rate(pairs.len(), batched_secs),
                "speedup": ref_secs / batched_secs.max(1e-12),
                "equality": if contract.bound.is_some() { "within-tolerance" } else { "bit-identical" },
            }),
        );
        batched_at_one.push(batched);
    }
    report.set("group_speedup_threads1", group_ref_secs / group_batched_secs.max(1e-12));

    // --- Stage 2: batched worker-count sweep ----------------------------
    thread_sweep(ctx, report, "batched_thread_sweep", |t| {
        par::set_thread_override(Some(t));
        let mut entries = Vec::new();
        for ((name, m), base) in names.iter().zip(&metrics).zip(&batched_at_one) {
            let scores = exec::score_pairs_t(m.as_ref(), &snap, pairs, t);
            assert_eq!(&scores, base, "{name}: batched output drifted at {t} workers");
            let (secs, _) = timed(|| exec::score_pairs_t(m.as_ref(), &snap, pairs, t));
            entries.push(json!({
                "metric": name,
                "batched_secs": secs,
                "batched_pairs_per_sec": rate(pairs.len(), secs),
            }));
        }
        json!({ "metrics": entries })
    });

    par::set_thread_override(None);
}

/// Blocked ALS factorization core vs the retained dense serial reference
/// on the youtube-like preset — the supernode-heavy degree profile (§4.2:
/// ~80% of nodes at degree ≤ 3, new edges concentrating on the top-0.1%
/// hubs) that stresses the CSR row blocking hardest.
///
/// Two stages, equality always asserted untimed first so a reported
/// speedup can never come from computing something different:
///
/// 1. **fit**: [`oracles::rescal::fit_dense`] (the serial row-fold ALS
///    loop, the property-tested oracle) vs the blocked `fit_t`
///    (thread-parallel `spmm_into_t` products) — factors asserted
///    bit-identical at every probed worker count, then both fits timed;
/// 2. **scoring**: the batched bilinear pair-scoring path vs the
///    per-pair `oracles::rescal::model_score` over the Global candidate set
///    (different association order, so within 1e-9 rather than bitwise;
///    the batched path itself is asserted bit-identical across worker
///    counts), then both timed.
fn factor_scoring(ctx: &Ctx, report: &mut Report) {
    use osn_metrics::rescal::Rescal;

    // The factorization runs on a 10x-seeded preset: the paper's YouTube
    // graph is ~3M nodes while the preset at the default CLI scale is
    // ~3.5k — too few rows for the blocked kernels' thread sharding to
    // amortize against spawn cost, which would benchmark overhead
    // instead of the engine. 10x keeps the dense serial reference (and
    // its untimed equivalence assert) affordable while giving the row
    // blocks real work. `TraceConfig` documents its fields as public for
    // exactly this kind of recorded tweak.
    const FACTOR_STRESS: usize = 10;
    let mut cfg = TraceConfig::youtube_like().scaled(ctx.scale).with_days(ctx.days);
    cfg.initial_nodes *= FACTOR_STRESS;
    cfg.initial_edges *= FACTOR_STRESS;
    let trace = cfg.generate(42);
    let snap = fixture(&trace);
    let rescal = Rescal::default();
    report.set("network", "youtube-like");
    report.set("seed_stress_factor", FACTOR_STRESS);
    report.set("nodes", snap.node_count());
    report.set("edges", snap.edge_count());
    report.set("rank", rescal.rank);
    report.set("fixed_sweeps", rescal.iterations);
    report.set("note", "blocked spmm_into_t ALS fit vs retained dense serial reference, factors asserted bit-identical at every worker count before timing; batched bilinear scoring within 1e-9 of the per-pair model oracle (association order differs) and bit-identical across workers");

    // --- Stage 1: blocked fit == dense serial reference, then timing ---
    let dense = oracles::rescal::fit_dense(&rescal, &snap).expect("dense reference fit");
    for t in sweep_thread_counts(&ctx.host) {
        let blocked = rescal.fit_t(&snap, t).expect("blocked fit");
        assert_eq!(
            dense.x.max_abs_diff(&blocked.x),
            0.0,
            "blocked X diverged from dense reference at {t} workers"
        );
        assert_eq!(
            dense.r.max_abs_diff(&blocked.r),
            0.0,
            "blocked R diverged from dense reference at {t} workers"
        );
    }
    let (dense_secs, _) =
        timed(|| oracles::rescal::fit_dense(&rescal, &snap).expect("dense reference fit"));
    report.set("dense_reference_secs", dense_secs);
    thread_sweep(ctx, report, "fit_sweep", |t| {
        let (blocked_secs, _) = timed(|| rescal.fit_t(&snap, t).expect("blocked fit"));
        json!({
            "blocked_secs": blocked_secs,
            "speedup_vs_dense": dense_secs / blocked_secs.max(1e-12),
            "bit_identical": true,
        })
    });

    // --- Stage 2: batched bilinear scoring vs the per-pair oracle -------
    // Distance-bounded enumeration is not usable as a workload generator
    // here: on this supernode-heavy snapshot (top degree ~10⁴) the
    // ThreeHop set alone is ~4.5·10⁸ pairs — the §3.2 candidate blowup
    // the paper hit. This stage benchmarks bilinear scoring throughput,
    // not enumeration (which has its own benches), so it draws a fixed
    // budget of deterministic uniform pairs instead.
    let cands = CandidateSet::from_pairs(
        sample_pairs(snap.node_count(), 2_000_000, 0x5CA1),
        CandidatePolicy::Global,
    );
    let pairs = cands.pairs();
    report.set("candidate_pairs", pairs.len());
    let oracle: Vec<f64> =
        pairs.iter().map(|&(u, v)| oracles::rescal::model_score(&dense, u, v)).collect();
    // One cache: the first call fits and registers the model, every
    // later call (including all timed ones) reuses it — a refit per batch
    // would show up right here as `rescal_fits` climbing past 1.
    let mut cache = SolverCache::transient();
    let base = exec::score_matrix_cached_t(&[&rescal], &snap, pairs, 1, &mut cache).remove(0);
    assert_eq!(cache.stats.rescal_fits, 1, "priming call must fit exactly once");
    for (i, &p) in pairs.iter().enumerate() {
        let dev = (base[i] - oracle[i]).abs();
        assert!(dev <= 1e-9, "pair {p:?}: batched score deviates {dev:e} from the model oracle");
    }
    let (oracle_secs, _) = timed(|| {
        pairs.iter().map(|&(u, v)| oracles::rescal::model_score(&dense, u, v)).collect::<Vec<f64>>()
    });
    report.set("oracle_scoring_secs", oracle_secs);
    thread_sweep(ctx, report, "scoring_sweep", |t| {
        let scores = exec::score_matrix_cached_t(&[&rescal], &snap, pairs, t, &mut cache).remove(0);
        assert_eq!(scores, base, "batched Rescal scores drifted at {t} workers");
        let (secs, _) = timed(|| {
            exec::score_matrix_cached_t(&[&rescal], &snap, pairs, t, &mut cache).remove(0)
        });
        json!({
            "batched_secs": secs,
            "batched_pairs_per_sec": rate(pairs.len(), secs),
        })
    });
    assert_eq!(
        cache.stats.rescal_fits, 1,
        "scoring sweep refit the model instead of reusing the cached fit"
    );
}

/// The per-pair route the e2e sweep's batched route must reproduce bit
/// for bit: the metric's reference over `threads` workers when
/// [`oracles::contract`] holds the engine to it exactly (the local
/// metrics' per-pair references in source-aligned chunks, and the
/// per-source SP, LP and Katz-sc); any other metric through its hook with
/// a transient cache.
fn per_pair_route(
    m: &dyn Metric,
    snap: &Snapshot,
    pairs: &[(u32, u32)],
    threads: usize,
) -> Vec<f64> {
    match oracles::contract(m.name()) {
        Some(oracles::Contract { reference: Some(reference), bound: None }) => {
            reference(snap, pairs, threads)
        }
        _ => m.score_pairs_cached(snap, pairs, threads, &mut SolverCache::transient()),
    }
}

/// End-to-end framework sweep before/after batched-kernel routing, with
/// and without the §6.2 temporal filters pushed into candidate
/// enumeration. One row per Table 7 network (facebook / renren / youtube presets):
///
/// * **baseline** — the pre-routing pipeline: from-scratch snapshot per
///   transition, per-policy candidate sets rebuilt per group (the
///   distance-≤3 base paid twice), every metric scored through the
///   per-pair / per-source paths with transient solver caches;
/// * **routed** —
///   [`SequenceEvaluator::evaluate_all`](linklens_core::framework::SequenceEvaluator::evaluate_all):
///   one incremental snapshot sweep, shared candidate enumeration per
///   policy group, the fused kernel + batched solver engine behind one
///   one solver cache for the sweep, streaming per-chunk top-k;
/// * **pruned** — the routed sweep with the network's Table 7 filter
///   pushed into the enumeration walks as a `PruneSpec`.
///
/// Before anything is timed: the batched route is asserted bit-identical
/// to the per-pair route on a representative transition, the pruned
/// candidate sets are asserted identical to post-hoc filtering across
/// *every* transition, and the engine's fused scores of each pruned
/// candidate set are asserted bit-identical to each metric's reference
/// scores on those pairs — so no speedup can come from computing
/// something different. Rescal is excluded: the ALS fit it runs is the
/// same on both routes (only pair scoring differs, and that is covered by
/// the `factor-scoring` row), so including it would dilute the routing
/// comparison equally on both sides.
///
/// The paper's thresholds were tuned on the real traces; when a Table 7
/// row is degenerate on a synthetic preset (< 10x candidate reduction or
/// nothing surviving), the row's thresholds are re-derived from the trace
/// with `FilterThresholds::discover` — the paper's own §6.2 methodology —
/// and the JSON records which source was used.
fn e2e_sweep(ctx: &Ctx, report: &mut Report) {
    use linklens_core::filters::{FilterThresholds, TemporalFilter};
    use linklens_core::framework::{finite_mean, unconnected_pair_count, SequenceEvaluator};
    use osn_metrics::topk;

    let threads = osn_graph::par::max_threads();

    let metrics: Vec<Box<dyn Metric>> =
        osn_metrics::all_metrics().into_iter().filter(|m| m.name() != "Rescal").collect();
    let refs: Vec<&dyn Metric> = metrics.iter().map(|m| m.as_ref()).collect();

    report.set("metrics_excluded", vec!["Rescal"]);
    report.set("note", "baseline = per-transition from-scratch snapshots + per-group post-hoc candidates + chunked per-pair scoring for locals + per-source reference oracles for SP/LP/LRW/PPR/Katz-sc (bit-identical to batched for SP/LP/Katz, within the documented analytic tolerance for LRW/PPR — see BENCH_global_scoring); routed = evaluate_all (incremental sweep, shared enumeration, fused kernel + batched solvers, one solver cache for the sweep); pruned = routed with the Table 7 filter pushed into enumeration. Equality asserted before timing: batched == per-pair top-k on a representative transition, pruned enumeration == post-hoc filtering on every transition, fused survivor scores == unpruned scores.");
    let mut renren_routing_speedup = None;
    for cfg in TraceConfig::all() {
        let table7 = FilterThresholds::for_preset(&cfg.name).expect("table 7 preset");
        let cfg = cfg.scaled(ctx.scale).with_days(ctx.days);
        let trace = cfg.generate(42);
        let seq = SnapshotSequence::with_count(&trace, 12);
        let eval = SequenceEvaluator::new(&seq);

        // ---- untimed equality pre-pass 1: routing --------------------
        // On a representative transition, the batched sweep route must
        // reproduce the per-pair route bit for bit.
        let t_repr = (seq.len().saturating_sub(3)).max(1);
        let prev = seq.snapshot(t_repr - 1);
        let truth = eval.ground_truth(t_repr);
        let k_repr = truth.len();
        let (batched_preds, _) = eval.predictions_many(&refs, t_repr, None);
        for (i, &m) in refs.iter().enumerate() {
            let cands_m = oracles::candidates::posthoc(&eval, &prev, &[m], None);
            let scores = per_pair_route(m, &prev, cands_m.pairs(), threads);
            let per_pair = topk::top_k_pairs(cands_m.pairs(), &scores, k_repr, eval.seed);
            assert_eq!(
                batched_preds[i],
                per_pair,
                "{}: {} batched route != per-pair route",
                cfg.name,
                m.name()
            );
        }

        // ---- pick the filter -----------------------------------------
        // Qualification ladder: the network's Table 7 row first (the
        // paper tuned those on the real traces), then §6.2-style
        // retention-quantile tunings derived from this trace's own
        // positives — from "retain every in-universe positive" (provably
        // accuracy-safe, see `PositiveFeatureStats` at q = 1.0)
        // downward. The first rung that prunes the sweep's candidates
        // >= 10x overall without dropping the mean accuracy ratio (both
        // checked untimed, on the exact sweep the timed configs run) is
        // the filter the timed pruned config uses.
        let full_repr = eval.candidates_for(&prev, &refs, None);
        let mut stats = linklens_core::filters::PositiveFeatureStats::new(table7.window_days);
        {
            let mut sweep = seq.snapshots();
            for t in 1..seq.len() {
                let p = sweep.next().expect("sweep yields len() snapshots");
                let truth_t = eval.ground_truth(t);
                let full = eval.candidates_for(p, &refs, None);
                let pos: Vec<(u32, u32)> =
                    full.pairs().iter().copied().filter(|pr| truth_t.contains(pr)).collect();
                stats.observe(p, &pos);
            }
        }
        let overall_reduction = |f: &TemporalFilter| -> f64 {
            let (mut full_n, mut kept_n) = (0usize, 0usize);
            let mut sweep = seq.snapshots();
            for _t in 1..seq.len() {
                let p = sweep.next().expect("sweep yields len() snapshots");
                let full = eval.candidates_for(p, &refs, None);
                full_n += full.len();
                kept_n += f.filter_pairs(p, full.pairs()).len();
            }
            full_n as f64 / kept_n.max(1) as f64
        };
        let sweep_mean_ratio = |outs: &[Vec<linklens_core::framework::PredictionOutcome>]| {
            finite_mean(outs.iter().map(|s| finite_mean(s.iter().map(|o| o.accuracy_ratio))))
        };
        let routed_trial_agg = sweep_mean_ratio(&eval.evaluate_all(&refs, None));
        let mut ladder: Vec<(String, TemporalFilter)> =
            vec![("table7".to_string(), TemporalFilter::new(table7))];
        for q in [1.0, 0.98, 0.95, 0.92, 0.90, 0.85, 0.80, 0.75, 0.70, 0.60, 0.50, 0.40] {
            if let Some(th) = stats.thresholds_at(q) {
                ladder.push((format!("tuned-retaining-q{q:.2}"), TemporalFilter::new(th)));
            }
        }
        let mut thresholds_source = "none-qualified".to_string();
        let mut filter = TemporalFilter::new(table7);
        let mut filter_qualified = false;
        for (source, cand_filter) in ladder {
            // Cheap screen on the representative snapshot before paying
            // for the exact sweep-wide checks.
            let kept_repr = cand_filter.filter_pairs(&prev, full_repr.pairs()).len();
            let repr_red = full_repr.len() as f64 / kept_repr.max(1) as f64;
            if kept_repr > 0 && repr_red < 8.0 {
                continue;
            }
            if overall_reduction(&cand_filter) < 10.0 {
                continue;
            }
            let trial_agg = sweep_mean_ratio(&eval.evaluate_all(&refs, Some(&cand_filter)));
            if trial_agg + 1e-9 >= routed_trial_agg {
                thresholds_source = source;
                filter = cand_filter;
                filter_qualified = true;
                break;
            }
        }
        if !filter_qualified {
            println!(
                "{}: WARNING no filter rung met 10x reduction with accuracy held; \
                 reporting the Table 7 row as-is",
                cfg.name
            );
        }

        // ---- untimed equality pre-pass 2: pruning --------------------
        // Pruned enumeration == post-hoc filtering on every transition,
        // while accumulating the candidate totals the reduction claim
        // rests on.
        let mut cand_full_total = 0usize;
        let mut cand_kept_total = 0usize;
        {
            let mut sweep = seq.snapshots();
            for t in 1..seq.len() {
                let p = sweep.next().expect("sweep yields len() snapshots");
                let full = eval.candidates_for(p, &refs, None);
                let pruned = eval.candidates_for(p, &refs, Some(&filter));
                let posthoc = oracles::candidates::posthoc(&eval, p, &refs, Some(&filter));
                assert_eq!(
                    pruned.pairs(),
                    posthoc.pairs(),
                    "{} t={t}: pruned enumeration != post-hoc filter",
                    cfg.name
                );
                cand_full_total += full.len();
                cand_kept_total += pruned.len();
            }
        }
        let cand_reduction = cand_full_total as f64 / cand_kept_total.max(1) as f64;

        // ---- untimed equality pre-pass 3: survivor scores ------------
        // Per policy group, the engine's fused scores of the pruned
        // candidate set equal each metric's reference scores on it.
        for policy in [CandidatePolicy::TwoHop, CandidatePolicy::ThreeHop, CandidatePolicy::Global]
        {
            let group: Vec<&dyn Metric> = refs
                .iter()
                .copied()
                .filter(|m| m.fused_kind().is_some() && m.candidate_policy() == policy)
                .collect();
            if group.is_empty() {
                continue;
            }
            let pruned = eval.candidates_for(&prev, &group, Some(&filter));
            let mut cache = SolverCache::transient();
            let cols =
                exec::score_matrix_cached_t(&group, &prev, pruned.pairs(), threads, &mut cache);
            for (col, &m) in cols.iter().zip(&group) {
                let want = per_pair_route(m, &prev, pruned.pairs(), 1);
                oracles::contract(m.name())
                    .expect("every metric has a contract")
                    .check(&prev, pruned.pairs(), col, &want)
                    .unwrap_or_else(|e| {
                        panic!(
                            "{}: {} fused scores of the pruned set != reference scores: {e}",
                            cfg.name,
                            m.name()
                        )
                    });
            }
        }

        // ---- timed config A: pre-routing baseline --------------------
        // The pre-kernel pipeline: every metric scored without the fused
        // kernel or the batched solver engine. Local metrics go through
        // their chunked per-pair references; solver metrics go through
        // the per-source references (the same ones BENCH_global_scoring
        // asserts the batched engine against — bit-identical for
        // SP/LP/Katz, within the documented analytic tolerance for
        // LRW/PPR).
        let (baseline_secs, baseline_ratios) = timed(|| {
            let mut ratios: Vec<Vec<f64>> = vec![Vec::new(); refs.len()];
            for t in 1..seq.len() {
                let prev = seq.snapshot(t - 1);
                let truth = eval.ground_truth(t);
                let k = truth.len();
                let u = unconnected_pair_count(&prev);
                let expected = (k as f64) * (k as f64) / u;
                for policy in
                    [CandidatePolicy::TwoHop, CandidatePolicy::ThreeHop, CandidatePolicy::Global]
                {
                    let group: Vec<(usize, &dyn Metric)> = refs
                        .iter()
                        .enumerate()
                        .filter(|(_, m)| m.candidate_policy() == policy)
                        .map(|(i, &m)| (i, m))
                        .collect();
                    if group.is_empty() {
                        continue;
                    }
                    let grefs: Vec<&dyn Metric> = group.iter().map(|&(_, m)| m).collect();
                    let cands = oracles::candidates::posthoc(&eval, &prev, &grefs, None);
                    for &(i, m) in &group {
                        // Every reference, LRW's and PPR's included; Katz-lr
                        // has none and takes its hook.
                        let scores = match oracles::contract(m.name()).and_then(|c| c.reference) {
                            Some(reference) => reference(&prev, cands.pairs(), threads),
                            None => m.score_pairs_cached(
                                &prev,
                                cands.pairs(),
                                threads,
                                &mut SolverCache::transient(),
                            ),
                        };
                        let predicted = topk::top_k_pairs(cands.pairs(), &scores, k, eval.seed);
                        let correct = predicted.iter().filter(|p| truth.contains(p)).count();
                        ratios[i].push(if expected > 0.0 {
                            correct as f64 / expected
                        } else {
                            f64::NAN
                        });
                    }
                }
            }
            ratios
        });

        // ---- timed config B: batched routing -------------------------
        let (routed_secs, routed_outs) = timed(|| eval.evaluate_all(&refs, None));
        // ---- timed config C: batched routing + pruning ---------------
        let (pruned_secs, pruned_outs) = timed(|| eval.evaluate_all(&refs, Some(&filter)));

        let routing_speedup = baseline_secs / routed_secs.max(1e-12);
        let total_speedup = baseline_secs / pruned_secs.max(1e-12);
        if cfg.name.contains("renren") {
            renren_routing_speedup = Some(routing_speedup);
        }

        let baseline_means: Vec<f64> =
            baseline_ratios.iter().map(|s| finite_mean(s.iter().copied())).collect();
        let routed_means: Vec<f64> = routed_outs
            .iter()
            .map(|series| finite_mean(series.iter().map(|o| o.accuracy_ratio)))
            .collect();
        let pruned_means: Vec<f64> = pruned_outs
            .iter()
            .map(|series| finite_mean(series.iter().map(|o| o.accuracy_ratio)))
            .collect();
        let routed_agg = finite_mean(routed_means.iter().copied());
        let pruned_agg = finite_mean(pruned_means.iter().copied());
        // The sweep is deterministic, so the timed runs must reproduce
        // what the qualification trial accepted.
        if filter_qualified {
            assert!(
                pruned_agg + 1e-9 >= routed_agg,
                "{}: pruned sweep mean ratio regressed ({routed_agg} -> {pruned_agg})",
                cfg.name
            );
            assert!(
                cand_reduction >= 10.0,
                "{}: qualified filter reduced candidates only {cand_reduction:.1}x",
                cfg.name
            );
        }

        let per_metric: Vec<serde_json::Value> = refs
            .iter()
            .enumerate()
            .map(|(i, m)| {
                serde_json::json!({
                    "metric": m.name(),
                    "mean_ratio_baseline": baseline_means[i],
                    "mean_ratio_routed": routed_means[i],
                    "mean_ratio_pruned": pruned_means[i],
                })
            })
            .collect();
        report.row(
            "networks",
            json!({
                "network": cfg.name,
                "nodes": trace.node_count(),
                "edges": trace.edge_count(),
                "transitions": seq.len() - 1,
                "thresholds_source": thresholds_source,
                "filter_qualified": filter_qualified,
                "thresholds": serde_json::to_value(&filter.thresholds),
                "baseline_secs": baseline_secs,
                "routed_secs": routed_secs,
                "pruned_secs": pruned_secs,
                "routing_speedup": routing_speedup,
                "total_speedup": total_speedup,
                "candidates_unpruned": cand_full_total,
                "candidates_pruned": cand_kept_total,
                "candidate_reduction": cand_reduction,
                "accuracy_ratio_mean_routed": routed_agg,
                "accuracy_ratio_mean_pruned": pruned_agg,
                "accuracy_ratio_delta_pruned_vs_routed": pruned_agg - routed_agg,
                "per_metric": per_metric,
            }),
        );
    }
    report.set("renren_routing_speedup", renren_routing_speedup);
}

/// Peak resident set size (`VmHWM`) in MiB, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Resets `VmHWM` to the current RSS by writing `5` to
/// `/proc/self/clear_refs` (Linux ≥ 4.0). Returns false where the kernel
/// or sandbox forbids it; callers then report absolute peaks without the
/// phase-vs-phase comparison.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Out-of-core tentpole: generate a large renren-like trace by streaming
/// events straight into the sectioned binary cache, sweep it through the
/// windowed reader without ever materializing the edge list, and evaluate
/// a metric on snowball samples — then load the *same* cache fully
/// in-core as the materialization baseline. Records generation nodes/s,
/// cache write/read MB/s, sweep time, per-phase peak RSS (`VmHWM`, reset between phases),
/// and a sampled-vs-full accuracy agreement check at a mid scale where
/// the full evaluation is still feasible. The streaming and in-core
/// sweeps digest every snapshot and the digests are asserted equal — the
/// two paths must be bit-identical, not merely close.
fn large_trace(ctx: &Ctx, report: &mut Report) {
    use linklens_core::sampling::{SampleMethod, SampleSpec};
    use osn_graph::io::{CacheFileWriter, SectionedCacheReader, TraceReader};
    use osn_graph::stream::{StreamingSequence, StreamingSnapshotBuilder, DEFAULT_WINDOW_EDGES};
    use osn_metrics::fused::LocalKind;
    use std::collections::HashSet;

    const SNAPSHOTS: usize = 12;
    const T_EVAL: usize = 9;
    const SEED: u64 = 42;
    let cfg = TraceConfig::renren_like().scaled(ctx.scale).with_days(ctx.days);
    let cache_path =
        std::env::temp_dir().join(format!("linklens_large_trace_{}.lltc", std::process::id()));
    let rss_reset = reset_peak_rss();
    report.set("preset", "renren-like");
    report.set("snapshots", SNAPSHOTS);
    report.set("eval_transition", T_EVAL);
    report.set("rss_reset_supported", rss_reset);
    report.set("rss_budget_mb", ctx.rss_budget_mb);

    // ---- phase A: streaming generation straight into the cache -------
    let mut sink = CacheFileWriter::create(&cache_path).expect("create cache file");
    let (gen_secs, summary) = timed(|| {
        osn_trace::stream::generate_streaming(&cfg, SEED, &mut sink).expect("streaming generation")
    });
    let cache_summary = sink.finish().expect("finish cache file");
    assert_eq!(cache_summary.nodes, summary.nodes);
    assert_eq!(cache_summary.edges, summary.edges);
    let cache_bytes = std::fs::metadata(&cache_path).expect("stat cache file").len();
    let gen_nodes_per_sec = rate(summary.nodes, gen_secs);
    // Generation and cache writing are fused on this path (that is the
    // point), so the write rate is bytes over the fused wall time.
    let write_mb_per_sec = cache_bytes as f64 / (1 << 20) as f64 / gen_secs.max(1e-12);

    // ---- raw windowed read throughput --------------------------------
    let (read_secs, read_digest) = timed(|| {
        let mut reader = SectionedCacheReader::open(&cache_path).expect("open cache");
        let mut acc = reader.arrivals().len() as u64;
        let mut window = Vec::new();
        let mut cur = 0usize;
        while cur < reader.edge_count() {
            let end = reader.edge_count().min(cur + DEFAULT_WINDOW_EDGES);
            reader.read_edge_window(cur, end, &mut window).expect("read edge window");
            for e in &window {
                acc = (acc ^ (e.u as u64) ^ ((e.v as u64) << 20) ^ e.t)
                    .wrapping_mul(0x0000_0100_0000_01B3);
            }
            cur = end;
        }
        acc
    });
    let read_mb_per_sec = cache_bytes as f64 / (1 << 20) as f64 / read_secs.max(1e-12);

    // ---- streaming snapshot sweep ------------------------------------
    let (stream_sweep_secs, stream_digest) = timed(|| {
        let reader = SectionedCacheReader::open(&cache_path).expect("open cache");
        let mut sweep = StreamingSequence::with_count(reader, SNAPSHOTS).sweep();
        let mut acc = 0u64;
        while let Some(snap) = sweep.next().expect("streaming sweep advance") {
            acc = snapshot_digest(acc, snap);
        }
        acc
    });

    // The trace-materialization RSS claim covers generation, the raw
    // read pass, and the windowed sweep; the sampled evaluation gets its
    // own VmHWM segment below (its footprint is the sampled pair
    // universe, which exists identically on both paths).
    let streaming_peak_mb = peak_rss_mb();

    // ---- sampled evaluation on the streaming path --------------------
    if rss_reset {
        assert!(reset_peak_rss(), "clear_refs worked once but not twice");
    }
    let cn = LocalKind::Cn;
    // Size-aware draw fraction: snowball samples target a bounded member
    // count so the sampled universe (and its memory) does not grow with
    // the trace — the whole point of sampled evaluation at large scale.
    let (sampled_secs, (spec, sampled)) = timed(|| {
        let reader = SectionedCacheReader::open(&cache_path).expect("open cache");
        let mut seq = StreamingSequence::with_count(reader, SNAPSHOTS);
        let truth: HashSet<(u32, u32)> =
            seq.new_edges(T_EVAL).expect("windowed ground truth").into_iter().collect();
        let boundary = seq.boundary(T_EVAL - 1);
        let mut builder = StreamingSnapshotBuilder::new(seq.into_reader());
        let prev = builder.advance_to(boundary).expect("advance to eval snapshot");
        let target_members = 6_000.0;
        let p = (target_members / prev.node_count() as f64).clamp(0.005, 0.25);
        let spec = SampleSpec { p, ..SampleSpec::default() };
        let est = linklens_core::sampling::evaluate_metric_sampled_on(
            &cn, prev, &truth, T_EVAL, None, &spec,
        );
        (spec, est)
    });
    let sampled_peak_mb = peak_rss_mb();

    // ---- phase B: full-materialization baseline on the same cache ----
    if rss_reset {
        assert!(reset_peak_rss(), "clear_refs reset failed mid-run");
    }
    let (incore_load_secs, trace) =
        timed(|| osn_graph::io::read_cache_file(&cache_path).expect("full cache load"));
    let (incore_sweep_secs, incore_digest) = timed(|| {
        let seq = SnapshotSequence::with_count(&trace, SNAPSHOTS);
        let mut sweep = seq.snapshots();
        let mut acc = 0u64;
        for _ in 0..seq.len() {
            acc = snapshot_digest(acc, sweep.next().expect("in-core sweep yields len()"));
        }
        acc
    });
    let incore_peak_mb = peak_rss_mb();
    drop(trace);
    assert_eq!(
        stream_digest, incore_digest,
        "streaming sweep diverged from the in-core sweep on the same cache"
    );
    // With per-phase VmHWM resets the comparison is meaningful: the
    // streaming phase ran first (over the lower floor) and must not
    // out-allocate full materialization. The slack absorbs allocator
    // noise at smoke-test scales where both phases are tiny.
    if rss_reset {
        if let (Some(s), Some(f)) = (streaming_peak_mb, incore_peak_mb) {
            assert!(
                s <= f + 16.0,
                "streaming peak RSS ({s:.1} MiB) exceeds the full-materialization \
                 baseline ({f:.1} MiB)"
            );
        }
    }
    if let (Some(budget), Some(s)) = (ctx.rss_budget_mb, streaming_peak_mb) {
        assert!(
            s <= budget,
            "streaming peak RSS ({s:.1} MiB) exceeds the --rss-budget-mb budget ({budget:.1} MiB)"
        );
    }
    std::fs::remove_file(&cache_path).ok();

    // ---- phase C: sampled-vs-full agreement at a feasible mid scale --
    let mid_scale = ctx.scale.min(0.25);
    let mid_cfg = TraceConfig::renren_like().scaled(mid_scale).with_days(ctx.days);
    let mid_trace = mid_cfg.generate(SEED);
    let mid_seq = SnapshotSequence::with_count(&mid_trace, SNAPSHOTS);
    let eval = linklens_core::framework::SequenceEvaluator::new(&mid_seq);
    let full = &eval.evaluate_metrics_at(&[&cn], T_EVAL, None)[0];
    let full_ratio = full.accuracy_ratio;
    let full_correct = (full.absolute_accuracy * full.k as f64).round();
    let mid_spec =
        SampleSpec { method: SampleMethod::Snowball, p: 0.5, draws: 6, ..SampleSpec::default() };
    let mid_sampled = eval.evaluate_metric_sampled(&cn, T_EVAL, None, &mid_spec);
    let agreement_factor = if full_ratio > 0.0 && mid_sampled.mean_accuracy_ratio > 0.0 {
        (mid_sampled.mean_accuracy_ratio / full_ratio)
            .max(full_ratio / mid_sampled.mean_accuracy_ratio)
    } else {
        f64::NAN
    };
    const AGREEMENT_TOLERANCE: f64 = 4.0;
    // Below ~4 correct predictions the full evaluation's own ratio is
    // dominated by tie-break luck at the top-k cutoff (Poisson error
    // > 50%), so an agreement assert would compare two noise values; the
    // factor is still recorded in the report.
    let agreement_asserted = full_ratio.is_finite() && full_correct >= 4.0;
    if agreement_asserted {
        assert!(
            agreement_factor <= AGREEMENT_TOLERANCE,
            "sampled CN ratio {:.2} disagrees with full ratio {full_ratio:.2} by {:.1}x \
             (tolerance {AGREEMENT_TOLERANCE}x) at scale {mid_scale}",
            mid_sampled.mean_accuracy_ratio,
            agreement_factor
        );
    }

    let sampled_eval = json!({
        "metric": sampled.metric,
        "draws": sampled.per_draw_ratios.len(),
        "sampling_p": spec.p,
        "mean_accuracy_ratio": sampled.mean_accuracy_ratio,
        "std_accuracy_ratio": sampled.std_accuracy_ratio,
        "mean_absolute_accuracy": sampled.mean_absolute_accuracy,
        "mean_k": sampled.mean_k,
        "mean_sample_size": sampled.mean_sample_size,
        "secs": sampled_secs,
        "peak_rss_mb": sampled_peak_mb,
    });
    report.set(
        "streaming",
        json!({
            "nodes": summary.nodes,
            "edges": summary.edges,
            "cache_sections": cache_summary.sections,
            "cache_bytes": cache_bytes,
            "generation_secs": gen_secs,
            "generation_nodes_per_sec": gen_nodes_per_sec,
            "cache_write_mb_per_sec": write_mb_per_sec,
            "cache_read_secs": read_secs,
            "cache_read_mb_per_sec": read_mb_per_sec,
            "read_digest": format!("{read_digest:016x}"),
            "sweep_secs": stream_sweep_secs,
            "sweep_digest": format!("{stream_digest:016x}"),
            "peak_rss_mb": streaming_peak_mb,
            "sampled_eval": sampled_eval,
        }),
    );
    report.set(
        "in_core_baseline",
        json!({
            "load_secs": incore_load_secs,
            "sweep_secs": incore_sweep_secs,
            "peak_rss_mb": incore_peak_mb,
            "sweep_digest": format!("{incore_digest:016x}"),
        }),
    );
    report.set(
        "agreement",
        json!({
            "mid_scale": mid_scale,
            "metric": "CN",
            "full_accuracy_ratio": full_ratio,
            "full_correct": full_correct,
            "sampled_mean_accuracy_ratio": mid_sampled.mean_accuracy_ratio,
            "sampled_std_accuracy_ratio": mid_sampled.std_accuracy_ratio,
            "sampling_p": mid_spec.p,
            "draws": mid_spec.draws,
            "factor": agreement_factor,
            "tolerance_factor": AGREEMENT_TOLERANCE,
            "asserted": agreement_asserted,
        }),
    );
    report.set("note", "streaming = generate_streaming -> CacheFileWriter (generation and cache write fused, so cache_write_mb_per_sec shares the generation wall time) -> SectionedCacheReader windowed sweep (StreamingSequence); in_core_baseline = read_cache_file full load + SnapshotSequence sweep of the same cache. The snowball-sampled CN evaluation runs on the streaming path with a size-aware draw fraction (samples target ~6k members regardless of trace size) and its own VmHWM segment — its footprint is the sampled pair universe, identical on both paths, so the streaming-vs-in-core RSS comparison isolates trace materialization. VmHWM is reset between segments via /proc/self/clear_refs when the kernel allows it; sweep digests are asserted bit-identical across the two paths.");
}

/// Offline oracle for one served query: the full candidate universe
/// filtered to the source, scored by the offline batch engine at one
/// thread, selected with the server's seeded top-k.
fn offline_topk_oracle(
    m: &dyn Metric,
    snap: &Snapshot,
    universe: &CandidateSet,
    source: u32,
    k: usize,
    seed: u64,
) -> Vec<(u32, u32)> {
    let pairs: Vec<(u32, u32)> =
        universe.pairs().iter().copied().filter(|&(a, b)| a == source || b == source).collect();
    let scores = exec::score_pairs_t(m, snap, &pairs, 1);
    osn_metrics::topk::top_k_pairs(&pairs, &scores, k, seed)
}

/// Online ingest + bounded-latency serving on the renren-like preset.
///
/// Phases:
/// 1. **Bootstrap** (untimed): the first 70% of the trace streams through
///    [`linklens_serve::Server`] ingest and publishes.
/// 2. **Parity gate** (untimed): the published CSR is digest-asserted
///    against the offline `SnapshotBuilder` at the same prefix, and for
///    every served metric a deterministic probe set of sources is queried
///    and asserted bit-identical to the offline batch answer (candidate
///    set + batch engine + seeded top-k) at the pinned version. Nothing
///    is timed until this passes.
/// 3. **Timed serving**: the remaining 30% of the trace streams through
///    ingest (publishing in ~12 batches) while two driver threads issue a
///    Zipfian per-user query mix over all served metrics, recording
///    per-query latency, response versions, and cache hits. Responses
///    spanning ≥ 2 versions prove queries kept flowing across publishes
///    (no global stop-the-world).
/// 4. **Warm vs cold** (per metric): one forced-miss query at the final
///    version vs the same query again from the result cache.
fn serving(ctx: &Ctx, report: &mut Report) {
    use linklens_serve::{ServeConfig, Server};
    use std::sync::atomic::{AtomicBool, Ordering};

    let trace = renren_trace(ctx);
    let total_edges = trace.edge_count();
    let bootstrap_edges = (total_edges * 7 / 10).max(1);
    let metric_names: Vec<String> =
        ["CN", "JC", "AA", "RA", "PA", "BCN", "LP", "LRW", "PPR"].map(String::from).to_vec();
    let workers = osn_graph::par::max_threads();
    let serve_cfg = ServeConfig {
        metrics: metric_names.clone(),
        workers,
        queue_capacity: 4096,
        cache_shards: 32,
        k: 10,
        seed: 0x11A5,
        top_degree: 32,
        promote_limit: 1 << 17,
    };
    let (k, seed, top_degree) = (serve_cfg.k, serve_cfg.seed, serve_cfg.top_degree);
    let server = Server::start(serve_cfg).expect("serve config resolves");
    report.set("network", "renren-like");
    report.set("workers", workers);
    report.set("edges", total_edges);
    report.set("bootstrap_edges", bootstrap_edges);
    report.set("streamed_edges", total_edges - bootstrap_edges);
    report.set("metrics", &metric_names);
    report.set("k", k);

    // Phase 1: bootstrap ingest (untimed).
    let arrivals = trace.arrivals();
    let mut next_node = 0usize;
    let mut ingest_range = |server: &Server, from: usize, to: usize| {
        for e in &trace.edges()[from..to] {
            while next_node < arrivals.len() && arrivals[next_node] <= e.t {
                server.ingest_node(arrivals[next_node]).expect("trace arrivals are monotone");
                next_node += 1;
            }
            server.ingest_edge(e.u, e.v, e.t).expect("trace edges are valid");
        }
    };
    ingest_range(&server, 0, bootstrap_edges);
    server.publish();
    let pinned = server.current();

    // Phase 2a: CSR parity against the offline builder at the same prefix.
    let mut offline = osn_graph::builder::SnapshotBuilder::new(&trace);
    let offline_snap = offline.advance_to(pinned.snapshot.prefix_len());
    assert_eq!(
        snapshot_digest(0, &pinned.snapshot),
        snapshot_digest(0, offline_snap),
        "streamed snapshot diverged from the offline builder"
    );

    // Phase 2b: served answers vs the offline batch engine, per metric,
    // over a deterministic Zipfian probe set — all at the pinned version.
    let metrics = osn_metrics::all_metrics();
    let n_boot = pinned.snapshot.node_count();
    let mut probe_state = 0x5EED_0001u64;
    let probes: Vec<u32> = (0..12).map(|_| zipf_rank(&mut probe_state, n_boot) as u32).collect();
    report.set("parity_probes", probes.len());
    let mut universes: Vec<(CandidatePolicy, CandidateSet)> = Vec::new();
    for name in &metric_names {
        let m = metrics.iter().find(|m| m.name() == name).expect("served metric exists");
        let policy = m.candidate_policy();
        if !universes.iter().any(|(p, _)| *p == policy) {
            universes.push((policy, CandidateSet::build(&pinned.snapshot, policy, top_degree)));
        }
        let universe = &universes.iter().find(|(p, _)| *p == policy).expect("just inserted").1;
        let mi = metric_names.iter().position(|n| n == name).expect("own list") as u32;
        for &source in &probes {
            let served = server
                .query_blocking(mi, source, std::time::Duration::from_secs(300))
                .expect("parity query answered");
            assert_eq!(
                served.version, pinned.version,
                "{name}: parity answer at an unexpected version"
            );
            let oracle =
                offline_topk_oracle(m.as_ref(), &pinned.snapshot, universe, source, k, seed);
            assert_eq!(
                *served.topk, oracle,
                "{name} source {source}: served top-k != offline batch answer at version {}",
                served.version
            );
        }
    }

    // Phase 3: timed — stream the tail through ingest while Zipfian
    // drivers query concurrently.
    let ingest_done = AtomicBool::new(false);
    let queries_issued = std::sync::atomic::AtomicUsize::new(0);
    let publish_stats: std::sync::Mutex<Vec<(f64, usize)>> = std::sync::Mutex::new(Vec::new());
    let queries_per_driver: usize = (total_edges / 4).clamp(1_000, 8_000);
    const DRIVERS: usize = 2;
    // Queries the drivers must land between consecutive publishes. This
    // paces ingest *down* to the query stream when ingest would otherwise
    // finish instantly (smoke scales), guaranteeing the mix actually
    // interleaves; at large scales the drivers outrun ingest and the wait
    // is a no-op. Ingest never blocks queries — only its own next batch.
    const INTERLEAVE_QUERIES: usize = 40;
    let t0 = Instant::now();
    let driver_results: Vec<(Vec<f64>, std::collections::HashSet<u64>, u64)> =
        std::thread::scope(|scope| {
            let ingest_handle = scope.spawn(|| {
                let remaining = total_edges - bootstrap_edges;
                let batch = (remaining / 12).max(1);
                let mut from = bootstrap_edges;
                let mut published_batches = 0usize;
                while from < total_edges {
                    while queries_issued.load(Ordering::Acquire)
                        < published_batches * INTERLEAVE_QUERIES
                    {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    let to = (from + batch).min(total_edges);
                    ingest_range(&server, from, to);
                    let (publish_secs, out) = timed(|| server.publish());
                    publish_stats
                        .lock()
                        .expect("publish stats lock")
                        .push((publish_secs, out.delta_edges));
                    published_batches += 1;
                    from = to;
                }
                ingest_done.store(true, Ordering::Release);
            });
            let drivers: Vec<_> = (0..DRIVERS)
                .map(|d| {
                    let server = &server;
                    let ingest_done = &ingest_done;
                    let queries_issued = &queries_issued;
                    let metric_count = metric_names.len() as u64;
                    scope.spawn(move || {
                        let mut state = 0xD1CE_0000u64 + d as u64;
                        let mut latencies_ms: Vec<f64> = Vec::new();
                        let mut versions: std::collections::HashSet<u64> =
                            std::collections::HashSet::new();
                        let mut hits = 0u64;
                        let mut issued = 0usize;
                        // Run the fixed budget, then keep going until
                        // ingest finishes so queries overlap every publish.
                        while issued < queries_per_driver || !ingest_done.load(Ordering::Acquire) {
                            let mi = (splitmix64(&mut state) % metric_count) as u32;
                            let source = zipf_rank(&mut state, n_boot) as u32;
                            let q0 = Instant::now();
                            let r = server
                                .query_blocking(mi, source, std::time::Duration::from_secs(300))
                                .expect("serving query answered");
                            latencies_ms.push(q0.elapsed().as_secs_f64() * 1e3);
                            versions.insert(r.version);
                            if r.cache_hit {
                                hits += 1;
                            }
                            issued += 1;
                            queries_issued.fetch_add(1, Ordering::Release);
                        }
                        (latencies_ms, versions, hits)
                    })
                })
                .collect();
            ingest_handle.join().expect("ingest thread");
            drivers.into_iter().map(|d| d.join().expect("driver thread")).collect()
        });
    let serving_secs = t0.elapsed().as_secs_f64();

    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut versions: std::collections::HashSet<u64> = std::collections::HashSet::new();
    let mut hits = 0u64;
    for (l, v, h) in driver_results {
        latencies_ms.extend(l);
        versions.extend(v);
        hits += h;
    }
    let total_queries = latencies_ms.len();
    assert!(
        versions.len() >= 2,
        "responses span {} version(s): serving stalled during ingest (stop-the-world?)",
        versions.len()
    );
    let p = linklens_bench::stats::percentiles(&latencies_ms);
    let hit_rate = hits as f64 / total_queries.max(1) as f64;
    let publish_rows = publish_stats.into_inner().expect("publish stats");
    let publish_count = publish_rows.len();
    let max_publish_secs = publish_rows.iter().map(|&(s, _)| s).fold(0.0f64, f64::max);
    let mean_publish_secs =
        publish_rows.iter().map(|&(s, _)| s).sum::<f64>() / publish_count.max(1) as f64;
    let final_stats = server.stats();
    assert_eq!(final_stats.pending_edges, 0, "final publish left edges behind");
    report.set("parity", "passed");
    report.set("queries", total_queries);
    report.set("queries_per_sec", rate(total_queries, serving_secs));
    report.set("serving_secs", serving_secs);
    report.set("latency_ms", json!({ "p50": p.p50, "p95": p.p95, "p99": p.p99 }));
    report.set("versions_observed", versions.len());
    report.set(
        "cache",
        json!({
            "hits": hits,
            "misses": total_queries as u64 - hits,
            "hit_rate": hit_rate,
        }),
    );
    report.set(
        "ingest_lag",
        json!({
            "publishes": publish_count,
            "mean_publish_secs": mean_publish_secs,
            "max_publish_secs": max_publish_secs,
            "final_pending_edges": final_stats.pending_edges,
        }),
    );

    // Phase 4: warm vs cold per metric at the final version. A cold row
    // is a forced miss (probe sources walk down from the top id until one
    // misses); the warm row repeats the same query as a guaranteed hit.
    report.set("final_version", server.version());
    let n_final = server.current().snapshot.node_count();
    report.set("nodes", n_final);
    // The list stays in the report even when every cold probe is skipped.
    report.set("warm_vs_cold", Vec::<Value>::new());
    for (mi, name) in metric_names.iter().enumerate() {
        let mut cold: Option<(u32, f64)> = None;
        for probe in (0..n_final as u32).rev().take(64) {
            let q0 = Instant::now();
            let r = server
                .query_blocking(mi as u32, probe, std::time::Duration::from_secs(300))
                .expect("cold query answered");
            let ms = q0.elapsed().as_secs_f64() * 1e3;
            if !r.cache_hit {
                cold = Some((probe, ms));
                break;
            }
        }
        let Some((probe, cold_ms)) = cold else {
            println!("serving: {name}: no cold probe found (cache saturated); row skipped");
            continue;
        };
        let q0 = Instant::now();
        let r = server
            .query_blocking(mi as u32, probe, std::time::Duration::from_secs(300))
            .expect("warm query answered");
        let warm_ms = q0.elapsed().as_secs_f64() * 1e3;
        assert!(r.cache_hit, "{name}: repeat query at a stable version must hit the cache");
        report.row(
            "warm_vs_cold",
            json!({
                "metric": name,
                "source": probe,
                "cold_ms": cold_ms,
                "warm_ms": warm_ms,
            }),
        );
    }
    server.shutdown();
    report.set("note", "parity gate (untimed) asserts every served top-k equals the offline batch answer at the pinned snapshot version before anything is timed; the timed phase interleaves a 2-driver Zipfian query mix with streaming ingest (12 publish batches over the trace tail) — versions_observed >= 2 is asserted, i.e. queries kept completing across publishes; warm_vs_cold compares a forced result-cache miss against the same query served from the cache at a stable version");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn no_arguments_run_every_row_at_the_defaults() {
        let args = parse(&[]).unwrap();
        assert_eq!(
            (args.scale, args.days, args.paranoid, args.rss_budget_mb),
            (0.35, 90, false, None)
        );
        assert!(args.only.is_empty());
    }

    #[test]
    fn each_row_flag_selects_its_row() {
        for (i, scenario) in SCENARIOS.iter().enumerate() {
            let args = parse(&["0.05", "30", &scenario.flag(), "--paranoid"]).unwrap();
            assert_eq!(args.only, vec![i], "{}", scenario.name);
            assert_eq!((args.scale, args.days, args.paranoid), (0.05, 30, true));
        }
        let both = parse(&["--serving-only", "--snapshot-build-only"]).unwrap();
        assert_eq!(both.only, vec![1, 7], "selected rows run in table order");
    }

    #[test]
    fn unknown_flags_are_rejected() {
        for flag in ["--serving-onyl", "--sweep-only", "--paranoid=1", "--rss-budget-mb"] {
            assert!(parse(&[flag]).is_err(), "{flag}");
        }
    }

    #[test]
    fn rss_budget_must_parse() {
        assert_eq!(parse(&["--rss-budget-mb=1024"]).unwrap().rss_budget_mb, Some(1024.0));
        assert!(parse(&["--rss-budget-mb=1O24"]).is_err());
        assert!(parse(&["--rss-budget-mb="]).is_err());
    }

    #[test]
    fn scale_and_days_must_parse() {
        assert!(parse(&["0,05"]).is_err());
        assert!(parse(&["0.05", "thirty"]).is_err());
        assert!(parse(&["0.05", "-3"]).is_err());
    }

    #[test]
    fn a_third_positional_is_rejected() {
        assert!(parse(&["0.05", "30"]).is_ok());
        assert!(parse(&["0.05", "30", "12"]).is_err());
    }

    #[test]
    fn row_names_flags_and_files_are_distinct() {
        let names: HashSet<&str> = SCENARIOS.iter().map(|s| s.name).collect();
        let flags: HashSet<String> = SCENARIOS.iter().map(Scenario::flag).collect();
        let files: HashSet<String> = SCENARIOS.iter().map(Scenario::file).collect();
        for set in [names.len(), flags.len(), files.len()] {
            assert_eq!(set, SCENARIOS.len());
        }
        let e2e = &SCENARIOS[5];
        assert_eq!(
            (e2e.flag(), e2e.bench(), e2e.file()),
            ("--e2e-sweep-only".into(), "e2e_sweep".into(), "BENCH_e2e_sweep.json".into())
        );
    }
}
