//! `linklens` — the command-line front door to the library.
//!
//! ```text
//! linklens generate --preset renren --scale 0.1 --days 60 --seed 7 --out trace.txt
//! linklens stats trace.txt [--snapshots 10]
//! linklens predict trace.txt --metric BRA [--k 100] [--filter renren]
//! linklens recommend trace.txt --user 42 [--metric RA] [--top 5]
//! ```
//!
//! `generate` writes a synthetic growth trace in the v1 text format;
//! `stats` prints the Figure 2–4 style evolution table for any trace
//! (generated or imported via a `u v ts` edge list); `predict` scores the
//! last snapshot transition with one metric; `recommend` prints link
//! suggestions for one user.

#![forbid(unsafe_code)]

use linklens::core::filters::TemporalFilter;
use linklens::core::framework::SequenceEvaluator;
use linklens::graph::io;
use linklens::graph::sequence::SnapshotSequence;
use linklens::graph::stats;
use linklens::metrics::{exec, topk};
use linklens::prelude::*;
use linklens::trace::GrowthTrace;
use std::fs::File;
use std::process::exit;

/// Whether `--cache` was passed: trace loads go through the binary
/// sidecar cache (`FILE.llc`) when set.
static USE_CACHE: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--threads N` is a global flag: strip it wherever it appears and
    // pin the scoring-engine worker pool before any command runs.
    if let Some(i) = args.iter().position(|a| a == "--threads") {
        let Some(v) = args.get(i + 1) else {
            eprintln!("--threads needs a value");
            exit(2)
        };
        let n: usize = parse_or_exit(v, "--threads");
        if n == 0 {
            eprintln!("--threads must be >= 1");
            exit(2)
        }
        linklens::graph::par::set_thread_override(Some(n));
        args.drain(i..i + 2);
    }
    // `--cache` is also global: reuse (or create) a binary sidecar next to
    // the trace so repeat runs skip text parsing entirely.
    if let Some(i) = args.iter().position(|a| a == "--cache") {
        USE_CACHE.store(true, std::sync::atomic::Ordering::Relaxed);
        args.remove(i);
    }
    // `--paranoid` turns the runtime invariant audits on in release
    // builds: CSR validation after every snapshot advance plus score-
    // contract checks in the engine (debug builds always audit).
    if let Some(i) = args.iter().position(|a| a == "--paranoid") {
        linklens::graph::audit::set_paranoid(true);
        args.remove(i);
    }
    let Some(command) = args.first() else { usage() };
    let rest = &args[1..];
    match command.as_str() {
        "generate" => generate(rest),
        "stats" => stats_cmd(rest),
        "predict" => predict(rest),
        "recommend" => recommend(rest),
        "--help" | "-h" | "help" => usage(),
        other => {
            eprintln!("unknown command '{other}'");
            usage()
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "linklens — link prediction through an empirical lens (IMC 2016 reproduction)\n\
         \n\
         commands:\n\
           generate --preset facebook|renren|youtube [--scale F] [--days N] [--seed N] --out FILE\n\
           stats FILE [--snapshots N]\n\
           predict FILE --metric NAME [--snapshots N] [--filter facebook|renren|youtube]\n\
           recommend FILE --user ID [--metric NAME] [--top N]\n\
         \n\
         global flags:\n\
           --threads N   scoring-engine worker count (default: all cores;\n\
                         also settable via LINKLENS_THREADS)\n\
           --cache       keep a binary sidecar (FILE.llc) so repeat runs\n\
                         skip text parsing; stale/corrupt sidecars are\n\
                         re-derived from the text automatically\n\
           --paranoid    audit invariants at runtime: validate the CSR\n\
                         after every snapshot advance and check every\n\
                         metric's score contract (always on in debug\n\
                         builds)\n\
         \n\
         FILE is a linklens v1 trace or a bare 'u v timestamp' edge list."
    );
    exit(2)
}

/// Fetches the value following `--flag`, if present.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn parse_or_exit<T: std::str::FromStr>(value: &str, what: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        eprintln!("invalid {what}: '{value}'");
        exit(2)
    })
}

/// The `--snapshots` value (default 10); a sequence needs at least two
/// snapshots to predict anything.
fn snapshot_count(args: &[String]) -> usize {
    let count = flag_value(args, "--snapshots").map_or(10, |v| parse_or_exit(v, "--snapshots"));
    if count < 2 {
        eprintln!("invalid --snapshots: {count} (a sequence needs at least 2 snapshots)");
        exit(2)
    }
    count
}

/// Exits 1 unless the trace at `path` holds at least `min` edges, which
/// `purpose` needs.
fn require_edges(path: &str, trace: &GrowthTrace, min: usize, purpose: &str) {
    if trace.edge_count() < min {
        eprintln!("{path}: {} edge(s), but {purpose} needs at least {min}", trace.edge_count());
        exit(1)
    }
}

fn load_trace(path: &str) -> GrowthTrace {
    let cache_path = format!("{path}.llc");
    if USE_CACHE.load(std::sync::atomic::Ordering::Relaxed) {
        // A valid sidecar newer than the text wins; anything else (missing,
        // corrupt, version-skewed, stale) falls through to a text parse.
        if sidecar_fresh(path, &cache_path) {
            match io::read_cache_file(&cache_path) {
                Ok(t) => return t,
                Err(e) => eprintln!("note: ignoring cache {cache_path}: {e}"),
            }
        }
    }
    let file = File::open(path).unwrap_or_else(|e| {
        eprintln!("cannot open {path}: {e}");
        exit(1)
    });
    // Try the native format first, fall back to a bare edge list.
    let trace = match io::read_trace(file) {
        Ok(t) => t,
        Err(_) => {
            let file = File::open(path).expect("reopen");
            io::read_edge_list(file).unwrap_or_else(|e| {
                eprintln!("cannot parse {path} as a trace or edge list: {e}");
                exit(1)
            })
        }
    };
    if USE_CACHE.load(std::sync::atomic::Ordering::Relaxed) {
        match io::write_cache_file(&trace, &cache_path) {
            Ok(()) => eprintln!("cached binary trace at {cache_path}"),
            Err(e) => eprintln!("note: could not write cache {cache_path}: {e}"),
        }
    }
    trace
}

/// True when the sidecar exists and is at least as new as the text trace.
fn sidecar_fresh(path: &str, cache_path: &str) -> bool {
    let mtime = |p: &str| std::fs::metadata(p).and_then(|m| m.modified()).ok();
    match (mtime(path), mtime(cache_path)) {
        (Some(text), Some(cache)) => cache >= text,
        (None, Some(_)) => true, // no text to compare against; trust the cache
        _ => false,
    }
}

fn generate(args: &[String]) {
    let preset = flag_value(args, "--preset").unwrap_or("renren");
    let scale: f64 = flag_value(args, "--scale").map_or(0.1, |v| parse_or_exit(v, "--scale"));
    let days: u32 = flag_value(args, "--days").map_or(60, |v| parse_or_exit(v, "--days"));
    let seed: u64 = flag_value(args, "--seed").map_or(42, |v| parse_or_exit(v, "--seed"));
    let Some(out) = flag_value(args, "--out") else {
        eprintln!("--out FILE is required");
        exit(2)
    };
    let config = match preset {
        "facebook" => TraceConfig::facebook_like(),
        "renren" => TraceConfig::renren_like(),
        "youtube" => TraceConfig::youtube_like(),
        other => {
            eprintln!("unknown preset '{other}' (facebook | renren | youtube)");
            exit(2)
        }
    }
    .scaled(scale)
    .with_days(days);
    let trace = config.generate(seed);
    let file = File::create(out).unwrap_or_else(|e| {
        eprintln!("cannot create {out}: {e}");
        exit(1)
    });
    io::write_trace(&trace, file).expect("write trace");
    println!(
        "wrote {}: {} nodes, {} edges over {} days",
        out,
        trace.node_count(),
        trace.edge_count(),
        days
    );
}

fn stats_cmd(args: &[String]) {
    let Some(path) = args.first() else {
        eprintln!("stats needs a trace file");
        exit(2)
    };
    let snapshots = snapshot_count(args);
    let trace = load_trace(path);
    require_edges(path, &trace, 2, "a sequence of two snapshots");
    println!("{path}: {} nodes, {} edges", trace.node_count(), trace.edge_count());
    let seq = SnapshotSequence::with_count(&trace, snapshots);
    println!(
        "{:>4} {:>8} {:>9} {:>8} {:>8} {:>8} {:>9}",
        "snap", "nodes", "edges", "deg", "clust", "APL", "assort"
    );
    // Incremental sweep: one arena walks every boundary instead of
    // rebuilding the CSR per snapshot.
    let mut sweep = seq.snapshots();
    let mut i = 0;
    while let Some(snap) = sweep.next() {
        let p = stats::snapshot_properties(snap, 30);
        println!(
            "{:>4} {:>8} {:>9} {:>8.2} {:>8.3} {:>8.2} {:>9.3}",
            i, p.nodes, p.edges, p.degree.mean, p.clustering, p.avg_path_length, p.assortativity
        );
        i += 1;
    }
}

fn predict(args: &[String]) {
    let Some(path) = args.first() else {
        eprintln!("predict needs a trace file");
        exit(2)
    };
    let metric_name = flag_value(args, "--metric").unwrap_or("BRA");
    let snapshots = snapshot_count(args);
    let Some(metric) = linklens::metrics::metric_by_name(metric_name) else {
        eprintln!(
            "unknown metric '{metric_name}'; available: {:?}",
            linklens::metrics::all_metrics().iter().map(|m| m.name()).collect::<Vec<_>>()
        );
        exit(2)
    };
    let trace = load_trace(path);
    require_edges(path, &trace, 2, "a sequence of two snapshots");
    let seq = SnapshotSequence::with_count(&trace, snapshots);
    let eval = SequenceEvaluator::new(&seq);
    let filter = flag_value(args, "--filter").map(|name| {
        TemporalFilter::for_preset(&format!("{name}-like")).unwrap_or_else(|| {
            eprintln!("unknown filter preset '{name}'");
            exit(2)
        })
    });
    let t = seq.len() - 1;
    let out = eval.evaluate_metrics_at(&[metric.as_ref()], t, filter.as_ref()).remove(0);
    println!(
        "{} on transition {} → {}: accuracy ratio {:.1}, absolute {:.2}% (k = {}, hits = {})",
        out.metric,
        t - 1,
        t,
        out.accuracy_ratio,
        out.absolute_accuracy * 100.0,
        out.k,
        out.correct
    );
}

fn recommend(args: &[String]) {
    let Some(path) = args.first() else {
        eprintln!("recommend needs a trace file");
        exit(2)
    };
    let Some(user) = flag_value(args, "--user") else {
        eprintln!("--user ID is required");
        exit(2)
    };
    let user: NodeId = parse_or_exit(user, "--user");
    let metric_name = flag_value(args, "--metric").unwrap_or("RA");
    let top: usize = flag_value(args, "--top").map_or(5, |v| parse_or_exit(v, "--top"));
    let Some(metric) = linklens::metrics::metric_by_name(metric_name) else {
        eprintln!("unknown metric '{metric_name}'");
        exit(2)
    };
    let trace = load_trace(path);
    require_edges(path, &trace, 1, "a snapshot");
    let snap = Snapshot::up_to(&trace, trace.edge_count());
    if (user as usize) >= snap.node_count() {
        eprintln!("user {user} not in the trace (max id {})", snap.node_count() - 1);
        exit(1)
    }
    // Candidates: the user's unconnected 2-hop neighbors.
    let mut cands: Vec<(NodeId, NodeId)> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for &w in snap.neighbors(user) {
        for &v in snap.neighbors(w) {
            if v != user && !snap.has_edge(user, v) && seen.insert(v) {
                cands.push(osn_graph_pair(user, v));
            }
        }
    }
    if cands.is_empty() {
        println!("user {user} has no 2-hop candidates (degree {})", snap.degree(user));
        return;
    }
    let threads = linklens::graph::par::max_threads();
    let scores = exec::score_pairs_t(metric.as_ref(), &snap, &cands, threads);
    println!(
        "top {} suggestions for user {user} (degree {}), by {}:",
        top.min(cands.len()),
        snap.degree(user),
        metric.name()
    );
    for (u, v) in topk::top_k_pairs(&cands, &scores, top, 1) {
        let other = if u == user { v } else { u };
        println!(
            "  user {other:<6} (degree {:>3}, {} mutual connections)",
            snap.degree(other),
            snap.common_neighbor_count(user, other)
        );
    }
}

fn osn_graph_pair(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    linklens::graph::canonical(a, b)
}
