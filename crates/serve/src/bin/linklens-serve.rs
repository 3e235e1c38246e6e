//! The `linklens-serve` process: online ingest + per-user top-k serving
//! over a line protocol on stdin/stdout.
//!
//! ```text
//! linklens-serve [--replay FILE.lltc] [--publish-every N] [--workers W]
//!                [--k K] [--metrics CN,AA,...]
//! ```
//!
//! With `--replay`, the sectioned LLTC trace cache at FILE is streamed
//! through ingest first (publishing every N edges, default 65536), then
//! the protocol loop starts. Commands, one per line:
//!
//! ```text
//! node <t>                  -> ok node <id>
//! edge <u> <v> <t>          -> ok edge new|dup
//! publish                   -> ok publish version=<v> delta=<n> flushed=<bool>
//! query <metric> <source>   -> ok query version=<v> hit=<bool> [u:v ...]
//! stats                     -> ok stats {json}
//! quit                      -> ok bye
//! ```
//!
//! Metric may be an index into the configured list or a metric name.
//! Errors answer `err <reason>` and never kill the process.

#![forbid(unsafe_code)]

use linklens_serve::{ServeConfig, Server};
use osn_graph::io::{SectionedCacheReader, TraceIoError, TraceReader};
use osn_graph::{NodeId, Timestamp};
use std::io::{BufRead, Write};
use std::sync::Arc;
use std::time::Duration;

const QUERY_TIMEOUT: Duration = Duration::from_secs(30);
const REPLAY_WINDOW: usize = 1 << 16;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("linklens-serve: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut cfg = ServeConfig::default();
    let mut replay_path: Option<String> = None;
    let mut publish_every: usize = REPLAY_WINDOW;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = |name: &str| -> Result<String, String> {
            i += 1;
            args.get(i).cloned().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag {
            "--replay" => replay_path = Some(value("--replay")?),
            "--publish-every" => {
                publish_every = value("--publish-every")?
                    .parse()
                    .map_err(|e| format!("--publish-every: {e}"))?;
                if publish_every == 0 {
                    return Err("--publish-every must be positive".into());
                }
            }
            "--workers" => {
                cfg.workers = value("--workers")?.parse().map_err(|e| format!("--workers: {e}"))?;
            }
            "--k" => cfg.k = value("--k")?.parse().map_err(|e| format!("--k: {e}"))?,
            "--metrics" => {
                cfg.metrics =
                    value("--metrics")?.split(',').map(|s| s.trim().to_string()).collect();
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
        i += 1;
    }
    let server = Server::start(cfg)?;
    if let Some(path) = replay_path {
        let summary = replay(&server, &path, publish_every).map_err(|e| e.to_string())?;
        println!("ok replay nodes={} edges={} version={}", summary.0, summary.1, server.version());
    }
    protocol_loop(&server);
    server.shutdown();
    Ok(())
}

/// Streams an LLTC cache through ingest in bounded windows, registering
/// arrivals in time order (so each publication's node frontier matches
/// the offline builder's `nodes_at`), publishing every `publish_every`
/// edges.
fn replay(
    server: &Arc<Server>,
    path: &str,
    publish_every: usize,
) -> Result<(usize, usize), TraceIoError> {
    let mut reader = SectionedCacheReader::open(path)?;
    let arrivals: Vec<Timestamp> = reader.arrivals().to_vec();
    let total = reader.edge_count();
    let mut next_node = 0usize;
    let mut window = Vec::new();
    let mut since_publish = 0usize;
    let mut start = 0usize;
    while start < total {
        let end = (start + REPLAY_WINDOW).min(total);
        reader.read_edge_window(start, end, &mut window)?;
        for e in &window {
            while next_node < arrivals.len() && arrivals[next_node] <= e.t {
                server
                    .ingest_node(arrivals[next_node])
                    .map_err(|err| TraceIoError::Cache(format!("replay arrival: {err}")))?;
                next_node += 1;
            }
            server
                .ingest_edge(e.u, e.v, e.t)
                .map_err(|err| TraceIoError::Cache(format!("replay edge: {err}")))?;
            since_publish += 1;
            if since_publish >= publish_every {
                server.publish();
                since_publish = 0;
            }
        }
        start = end;
    }
    // Stragglers: nodes arriving after the last edge, then a final publish.
    while next_node < arrivals.len() {
        server
            .ingest_node(arrivals[next_node])
            .map_err(|err| TraceIoError::Cache(format!("replay arrival: {err}")))?;
        next_node += 1;
    }
    server.publish();
    Ok((arrivals.len(), total))
}

fn protocol_loop(server: &Arc<Server>) {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        let reply = handle(server, line.trim());
        let quit = reply == "ok bye";
        if writeln!(out, "{reply}").and_then(|_| out.flush()).is_err() {
            break;
        }
        if quit {
            break;
        }
    }
}

fn handle(server: &Arc<Server>, line: &str) -> String {
    let mut parts = line.split_whitespace();
    match parts.next() {
        None | Some("#") => "ok".into(),
        Some("node") => match parse1::<Timestamp>(parts) {
            Ok(t) => match server.ingest_node(t) {
                Ok(id) => format!("ok node {id}"),
                Err(e) => format!("err {e}"),
            },
            Err(e) => e,
        },
        Some("edge") => match parse3::<NodeId, NodeId, Timestamp>(parts) {
            Ok((u, v, t)) => match server.ingest_edge(u, v, t) {
                Ok(true) => "ok edge new".into(),
                Ok(false) => "ok edge dup".into(),
                Err(e) => format!("err {e}"),
            },
            Err(e) => e,
        },
        Some("publish") => {
            let out = server.publish();
            format!(
                "ok publish version={} delta={} flushed={}",
                out.version, out.delta_edges, out.flushed
            )
        }
        Some("query") => {
            let (metric, source) = match (parts.next(), parts.next()) {
                (Some(m), Some(s)) => (m, s),
                _ => return "err query wants: query <metric> <source>".into(),
            };
            let Ok(source) = source.parse::<NodeId>() else {
                return "err query: source must be a node id".into();
            };
            let Some(metric) = resolve_metric(server, metric) else {
                return format!("err unknown metric {metric:?}");
            };
            match server.query_blocking(metric, source, QUERY_TIMEOUT) {
                Ok(r) => {
                    let mut s = format!("ok query version={} hit={}", r.version, r.cache_hit);
                    for &(a, b) in r.topk.iter() {
                        s.push_str(&format!(" {a}:{b}"));
                    }
                    s
                }
                Err(e) => format!("err {e}"),
            }
        }
        Some("stats") => {
            let s = server.stats();
            format!(
                "ok stats {{\"version\":{},\"nodes\":{},\"edges\":{},\"pending_edges\":{},\
                 \"publishes\":{},\"cache_entries\":{},\"cache_hits\":{},\"cache_misses\":{},\
                 \"accepted\":{},\"rejected\":{},\"queue_depth\":{}}}",
                s.version,
                s.nodes,
                s.edges,
                s.pending_edges,
                s.publishes,
                s.cache_entries,
                s.cache_hits,
                s.cache_misses,
                s.admission.accepted,
                s.admission.rejected,
                s.admission.depth,
            )
        }
        Some("quit") => "ok bye".into(),
        Some(other) => format!("err unknown command {other:?}"),
    }
}

/// Accepts a metric index or a metric name from the configured list.
fn resolve_metric(server: &Server, token: &str) -> Option<u32> {
    if let Ok(idx) = token.parse::<u32>() {
        if (idx as usize) < server.metric_names().len() {
            return Some(idx);
        }
        return None;
    }
    server.metric_names().iter().position(|n| n == token).map(|i| i as u32)
}

fn parse1<A: std::str::FromStr>(mut parts: std::str::SplitWhitespace<'_>) -> Result<A, String> {
    parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| "err expected one numeric argument".into())
}

fn parse3<A: std::str::FromStr, B: std::str::FromStr, C: std::str::FromStr>(
    mut parts: std::str::SplitWhitespace<'_>,
) -> Result<(A, B, C), String> {
    let (Some(a), Some(b), Some(c)) = (parts.next(), parts.next(), parts.next()) else {
        return Err("err expected three numeric arguments".into());
    };
    match (a.parse(), b.parse(), c.parse()) {
        (Ok(a), Ok(b), Ok(c)) => Ok((a, b, c)),
        _ => Err("err arguments must be numeric".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fixed-seed splitmix64 stream.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
            from[self.below(from.len())]
        }
    }

    /// One argument: small, huge, negative, fractional, non-numeric, or a
    /// metric name.
    fn hostile_argument(rng: &mut SplitMix) -> String {
        match rng.below(10) {
            0..=3 => rng.below(12).to_string(),
            4 => rng.pick(&["18446744073709551615", "18446744073709551616", "4294967295"]).into(),
            5 => rng.pick(&["4294967296", "4294967297", "99999999999999999999999"]).into(),
            6 => format!("-{}", rng.below(1 << 20)),
            7 => format!("{}.{}", rng.below(100), rng.below(100)),
            8 => rng.pick(&["abc", "NaN", "inf", "0x10", "1e9", "+", "--", "\u{2603}"]).into(),
            _ => rng.pick(&["CN", "LP", "LRW", "PPR", "Rescal", "Katz-lr", "nope"]).into(),
        }
    }

    #[test]
    fn hostile_protocol_lines_always_answer_ok_or_err() {
        let cfg = ServeConfig { workers: 1, k: 3, ..ServeConfig::default() };
        let server = Server::start(cfg).expect("default metrics resolve");
        for line in ["node 0", "node 0", "node 1", "node 1", "node 2", "edge 0 1 2", "edge 1 2 2"] {
            assert!(handle(&server, line).starts_with("ok"), "seed line {line:?}");
        }
        assert!(handle(&server, "publish").starts_with("ok publish"));

        let commands = [
            "node", "edge", "publish", "query", "stats", "quit", "#", "", "bogus", "NODE", "edge2",
        ];
        let mut rng = SplitMix(0x11A5_5EED);
        for _ in 0..2000 {
            let mut line = rng.pick(&commands).to_string();
            for _ in 0..rng.below(5) {
                line.push(' ');
                line.push_str(&hostile_argument(&mut rng));
            }
            let reply = handle(&server, line.trim());
            assert!(
                reply.starts_with("ok") || reply.starts_with("err"),
                "line {line:?} answered {reply:?}"
            );
        }

        assert!(handle(&server, "publish").starts_with("ok publish"));
        assert!(handle(&server, "stats").starts_with("ok stats"));
        for metric in ["CN", "LRW", "PPR"] {
            let reply = handle(&server, &format!("query {metric} 0"));
            assert!(reply.starts_with("ok query"), "{metric}: {reply:?}");
        }
        server.shutdown();
    }
}
