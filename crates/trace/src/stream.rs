//! Streaming trace generation: day-bucketed event emission with a bounded
//! working set, writing into any [`EventSink`] (typically the sectioned
//! binary cache) instead of materializing a [`GrowthTrace`].
//!
//! ## What stays resident, what doesn't
//!
//! The in-core path (`friendship::generate` + `write_cache_file`) holds, per
//! edge: the `TimedEdge` log (16 B), the dedup hash set (tens of bytes with
//! hashing overhead), and — under the v1 cache writer — a full serialized
//! payload buffer. The streaming generator emits each event exactly once
//! and drops it; what remains resident is only the *model state* the growth
//! process itself needs to look at (the adjacency lists that triadic
//! closure walks, the endpoint pool that degree-proportional attachment
//! samples, and per-node lifecycles) — roughly 16 bytes/edge plus ~40
//! bytes/node, a small multiple less than the in-core pipeline. The
//! `large_trace` scalecheck scenario measures both peaks and asserts the
//! streaming path stays below the full-materialization baseline.
//!
//! ## Deterministic chunked parallelism
//!
//! The sequential generator threads one RNG through every draw, so any
//! parallel split would change the stream. The streaming generator instead
//! derives *independent per-day and per-chunk RNG streams* (splitmix64 of
//! `(seed, day, chunk)`): each day, awake initiators are split into
//! fixed-size chunks (thread-count independent), chunk proposals are
//! computed in parallel against the frozen day-start state, and proposals
//! are applied sequentially in chunk order. The result is bit-identical for
//! every worker count — pinned by `crates/trace/tests/stream_determinism.rs`
//! — though it is a *different* (equally synthetic) trace than the
//! sequential generator produces for the same seed.

use crate::config::{NetworkKind, TraceConfig};
use crate::friendship::State;
use crate::lifecycle::{poisson, LifecycleParams};
use crate::GrowthTrace;
use osn_graph::io::{CacheFileWriter, CacheStreamWriter, TraceIoError};
use osn_graph::{NodeId, Timestamp, DAY};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fixed number of awake initiators per proposal chunk. Thread-count
/// independent by construction — this is what makes the parallel schedule
/// deterministic. Small enough to load-balance, large enough that per-chunk
/// RNG setup is noise.
const CHUNK: usize = 512;

/// Where generated events go. Implementations exist for the binary cache
/// writers (the out-of-core path) and for [`GrowthTrace`] itself (the
/// in-core path used by tests and small runs).
pub trait EventSink {
    /// Records a node arrival at time `t`; returns the dense id assigned.
    fn arrival(&mut self, t: Timestamp) -> Result<NodeId, TraceIoError>;
    /// Records an edge `(u, v)` at time `t`. The generator guarantees
    /// `u != v`, both arrived, non-decreasing `t`, and no duplicates.
    fn edge(&mut self, u: NodeId, v: NodeId, t: Timestamp) -> Result<(), TraceIoError>;
}

impl<W: std::io::Write> EventSink for CacheStreamWriter<W> {
    fn arrival(&mut self, t: Timestamp) -> Result<NodeId, TraceIoError> {
        self.push_arrival(t)
    }

    fn edge(&mut self, u: NodeId, v: NodeId, t: Timestamp) -> Result<(), TraceIoError> {
        self.push_edge(u, v, t)
    }
}

impl EventSink for CacheFileWriter {
    fn arrival(&mut self, t: Timestamp) -> Result<NodeId, TraceIoError> {
        self.push_arrival(t)
    }

    fn edge(&mut self, u: NodeId, v: NodeId, t: Timestamp) -> Result<(), TraceIoError> {
        self.push_edge(u, v, t)
    }
}

impl EventSink for GrowthTrace {
    fn arrival(&mut self, t: Timestamp) -> Result<NodeId, TraceIoError> {
        Ok(self.add_node(t))
    }

    fn edge(&mut self, u: NodeId, v: NodeId, t: Timestamp) -> Result<(), TraceIoError> {
        if self.add_edge(u, v, t) {
            Ok(())
        } else {
            Err(TraceIoError::Cache(format!(
                "streaming generator emitted duplicate edge ({u}, {v})"
            )))
        }
    }
}

/// Totals reported by [`generate_streaming`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSummary {
    /// Nodes emitted.
    pub nodes: usize,
    /// Edges emitted.
    pub edges: usize,
    /// Simulated days.
    pub days: u32,
}

/// One RNG stream per `(seed, day, stream)` triple; stream 0 is the day's
/// sequential stream, streams `1 + c` belong to proposal chunk `c`.
fn stream_rng(seed: u64, day: u64, stream: u64) -> StdRng {
    let key =
        seed ^ day.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    StdRng::seed_from_u64(osn_graph::mix64(key.wrapping_add(0x9E37_79B9_7F4A_7C15)))
}

/// Runs the friendship growth model, streaming day-bucketed events into
/// `sink` with a bounded working set and deterministic chunk-parallel edge
/// proposals (see the module docs for the schedule). For
/// [`NetworkKind::Subscription`] configs the model has no streaming variant
/// yet; generation falls back to the in-core generator and replays into the
/// sink via [`replay`].
///
/// Worker count comes from the shared pool resolution
/// (`osn_graph::par::max_threads`); the output is bit-identical for every
/// worker count.
pub fn generate_streaming<S: EventSink>(
    cfg: &TraceConfig,
    seed: u64,
    sink: &mut S,
) -> Result<StreamSummary, TraceIoError> {
    let NetworkKind::Friendship {
        closure_start,
        closure_end,
        preferential,
        recency_bias,
        recency_window,
    } = cfg.kind
    else {
        let g = cfg.generate(seed);
        return replay(&g, sink);
    };
    let params = LifecycleParams {
        session_days: cfg.session_days,
        idle_days: cfg.idle_days,
        dormant_fraction: cfg.dormant_fraction,
        aging: 0.15,
    };
    let seed = seed ^ 0xF41E_27D5_38C0_11A7;
    let mut state = State::default();
    let mut edges_out = 0usize;

    // Day 0: seed population and a sparse random seed graph. Edges must be
    // collected before emission because the sink wants them in time order
    // and dedup happens against the adjacency state.
    let rng = &mut stream_rng(seed, 0, 0);
    for _ in 0..cfg.initial_nodes {
        let id = sink.arrival(0)?;
        state.on_node(id, &params, 0.0, rng);
    }
    let mut offset: u64 = 1;
    let mut planted = 0usize;
    let mut attempts = 0usize;
    while planted < cfg.initial_edges && attempts < cfg.initial_edges * 20 {
        attempts += 1;
        let u = rng.random_range(0..cfg.initial_nodes) as NodeId;
        let v = if rng.random::<f64>() < 0.5 {
            state.closure_target(u, recency_bias, recency_window, rng)
        } else {
            None
        }
        .unwrap_or_else(|| rng.random_range(0..cfg.initial_nodes) as NodeId);
        if u != v && !state.adj[u as usize].contains(&v) {
            sink.edge(u, v, day_time(0, offset))?;
            state.on_edge(u, v);
            planted += 1;
            offset += 1;
            edges_out += 1;
        }
    }

    // Growth days.
    let mut awake: Vec<NodeId> = Vec::new();
    let mut awake_flags: Vec<bool> = Vec::new();
    for day in 1..=cfg.days as usize {
        let day_f = day as f64;
        let rng = &mut stream_rng(seed, day as u64, 0);
        let mut offset: u64 = 1;

        // Arrivals toward the exponential population target.
        let target =
            (cfg.initial_nodes as f64 * (cfg.node_growth_rate * day_f).exp()).round() as usize;
        let current = state.adj.len();
        for _ in current..target.max(current) {
            let id = sink.arrival(day as u64 * DAY)?;
            state.on_node(id, &params, day_f, rng);
        }

        // Who is awake today? Computed once up front (mutating lifecycles)
        // so the parallel proposal phase reads frozen flags instead of
        // racing on lifecycle state.
        let n = state.adj.len();
        awake.clear();
        awake_flags.clear();
        awake_flags.resize(n, false);
        for u in 0..n as NodeId {
            if state.lifecycles[u as usize].awake(&params, day_f, rng) {
                awake_flags[u as usize] = true;
                awake.push(u);
            }
        }

        let closure_share = closure_start + (closure_end - closure_start) * day_f / cfg.days as f64;

        // Newly arrived nodes bootstrap 1–3 edges each (sequential: the
        // bootstrap edges should be visible to today's proposals).
        for u in (current..n).map(|i| i as NodeId) {
            let count = 1 + rng.random_range(0..3);
            for _ in 0..count {
                if let Some(v) = state.pick_target(
                    u,
                    0.3, // mostly attach outward when brand new
                    preferential,
                    recency_bias,
                    recency_window,
                    n,
                    rng,
                ) {
                    if !state.adj[u as usize].contains(&v) {
                        sink.edge(u, v, day_time(day as u64, offset))?;
                        state.on_edge(u, v);
                        offset += 1;
                        edges_out += 1;
                    }
                }
            }
        }

        // Awake nodes initiate edges: proposals in parallel against the
        // frozen day-start state, one deterministic RNG stream per
        // fixed-size chunk, then a sequential apply in chunk order.
        let chunks: Vec<&[NodeId]> = awake.chunks(CHUNK).collect();
        let proposals: Vec<Vec<(NodeId, NodeId)>> = {
            let state = &state;
            let awake_flags = &awake_flags;
            osn_graph::par::run_indexed(chunks.len(), osn_graph::par::max_threads(), move |ci| {
                let rng = &mut stream_rng(seed, day as u64, 1 + ci as u64);
                let mut out = Vec::new();
                for &u in chunks[ci] {
                    let rate = state.lifecycles[u as usize].daily_rate(cfg.edges_per_active_node);
                    let initiations = poisson(rng, rate);
                    for _ in 0..initiations {
                        for _try in 0..4 {
                            let Some(v) = state.pick_target(
                                u,
                                closure_share,
                                preferential,
                                recency_bias,
                                recency_window,
                                n,
                                rng,
                            ) else {
                                continue;
                            };
                            // Prefer awake destinations; accept idle
                            // targets with reduced probability.
                            if !awake_flags[v as usize] && rng.random::<f64>() < 0.65 {
                                continue;
                            }
                            // Assortative acceptance on the frozen
                            // day-start degrees (see friendship.rs).
                            let du = state.adj[u as usize].len() as f64 + 1.0;
                            let dv = state.adj[v as usize].len() as f64 + 1.0;
                            let ratio = (du.min(dv) / du.max(dv)).powf(0.5);
                            if rng.random::<f64>() > 0.15 + 0.85 * ratio {
                                continue;
                            }
                            out.push((u, v));
                            break;
                        }
                    }
                }
                out
            })
        };
        for (u, v) in proposals.into_iter().flatten() {
            // Dedup against the live adjacency (covers both pre-existing
            // edges and duplicates proposed by two chunks the same day).
            if state.adj[u as usize].contains(&v) {
                continue;
            }
            sink.edge(u, v, day_time(day as u64, offset))?;
            state.on_edge(u, v);
            offset += 1;
            edges_out += 1;
        }
    }
    Ok(StreamSummary { nodes: state.adj.len(), edges: edges_out, days: cfg.days })
}

/// Timestamp of the `offset`-th event on `day`. Clamped inside the day so
/// event times stay globally non-decreasing even on days that emit more
/// than `DAY` edges (large scaled-up runs).
fn day_time(day: u64, offset: u64) -> Timestamp {
    day * DAY + offset.min(DAY - 1)
}

/// Replays an in-core trace into a sink (all arrivals, then all edges in
/// chronological order) — the fallback for models without a streaming
/// generator and the bridge for re-caching existing traces.
pub fn replay<S: EventSink>(g: &GrowthTrace, sink: &mut S) -> Result<StreamSummary, TraceIoError> {
    for &t in g.arrivals() {
        sink.arrival(t)?;
    }
    for e in g.edges() {
        sink.edge(e.u, e.v, e.t)?;
    }
    Ok(StreamSummary { nodes: g.node_count(), edges: g.edge_count(), days: 0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::snapshot::Snapshot;
    use osn_graph::stats;

    fn small_cfg() -> TraceConfig {
        TraceConfig::renren_like().scaled(0.05).with_days(25)
    }

    #[test]
    fn streaming_trace_is_well_formed_and_grows() {
        let mut g = GrowthTrace::new();
        let summary = generate_streaming(&small_cfg(), 11, &mut g).unwrap();
        assert_eq!(summary.nodes, g.node_count());
        assert_eq!(summary.edges, g.edge_count());
        assert!(g.node_count() > 100);
        assert!(g.edge_count() > g.node_count() / 2, "edges {}", g.edge_count());
        assert!(g.nodes_at(20 * DAY) > g.nodes_at(5 * DAY), "population must grow");
        let s = Snapshot::up_to(&g, g.edge_count());
        assert!(
            stats::avg_clustering(&s) > 0.02,
            "clustering {:.4} too low for a friendship net",
            stats::avg_clustering(&s)
        );
    }

    #[test]
    fn cache_sink_round_trips_to_the_same_trace() {
        let cfg = small_cfg();
        let mut g = GrowthTrace::new();
        generate_streaming(&cfg, 23, &mut g).unwrap();
        let mut w = CacheStreamWriter::new(Vec::new()).unwrap();
        let summary = generate_streaming(&cfg, 23, &mut w).unwrap();
        let (bytes, cache_summary) = w.finish().unwrap();
        assert_eq!(summary.nodes, cache_summary.nodes);
        assert_eq!(summary.edges, cache_summary.edges);
        let back = osn_graph::io::read_cache(&bytes[..]).unwrap();
        assert_eq!(back.arrivals(), g.arrivals());
        assert_eq!(back.edges(), g.edges());
        // Day-bucketed emission produces interleaved sections, more than
        // the two an in-core write_cache_file of this size would emit.
        assert!(cache_summary.sections > 2, "sections {}", cache_summary.sections);
    }

    #[test]
    fn subscription_configs_fall_back_to_replay() {
        let cfg = TraceConfig::youtube_like().scaled(0.02).with_days(20);
        let direct = cfg.generate(7);
        let mut g = GrowthTrace::new();
        let summary = generate_streaming(&cfg, 7, &mut g).unwrap();
        assert_eq!(summary.edges, direct.edge_count());
        assert_eq!(g.edges(), direct.edges());
        assert_eq!(g.arrivals(), direct.arrivals());
    }

    #[test]
    fn fixed_seed_reproduces_exactly() {
        let cfg = small_cfg();
        let mut a = GrowthTrace::new();
        let mut b = GrowthTrace::new();
        generate_streaming(&cfg, 42, &mut a).unwrap();
        generate_streaming(&cfg, 42, &mut b).unwrap();
        assert_eq!(a.edges(), b.edges());
        assert_eq!(a.arrivals(), b.arrivals());
        let mut c = GrowthTrace::new();
        generate_streaming(&cfg, 43, &mut c).unwrap();
        assert_ne!(a.edges(), c.edges(), "different seeds should differ");
    }
}
