//! The subscription-network growth model (YouTube style).
//!
//! Most edges attach a *subscriber* (usually a recently arrived, low-degree
//! node) to a *popular target* drawn from a Zipf-by-arrival-rank popularity
//! distribution reinforced by past subscriptions. Two further mechanisms
//! reproduce what the paper measures on YouTube (§4.2):
//!
//! * **channel discovery** — almost half of subscriptions are found
//!   through the co-subscription structure (my channel → a co-subscriber →
//!   their other channel), a distance-*3* pair that latent-space metrics
//!   can rank but common-neighborhood metrics cannot;
//! * **supernode-to-supernode edges** — a small share of edges connect two
//!   popular nodes (collabs/mutual subscriptions; the paper notes that a
//!   fifth of supernode edges touch other non-low-degree nodes).
//!
//! Together with a minority of social closures among subscribers this
//! yields negative degree assortativity, ~80% of nodes at degree ≤ 3, very
//! high degree heterogeneity, and a large share of new edges touching the
//! top-degree supernodes.

use crate::config::{NetworkKind, TraceConfig};
use crate::friendship::State;
use crate::lifecycle::{poisson, LifecycleParams};
use crate::GrowthTrace;
use osn_graph::{NodeId, DAY};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs the subscription model.
///
/// # Panics
/// Panics if `cfg.kind` is not [`NetworkKind::Subscription`]. Its one caller,
/// [`TraceConfig::generate`], calls it only for that kind.
pub(crate) fn generate(cfg: &TraceConfig, seed: u64) -> GrowthTrace {
    let NetworkKind::Subscription { zipf_exponent, subscribe_share, fresh_subscriber_bias } =
        cfg.kind
    else {
        // linklens-allow(panic-in-deterministic-path): TraceConfig::generate, the only caller, dispatches here on this kind
        panic!("subscription::generate requires a Subscription config");
    };
    let params = LifecycleParams {
        session_days: cfg.session_days,
        idle_days: cfg.idle_days,
        dormant_fraction: cfg.dormant_fraction,
        aging: 0.0,
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5AB5_C21B_90D3_44E9);
    let mut g = GrowthTrace::new();
    let mut state = State::default();
    // Popularity pool: a node appears `round(256·rank^{-s})` times at
    // arrival (stochastic rounding) and once more per received
    // subscription. Uniform draws from the pool are Zipf-plus-reinforcement
    // draws over nodes.
    let mut popularity_pool: Vec<NodeId> = Vec::new();

    let arrive = |g: &mut GrowthTrace,
                  state: &mut State,
                  pool: &mut Vec<NodeId>,
                  t: u64,
                  day: f64,
                  rng: &mut StdRng| {
        let id = g.add_node(t);
        state.on_node(id, &params, day, rng);
        let w = 256.0 * ((id + 1) as f64).powf(-zipf_exponent);
        let copies = w.floor() as usize + usize::from(rng.random::<f64>() < w.fract());
        for _ in 0..copies {
            pool.push(id);
        }
    };

    // Day 0 population + seed subscriptions.
    for _ in 0..cfg.initial_nodes {
        arrive(&mut g, &mut state, &mut popularity_pool, 0, 0.0, &mut rng);
    }
    let mut offset: u64 = 1;
    let mut planted = 0usize;
    let mut attempts = 0usize;
    while planted < cfg.initial_edges && attempts < cfg.initial_edges * 20 {
        attempts += 1;
        let u = rng.random_range(0..cfg.initial_nodes) as NodeId;
        let v = popularity_pool[rng.random_range(0..popularity_pool.len())];
        if u != v && g.add_edge(u, v, offset) {
            state.on_edge(u, v);
            popularity_pool.push(v);
            planted += 1;
            offset += 1;
        }
    }

    for day in 1..=cfg.days as usize {
        let day_f = day as f64;
        let t_base = day as u64 * DAY;
        let mut offset: u64 = 1;

        let target =
            (cfg.initial_nodes as f64 * (cfg.node_growth_rate * day_f).exp()).round() as usize;
        let current = g.node_count();
        for _ in current..target.max(current) {
            arrive(&mut g, &mut state, &mut popularity_pool, t_base, day_f, &mut rng);
        }
        let n = g.node_count();
        let fresh_lo = current; // today's arrivals are "fresh"
        let fresh_window = (n / 10).max(n - fresh_lo).min(n); // last ~10%

        let mut awake: Vec<NodeId> = Vec::new();
        for u in 0..n as NodeId {
            if state.lifecycles[u as usize].awake(&params, day_f, &mut rng) {
                awake.push(u);
            }
        }

        // New arrivals subscribe immediately (1-3 subscriptions).
        for u in (current..n).map(|i| i as NodeId) {
            let count = 1 + rng.random_range(0..3);
            for _ in 0..count {
                let v = popularity_pool[rng.random_range(0..popularity_pool.len())];
                if u != v && g.add_edge(u, v, t_base + offset) {
                    state.on_edge(u, v);
                    popularity_pool.push(v);
                    offset += 1;
                }
            }
        }

        // Awake nodes act.
        for &u0 in &awake {
            let rate = state.lifecycles[u0 as usize].daily_rate(cfg.edges_per_active_node);
            for _ in 0..poisson(&mut rng, rate) {
                for _try in 0..4 {
                    let roll: f64 = rng.random();
                    let (u, v, is_sub) = if roll < 0.08 {
                        // Supernode-to-supernode edges (see module docs).
                        // Collabs are community-aligned: among a few
                        // popular probes, pick the partner with the largest
                        // co-subscriber overlap — this makes these edges
                        // visible to structure-aware metrics rather than to
                        // raw degree products.
                        let a = popularity_pool[rng.random_range(0..popularity_pool.len())];
                        let mut best: Option<(usize, NodeId)> = None;
                        for _ in 0..3 {
                            let c = popularity_pool[rng.random_range(0..popularity_pool.len())];
                            if c == a {
                                continue;
                            }
                            // Approximate overlap: probe a's most recent
                            // neighbors against c's adjacency.
                            let na = &state.adj[a as usize];
                            let nc = &state.adj[c as usize];
                            let probe = na.len().min(30);
                            let overlap =
                                na[na.len() - probe..].iter().filter(|w| nc.contains(w)).count();
                            if best.is_none_or(|(b, _)| overlap > b) {
                                best = Some((overlap, c));
                            }
                        }
                        match best {
                            Some((_, b)) => (a, b, true),
                            None => continue,
                        }
                    } else if roll < subscribe_share {
                        // Subscription: subscriber side is fresh-biased.
                        let u = if rng.random::<f64>() < fresh_subscriber_bias {
                            (n - 1 - rng.random_range(0..fresh_window)) as NodeId
                        } else {
                            u0
                        };
                        // Channel discovery through co-subscription (a
                        // distance-3 closure; see module docs), otherwise
                        // pure popularity attachment.
                        let v = if rng.random::<f64>() < 0.45 {
                            state.closure3_target(u, 0.7, 0.4, &mut rng).unwrap_or_else(|| {
                                popularity_pool[rng.random_range(0..popularity_pool.len())]
                            })
                        } else {
                            popularity_pool[rng.random_range(0..popularity_pool.len())]
                        };
                        (u, v, true)
                    } else {
                        // Social closure among subscribers: a co-subscriber
                        // of one of u0's targets.
                        match state.closure_target(u0, 0.7, 0.3, &mut rng) {
                            Some(v) => (u0, v, false),
                            None => continue,
                        }
                    };
                    if u != v && g.add_edge(u, v, t_base + offset) {
                        state.on_edge(u, v);
                        if is_sub {
                            popularity_pool.push(v);
                        }
                        offset += 1;
                        break;
                    }
                }
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::snapshot::Snapshot;
    use osn_graph::stats;

    fn small_cfg() -> TraceConfig {
        TraceConfig::youtube_like().scaled(0.08).with_days(35)
    }

    #[test]
    fn trace_grows_on_both_axes() {
        let g = generate(&small_cfg(), 21);
        assert!(g.node_count() > 150);
        assert!(g.edge_count() > g.node_count() / 2);
    }

    #[test]
    fn supernodes_dominate_new_edges() {
        // §4.2: a large share of new edges touch the top 0.1% nodes. At our
        // scale the top-0.1% set is tiny, so test the top 1% instead — the
        // contrast with friendship networks is what matters.
        let g = generate(&small_cfg(), 23);
        let split = g.edge_count() * 3 / 4;
        let snap = Snapshot::up_to(&g, split);
        let new_edges: Vec<(NodeId, NodeId)> = g.edges()[split..]
            .iter()
            .filter(|e| (e.u.max(e.v) as usize) < snap.node_count())
            .map(|e| (e.u, e.v))
            .collect();
        let share = stats::top_degree_edge_share(&snap, &new_edges, 0.01);
        assert!(share > 0.25, "top-1% share only {share:.3}");
    }

    #[test]
    fn degree_distribution_is_heavy_tailed() {
        let g = generate(&small_cfg(), 25);
        let snap = Snapshot::up_to(&g, g.edge_count());
        let d = stats::degree_stats(&snap);
        assert!(d.max as f64 > 10.0 * d.mean, "max degree {} not ≫ mean {:.1}", d.max, d.mean);
    }

    #[test]
    fn closure_edges_exist() {
        // The neighborhood metrics need some 2-hop closures even here.
        let g = generate(&small_cfg(), 27);
        let snap = Snapshot::up_to(&g, g.edge_count());
        let tri: u64 = stats::triangle_counts(&snap).iter().sum();
        assert!(tri > 0, "subscription graph should still contain triangles");
    }

    #[test]
    #[should_panic(expected = "requires a Subscription config")]
    fn wrong_kind_panics() {
        let _ = generate(&TraceConfig::facebook_like(), 1);
    }
}
