//! The friendship-network growth model (Facebook / Renren style).
//!
//! Every simulated day:
//!
//! 1. the population grows toward `n₀·e^{r·day}`; new arrivals start awake
//!    and bootstrap a couple of edges immediately;
//! 2. every awake node initiates `Poisson(rate)` edges;
//! 3. each edge picks its destination by a mixture of *recency-biased
//!    triadic closure* (share interpolating from `closure_start` to
//!    `closure_end` across the trace), *degree-proportional attachment*,
//!    and *uniform attachment*.
//!
//! The closure share schedule is the λ₂ control: Renren-like (rising)
//! versus Facebook-like (decaying, emulating the regional-subsampling
//! artefact the paper describes in §4.2). Recency bias is the Fig. 15
//! control: closing triads through recently created edges makes positive
//! pairs have small common-neighbor time gaps.

use crate::config::{NetworkKind, TraceConfig};
use crate::lifecycle::{poisson, Lifecycle, LifecycleParams};
use crate::GrowthTrace;
use osn_graph::{NodeId, DAY};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs the friendship model.
///
/// # Panics
/// Panics if `cfg.kind` is not [`NetworkKind::Friendship`]. Its one caller,
/// [`TraceConfig::generate`], calls it only for that kind.
pub(crate) fn generate(cfg: &TraceConfig, seed: u64) -> GrowthTrace {
    let NetworkKind::Friendship {
        closure_start,
        closure_end,
        preferential,
        recency_bias,
        recency_window,
    } = cfg.kind
    else {
        // linklens-allow(panic-in-deterministic-path): TraceConfig::generate, the only caller, dispatches here on this kind
        panic!("friendship::generate requires a Friendship config");
    };
    let params = LifecycleParams {
        session_days: cfg.session_days,
        idle_days: cfg.idle_days,
        dormant_fraction: cfg.dormant_fraction,
        aging: 0.15,
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF41E_27D5_38C0_11A7);
    let mut g = GrowthTrace::new();
    let mut state = State::default();

    // Day 0: seed population and a sparse random seed graph.
    for _ in 0..cfg.initial_nodes {
        let id = g.add_node(0);
        state.on_node(id, &params, 0.0, &mut rng);
    }
    let mut offset: u64 = 1;
    let mut planted = 0usize;
    let mut attempts = 0usize;
    while planted < cfg.initial_edges && attempts < cfg.initial_edges * 20 {
        attempts += 1;
        let u = rng.random_range(0..cfg.initial_nodes) as NodeId;
        // Mix of uniform pairs and closures so the seed graph already has
        // triangles (metrics need a non-degenerate neighborhood structure).
        let v = if rng.random::<f64>() < 0.5 {
            state.closure_target(u, recency_bias, recency_window, &mut rng)
        } else {
            None
        }
        .unwrap_or_else(|| rng.random_range(0..cfg.initial_nodes) as NodeId);
        if u != v && g.add_edge(u, v, offset) {
            state.on_edge(u, v);
            planted += 1;
            offset += 1;
        }
    }

    // Growth days.
    for day in 1..=cfg.days as usize {
        let day_f = day as f64;
        let t_base = day as u64 * DAY;
        let mut offset: u64 = 1;

        // Arrivals toward the exponential population target.
        let target =
            (cfg.initial_nodes as f64 * (cfg.node_growth_rate * day_f).exp()).round() as usize;
        let current = g.node_count();
        for _ in current..target.max(current) {
            let id = g.add_node(t_base);
            state.on_node(id, &params, day_f, &mut rng);
        }

        // Who is awake today?
        let n = g.node_count();
        let mut awake: Vec<NodeId> = Vec::new();
        for u in 0..n as NodeId {
            if state.lifecycles[u as usize].awake(&params, day_f, &mut rng) {
                awake.push(u);
            }
        }

        let closure_share = closure_start + (closure_end - closure_start) * day_f / cfg.days as f64;

        // Newly arrived nodes bootstrap 1–3 edges each.
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
                    &mut rng,
                ) {
                    if g.add_edge(u, v, t_base + offset) {
                        state.on_edge(u, v);
                        offset += 1;
                    }
                }
            }
        }

        // Awake nodes initiate edges.
        for &u in &awake {
            let rate = state.lifecycles[u as usize].daily_rate(cfg.edges_per_active_node);
            let initiations = poisson(&mut rng, rate);
            for _ in 0..initiations {
                for _try in 0..4 {
                    let Some(v) = state.pick_target(
                        u,
                        closure_share,
                        preferential,
                        recency_bias,
                        recency_window,
                        n,
                        &mut rng,
                    ) else {
                        continue;
                    };
                    // Prefer awake destinations (the paper's "both nodes
                    // recently active" property): accept idle targets with
                    // reduced probability.
                    let v_awake = state.lifecycles[v as usize].awake(&params, day_f, &mut rng);
                    if !v_awake && rng.random::<f64>() < 0.65 {
                        continue;
                    }
                    // Assortative acceptance: friendship formation requires
                    // joint effort (the paper's §4.2 argument for why PA
                    // fails on Renren/Facebook), which empirically links
                    // similar-degree users. Accept with probability rising
                    // in the degree ratio.
                    let du = state.adj[u as usize].len() as f64 + 1.0;
                    let dv = state.adj[v as usize].len() as f64 + 1.0;
                    let ratio = (du.min(dv) / du.max(dv)).powf(0.5);
                    if rng.random::<f64>() > 0.15 + 0.85 * ratio {
                        continue;
                    }
                    if g.add_edge(u, v, t_base + offset) {
                        state.on_edge(u, v);
                        offset += 1;
                        break;
                    }
                }
            }
        }
    }
    g
}

/// Mutable generator state shared by both growth models.
#[derive(Default)]
pub(crate) struct State {
    /// Adjacency in creation order (tail = most recent).
    pub adj: Vec<Vec<NodeId>>,
    /// Each edge contributes both endpoints: uniform sampling from this is
    /// degree-proportional node sampling.
    pub endpoint_pool: Vec<NodeId>,
    /// Activity lifecycles, indexed by node.
    pub lifecycles: Vec<Lifecycle>,
}

impl State {
    pub fn on_node<R: Rng>(&mut self, id: NodeId, params: &LifecycleParams, day: f64, rng: &mut R) {
        debug_assert_eq!(id as usize, self.adj.len());
        self.adj.push(Vec::new());
        self.lifecycles.push(Lifecycle::spawn(params, day, rng));
    }

    pub fn on_edge(&mut self, u: NodeId, v: NodeId) {
        self.adj[u as usize].push(v);
        self.adj[v as usize].push(u);
        self.endpoint_pool.push(u);
        self.endpoint_pool.push(v);
    }

    /// Draws a neighbor of `u`, biased toward the most recent
    /// `window`-fraction of the adjacency list with probability `bias`.
    fn recent_neighbor<R: Rng>(
        &self,
        u: NodeId,
        bias: f64,
        window: f64,
        rng: &mut R,
    ) -> Option<NodeId> {
        let nbrs = &self.adj[u as usize];
        if nbrs.is_empty() {
            return None;
        }
        if rng.random::<f64>() < bias {
            let w = ((nbrs.len() as f64 * window).ceil() as usize).clamp(1, nbrs.len());
            Some(nbrs[nbrs.len() - w + rng.random_range(0..w)])
        } else {
            Some(nbrs[rng.random_range(0..nbrs.len())])
        }
    }

    /// Two-step recency-biased triadic closure: neighbor of a neighbor.
    pub fn closure_target<R: Rng>(
        &self,
        u: NodeId,
        bias: f64,
        window: f64,
        rng: &mut R,
    ) -> Option<NodeId> {
        let w = self.recent_neighbor(u, bias, window, rng)?;
        let v = self.recent_neighbor(w, bias, window, rng)?;
        if v == u {
            None
        } else {
            Some(v)
        }
    }

    /// Three-step recency-biased closure: in a bipartite-ish subscription
    /// graph this is *channel discovery* — from a subscriber, through one
    /// of their channels, through a co-subscriber, to that person's other
    /// channel. The resulting pair is at distance 3: invisible to the
    /// common-neighborhood metrics but exactly what the latent-space
    /// metrics (Rescal, Katz) rank — the paper's YouTube story (§4.2).
    pub fn closure3_target<R: Rng>(
        &self,
        u: NodeId,
        bias: f64,
        window: f64,
        rng: &mut R,
    ) -> Option<NodeId> {
        let w = self.recent_neighbor(u, bias, window, rng)?;
        let s = self.recent_neighbor(w, bias, window, rng)?;
        let v = self.recent_neighbor(s, bias, window, rng)?;
        if v == u || self.adj[u as usize].contains(&v) {
            None
        } else {
            Some(v)
        }
    }

    /// Degree-proportional draw over all nodes.
    pub fn preferential_target<R: Rng>(&self, rng: &mut R) -> Option<NodeId> {
        if self.endpoint_pool.is_empty() {
            None
        } else {
            Some(self.endpoint_pool[rng.random_range(0..self.endpoint_pool.len())])
        }
    }

    /// The full destination mixture used by the friendship model (shared
    /// with the streaming generator in [`crate::stream`]).
    #[allow(clippy::too_many_arguments)]
    pub fn pick_target<R: Rng>(
        &self,
        u: NodeId,
        closure_share: f64,
        preferential: f64,
        bias: f64,
        window: f64,
        n: usize,
        rng: &mut R,
    ) -> Option<NodeId> {
        let roll: f64 = rng.random();
        let v = if roll < closure_share {
            self.closure_target(u, bias, window, rng).or_else(|| self.preferential_target(rng))
        } else if roll < closure_share + (1.0 - closure_share) * preferential {
            self.preferential_target(rng)
        } else {
            Some(rng.random_range(0..n) as NodeId)
        }?;
        if v == u {
            None
        } else {
            Some(v)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osn_graph::snapshot::Snapshot;
    use osn_graph::stats;

    fn small_cfg() -> TraceConfig {
        TraceConfig::facebook_like().scaled(0.05).with_days(30)
    }

    #[test]
    fn trace_is_well_formed() {
        let g = generate(&small_cfg(), 11);
        // TemporalGraph invariants (monotone times, no dupes) are enforced
        // at insertion; check growth happened on both axes.
        assert!(g.node_count() > 75);
        assert!(g.edge_count() > g.node_count());
        let span_days = (g.end_time().unwrap() - g.start_time().unwrap()) / DAY;
        assert!(span_days >= 25, "trace should span most simulated days, got {span_days}");
    }

    #[test]
    fn nodes_keep_arriving() {
        let g = generate(&small_cfg(), 11);
        let early = g.nodes_at(5 * DAY);
        let late = g.nodes_at(25 * DAY);
        assert!(late > early, "population must grow ({early} → {late})");
    }

    #[test]
    fn closure_produces_triangles() {
        let g = generate(&small_cfg(), 13);
        let s = Snapshot::up_to(&g, g.edge_count());
        assert!(
            stats::avg_clustering(&s) > 0.03,
            "clustering {:.4} too low for a friendship net",
            stats::avg_clustering(&s)
        );
    }

    #[test]
    fn positive_pairs_come_from_active_nodes() {
        // The temporal-filter premise (Fig. 13): endpoints of new edges
        // have shorter idle times than random nodes.
        let g = generate(&TraceConfig::renren_like().scaled(0.08).with_days(40), 17);
        let split = g.edge_count() * 3 / 4;
        let snap = Snapshot::up_to(&g, split);
        let t = snap.time();
        let mut new_edge_idle: Vec<u64> = Vec::new();
        for e in &g.edges()[split..] {
            if (e.u as usize) < snap.node_count() && (e.v as usize) < snap.node_count() {
                for node in [e.u, e.v] {
                    if let Some(last) = snap.last_activity(node) {
                        new_edge_idle.push(t - last);
                    }
                }
            }
        }
        let mut all_idle: Vec<u64> = (0..snap.node_count() as NodeId)
            .filter_map(|u| snap.last_activity(u).map(|l| t - l))
            .collect();
        assert!(!new_edge_idle.is_empty() && !all_idle.is_empty());
        new_edge_idle.sort_unstable();
        all_idle.sort_unstable();
        let med = |v: &Vec<u64>| v[v.len() / 2];
        assert!(
            med(&new_edge_idle) < med(&all_idle),
            "median idle of edge-creating nodes ({}) should undercut population ({})",
            med(&new_edge_idle),
            med(&all_idle)
        );
    }

    #[test]
    #[should_panic(expected = "requires a Friendship config")]
    fn wrong_kind_panics() {
        let cfg = TraceConfig::youtube_like();
        let _ = generate(&cfg, 1);
    }
}
