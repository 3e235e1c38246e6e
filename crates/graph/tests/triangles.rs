//! The triangle kernel pinned to an oracle. `stats::triangle_counts`, the
//! degree-ordered forward count, must equal the per-wedge count it
//! replaced on random graphs: degree ties, a hub adjacent to every node,
//! isolated nodes. The counts memoized on a snapshot
//! ([`Snapshot::derived`]) must equal the kernel on every snapshot a sweep
//! or a live publish produces, so a memo that outlives its CSR fails here,
//! and concurrent first callers must count once.

use osn_graph::builder::SnapshotBuilder;
use osn_graph::live::LiveGraph;
use osn_graph::snapshot::Snapshot;
use osn_graph::stats;
use osn_graph::temporal::TemporalGraph;
use osn_graph::NodeId;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The memo key of the counts these tests derive.
struct Triangles;

/// `snap`'s triangle counts through its memo.
fn memoized(snap: &Snapshot) -> Arc<Vec<u64>> {
    snap.derived::<Triangles, Vec<u64>>(&[], || stats::triangle_counts(snap))
}

/// The oracle: the per-wedge count `stats::triangle_counts` ran before the
/// forward kernel. Each triangle is found exactly once at its lowest-id
/// vertex, with one `has_edge` binary search per wedge, then credited to
/// all three corners.
fn per_wedge_triangle_counts(snap: &Snapshot) -> Vec<u64> {
    let n = snap.node_count();
    let mut tri = vec![0u64; n];
    for u in 0..n as NodeId {
        let nu = snap.neighbors(u);
        for (i, &v) in nu.iter().enumerate() {
            if v <= u {
                continue;
            }
            for &w in &nu[i + 1..] {
                if w > v && snap.has_edge(v, w) {
                    tri[u as usize] += 1;
                    tri[v as usize] += 1;
                    tri[w as usize] += 1;
                }
            }
        }
    }
    tri
}

/// Strategy: `n` nodes, the last `isolated` of which get no edge; random
/// edges among the rest, and with `hub` set, node 0 joined to every other
/// non-isolated node. Small id ranges keep degree ties frequent.
fn arb_graph() -> impl Strategy<Value = Snapshot> {
    let raw = proptest::collection::vec((0u32..1000, 0u32..1000), 0..160);
    ((2usize..=40, 0usize..=8), 0u8..2, raw).prop_map(|((n, isolated), hub, raw)| {
        let active = (n - isolated.min(n - 2)) as NodeId;
        let mut edges: Vec<(NodeId, NodeId)> = raw
            .into_iter()
            .map(|(a, b)| (a % active, b % active))
            .filter(|(a, b)| a != b)
            .collect();
        if hub == 1 {
            edges.extend((1..active).map(|v| (0, v)));
        }
        edges.push((0, 1));
        Snapshot::from_edges(n, &edges)
    })
}

/// Strategy: a trace whose nodes arrive over time, every edge between
/// nodes that have arrived by its timestamp.
fn arb_trace() -> impl Strategy<Value = TemporalGraph> {
    (3usize..=10, proptest::collection::vec((0u32..1000, 0u32..1000), 4..80)).prop_map(
        |(initial, raw)| {
            let mut g = TemporalGraph::new();
            for _ in 0..initial {
                g.add_node(0);
            }
            for (i, (a, b)) in raw.into_iter().enumerate() {
                let t = (i as u64 + 1) * 2;
                if i % 4 == 0 {
                    g.add_node(t);
                }
                let n = g.node_count() as NodeId;
                let (u, v) = (a % n, b % n);
                if u != v {
                    g.add_edge(u, v, t);
                }
            }
            g
        },
    )
}

proptest! {
    /// The forward kernel counts exactly what the per-wedge oracle counts.
    #[test]
    fn kernel_matches_per_wedge_oracle(snap in arb_graph()) {
        prop_assert_eq!(stats::triangle_counts(&snap), per_wedge_triangle_counts(&snap));
    }

    /// At every builder prefix the memoized count equals a fresh kernel
    /// run on the same CSR. Each prefix reads the memo first, so a count
    /// kept across an advance would disagree as soon as a triangle closes.
    #[test]
    fn cached_counts_follow_every_builder_prefix(g in arb_trace()) {
        prop_assume!(g.edge_count() > 0);
        let mut builder = SnapshotBuilder::new(&g);
        for prefix in 1..=g.edge_count() {
            let snap = builder.advance_to(prefix).unwrap();
            let cached = memoized(snap).to_vec();
            prop_assert_eq!(cached, stats::triangle_counts(snap), "prefix {}", prefix);
        }
    }

    /// Every live publication, the empty version 0 included, memoizes the
    /// kernel's count of its own snapshot.
    #[test]
    fn cached_counts_follow_every_live_publish(g in arb_trace(), batch in 1usize..6) {
        let mut live = LiveGraph::new();
        let empty = live.publish();
        prop_assert_eq!(empty.version, 0);
        prop_assert_eq!(&memoized(&empty.snapshot)[..], &[] as &[u64]);
        for e in g.edges() {
            while live.node_count() <= e.u.max(e.v) as usize {
                live.ingest_node(g.arrival(live.node_count() as NodeId)).unwrap();
            }
            live.ingest_edge(e.u, e.v, e.t).unwrap();
            if live.pending_edges() >= batch {
                let p = live.publish();
                let fresh = stats::triangle_counts(&p.snapshot);
                prop_assert_eq!(&memoized(&p.snapshot)[..], &fresh[..], "version {}", p.version);
            }
        }
        let last = live.publish();
        let fresh = stats::triangle_counts(&last.snapshot);
        prop_assert_eq!(&memoized(&last.snapshot)[..], &fresh[..], "final version {}", last.version);
    }
}

#[test]
fn kernel_matches_oracle_on_tie_heavy_and_hub_graphs() {
    let complete: Vec<(NodeId, NodeId)> =
        (0..7).flat_map(|u| (u + 1..7).map(move |v| (u, v))).collect();
    let cycle: Vec<(NodeId, NodeId)> = (0..9).map(|u| (u, (u + 1) % 9)).collect();
    // A wheel: hub 0 adjacent to every node of a rim cycle.
    let wheel: Vec<(NodeId, NodeId)> = (1..9).flat_map(|u| [(0, u), (u, u % 8 + 1)]).collect();
    let disjoint = [(0, 1), (1, 2), (0, 2), (4, 5), (5, 6), (4, 6)];
    for (name, snap) in [
        ("K7", Snapshot::from_edges(7, &complete)),
        ("C9", Snapshot::from_edges(9, &cycle)),
        ("wheel", Snapshot::from_edges(9, &wheel)),
        ("two triangles, isolated 3 and 7", Snapshot::from_edges(8, &disjoint)),
    ] {
        assert_eq!(stats::triangle_counts(&snap), per_wedge_triangle_counts(&snap), "{name}");
    }
    // Spot values: K7 puts every node in C(6,2) = 15 triangles; the wheel
    // puts its hub in one per rim edge.
    assert_eq!(stats::triangle_counts(&Snapshot::from_edges(7, &complete)), vec![15; 7]);
    assert_eq!(stats::triangle_counts(&Snapshot::from_edges(9, &wheel))[0], 8);
}

#[test]
fn concurrent_first_callers_share_one_count() {
    let edges: Vec<(NodeId, NodeId)> =
        (0..40).flat_map(|u| [(u, (u + 1) % 40), (u, (u + 7) % 40)]).collect();
    let snap = Snapshot::from_edges(40, &edges);
    // Four threads reach the empty memo together, as serve workers
    // re-pinning one new version do: one of them counts, and every one
    // reads that count.
    let builds = AtomicUsize::new(0);
    let start = std::sync::Barrier::new(4);
    let first_call = || {
        start.wait();
        snap.derived::<Triangles, Vec<u64>>(&[], || {
            builds.fetch_add(1, Ordering::SeqCst);
            stats::triangle_counts(&snap)
        })
    };
    let counts: Vec<Arc<Vec<u64>>> = std::thread::scope(|scope| {
        let callers: Vec<_> = (0..4).map(|_| scope.spawn(first_call)).collect();
        callers.into_iter().map(|c| c.join().unwrap()).collect()
    });
    assert_eq!(builds.load(Ordering::SeqCst), 1, "one build for four first callers");
    assert!(counts.iter().all(|c| Arc::ptr_eq(c, &counts[0])), "all read the one count");
    assert_eq!(*counts[0], stats::triangle_counts(&snap));
}
