//! Property tests for the incremental snapshot engine and the binary
//! trace cache: randomized traces (staggered node arrivals, duplicate
//! attempts filtered by the substrate) must produce **bit-identical**
//! snapshots from [`SnapshotBuilder`] and [`Snapshot::up_to`] at every
//! sequence boundary, and a cache round-trip must reproduce the trace
//! exactly.

use osn_graph::builder::SnapshotBuilder;
use osn_graph::io;
use osn_graph::sequence::SnapshotSequence;
use osn_graph::snapshot::Snapshot;
use osn_graph::temporal::TemporalGraph;
use proptest::prelude::*;

/// `g` in the binary cache format, streamed in memory.
fn cache_bytes(g: &TemporalGraph) -> Vec<u8> {
    let mut w = io::CacheStreamWriter::new(Vec::new()).unwrap();
    for &t in g.arrivals() {
        w.push_arrival(t).unwrap();
    }
    for e in g.edges() {
        w.push_edge(e.u, e.v, e.t).unwrap();
    }
    w.finish().unwrap().0
}

/// Strategy: a trace whose nodes arrive over time — each raw edge (a, b)
/// is rebased so both endpoints exist by its timestamp, exercising the
/// builder's node-universe growth path as well as adjacency merging.
fn arb_staggered_trace() -> impl Strategy<Value = TemporalGraph> {
    (4usize..=12, proptest::collection::vec((0u32..1000, 0u32..1000), 6..60)).prop_map(
        |(initial, raw)| {
            let mut g = TemporalGraph::new();
            for _ in 0..initial {
                g.add_node(0);
            }
            for (i, (a, b)) in raw.into_iter().enumerate() {
                let t = (i as u64 + 1) * 3;
                // Every few edges a fresh node arrives and immediately
                // connects, keeping arrivals interleaved with edges.
                if i % 3 == 0 {
                    g.add_node(t);
                }
                let n = g.node_count() as u32;
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
    /// The tentpole guarantee: advancing one arena through every sequence
    /// boundary yields snapshots equal (derive(PartialEq): every CSR
    /// field) to a from-scratch build at that prefix.
    #[test]
    fn incremental_sweep_is_bit_identical(g in arb_staggered_trace(), delta in 1usize..7) {
        prop_assume!(g.edge_count() >= 2 * delta);
        let seq = SnapshotSequence::by_edge_delta(&g, delta);
        let mut sweep = seq.snapshots();
        let mut i = 0;
        while let Some(snap) = sweep.next() {
            prop_assert_eq!(snap, &seq.snapshot(i), "boundary {}", i);
            i += 1;
        }
        prop_assert_eq!(i, seq.len());
    }

    /// Same guarantee straight on the builder with arbitrary forward
    /// jumps (not just sequence boundaries) and an arbitrary window cap,
    /// covering tiny deltas, large deltas split across windows, and the
    /// first advance into an empty CSR.
    #[test]
    fn arbitrary_advances_match_up_to(
        g in arb_staggered_trace(),
        step in 1usize..9,
        max_window in 1usize..9,
    ) {
        prop_assume!(g.edge_count() >= 2);
        let mut b = SnapshotBuilder::with_max_window(&g, max_window);
        let mut prefix = 1;
        while prefix <= g.edge_count() {
            let snap = b.advance_to(prefix).unwrap();
            prop_assert_eq!(
                snap,
                &Snapshot::up_to(&g, prefix),
                "prefix {} window {}",
                prefix,
                max_window
            );
            prefix += step;
        }
    }

    /// Cache round-trip: the stream writer → read_cache reproduces
    /// arrivals and the exact edge log.
    #[test]
    fn cache_round_trip_is_exact(g in arb_staggered_trace()) {
        let buf = cache_bytes(&g);
        let back = io::read_cache(&buf[..]).unwrap();
        prop_assert_eq!(back.arrivals(), g.arrivals());
        prop_assert_eq!(back.edges(), g.edges());
    }

    /// Any single corrupted byte in the cache body is caught by the
    /// checksum (or the magic/version/length validation before it).
    #[test]
    fn cache_detects_single_byte_corruption(g in arb_staggered_trace(), pos in 0usize..64, flip in 1u8..=255) {
        let mut buf = cache_bytes(&g);
        let pos = pos % buf.len();
        buf[pos] ^= flip;
        prop_assert!(io::read_cache(&buf[..]).is_err(), "corruption at byte {} not detected", pos);
    }
}

/// The sweep is deterministic regardless of the thread count configured
/// for downstream consumers: snapshots are built single-threaded, so the
/// same trace yields the same bytes under any `LINKLENS_THREADS`-style
/// setting. (Run explicitly across thread counts since builder output
/// feeds parallel scoring everywhere.)
#[test]
fn sweep_equality_is_thread_count_invariant() {
    let mut g = TemporalGraph::new();
    for _ in 0..8 {
        g.add_node(0);
    }
    let mut t = 1;
    for i in 0..7u32 {
        for j in (i + 1)..8u32 {
            if (i + j) % 3 != 0 {
                g.add_edge(i, j, t);
                t += 2;
            }
        }
    }
    let seq = SnapshotSequence::by_edge_delta(&g, 3);
    let reference: Vec<Snapshot> = (0..seq.len()).map(|i| seq.snapshot(i)).collect();
    for threads in [1usize, 2, 4, 8] {
        // The builder itself takes no thread parameter; assert under a
        // worker pool of each size that parallel consumers observe the
        // same snapshot bytes (degree sums computed via the pool).
        let mut sweep = seq.snapshots();
        let mut i = 0;
        while let Some(snap) = sweep.next() {
            assert_eq!(snap, &reference[i], "threads={threads} boundary={i}");
            let degs =
                osn_graph::par::run_indexed(snap.node_count(), threads, |u| snap.degree(u as u32));
            assert_eq!(degs.iter().sum::<usize>(), 2 * snap.edge_count());
            i += 1;
        }
    }
}
