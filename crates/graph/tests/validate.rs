//! Property tests for [`Snapshot::validate`]: every snapshot the public
//! constructors can produce — from-scratch prefixes, incremental builder
//! sweeps, induced subgraphs — satisfies the full CSR invariant contract,
//! while hand-corrupted representations are rejected with an error naming
//! the offending location.

use osn_graph::builder::SnapshotBuilder;
use osn_graph::sequence::SnapshotSequence;
use osn_graph::snapshot::Snapshot;
use osn_graph::temporal::TemporalGraph;
use proptest::prelude::*;

/// Strategy: a trace with staggered node arrivals (same shape as the
/// incremental-engine tests), so validation covers growing node universes
/// and isolated late arrivals.
fn arb_staggered_trace() -> impl Strategy<Value = TemporalGraph> {
    (4usize..=12, proptest::collection::vec((0u32..1000, 0u32..1000), 6..60)).prop_map(
        |(initial, raw)| {
            let mut g = TemporalGraph::new();
            for _ in 0..initial {
                g.add_node(0);
            }
            for (i, (a, b)) in raw.into_iter().enumerate() {
                let t = (i as u64 + 1) * 3;
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
    /// Every from-scratch prefix snapshot validates.
    #[test]
    fn up_to_always_validates(g in arb_staggered_trace(), step in 1usize..9) {
        prop_assume!(g.edge_count() >= 1);
        let mut prefix = 1;
        while prefix <= g.edge_count() {
            let s = Snapshot::up_to(&g, prefix);
            prop_assert!(s.validate().is_ok(), "prefix {}: {:?}", prefix, s.validate());
            prefix += step;
        }
    }

    /// Every snapshot an incremental builder sweep produces validates.
    /// (The builder also self-checks after each advance under
    /// `debug_assertions`; this asserts the public contract explicitly and
    /// keeps failing even if that hook is ever weakened.)
    #[test]
    fn builder_sweep_always_validates(g in arb_staggered_trace(), delta in 1usize..7) {
        prop_assume!(g.edge_count() >= 2 * delta);
        let seq = SnapshotSequence::by_edge_delta(&g, delta);
        let mut sweep = seq.snapshots();
        let mut i = 0;
        while let Some(snap) = sweep.next() {
            prop_assert!(snap.validate().is_ok(), "boundary {}: {:?}", i, snap.validate());
            i += 1;
        }
        prop_assert_eq!(i, seq.len());
    }

    /// Arbitrary forward jumps through one builder arena validate at every
    /// stop, including the first advance into an empty CSR.
    #[test]
    fn arbitrary_advances_validate(g in arb_staggered_trace(), step in 1usize..9) {
        prop_assume!(g.edge_count() >= 2);
        let mut b = SnapshotBuilder::new(&g);
        let mut prefix = 1;
        while prefix <= g.edge_count() {
            let s = b.advance_to(prefix).unwrap();
            prop_assert!(s.validate().is_ok(), "prefix {}: {:?}", prefix, s.validate());
            prefix += step;
        }
    }
}

/// A paranoid-mode smoke: with the flag set, sweeps still validate (the
/// audit hook panics inside `advance_to` on corruption, so survival of the
/// sweep *is* the assertion).
#[test]
fn paranoid_sweep_smoke() {
    osn_graph::audit::set_paranoid(true);
    let mut g = TemporalGraph::new();
    for _ in 0..10 {
        g.add_node(0);
    }
    let mut t = 1;
    for i in 0..9u32 {
        for j in (i + 1)..10u32 {
            if (i * 31 + j) % 4 != 0 {
                g.add_edge(i, j, t);
                t += 3;
            }
        }
    }
    let seq = SnapshotSequence::by_edge_delta(&g, 5);
    let mut sweep = seq.snapshots();
    let mut count = 0;
    while let Some(snap) = sweep.next() {
        assert!(snap.validate().is_ok());
        count += 1;
    }
    assert_eq!(count, seq.len());
    osn_graph::audit::set_paranoid(false);
}

// Hand-corrupted CSR rejection (unsorted neighbors, bad offsets,
// asymmetric edges, self-loops, count/time corruption) is covered by the
// unit tests in `src/snapshot.rs`, which can reach the crate-private CSR
// fields to plant each corruption.
