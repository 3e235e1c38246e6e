//! Incremental snapshot construction for constant-edge-delta sweeps.
//!
//! Every experiment in the paper walks a [`crate::sequence::SnapshotSequence`]
//! boundary by boundary (§3.2: 15+ snapshots per trace). Building each
//! boundary with [`Snapshot::up_to`] re-scatters and re-sorts the whole
//! prefix, so a full sweep is O(S·E·log deg). [`SnapshotBuilder`] instead
//! keeps the CSR of the *current* snapshot and produces the next one with
//! a single out-of-place streaming merge into a double buffer:
//!
//! 1. the delta is bucketed by node with a counting sort — per-node
//!    counts, a prefix sum, and a scatter into a Δ-sized staging buffer
//!    (no comparison sort of the delta; each node's few entries are
//!    sorted in place, and most have 0 or 1);
//! 2. one forward pass over the nodes writes the new CSR: a node with no
//!    delta entries has its adjacency run copied verbatim — and *maximal
//!    runs of consecutive untouched nodes are copied as one block* — while
//!    a touched node's run is linearly merged with its sorted delta group;
//! 3. the old and new buffers swap, so each advance reads the snapshot it
//!    just produced.
//!
//! Every pass is sequential (the only random access is the scatter into
//! the Δ-sized, cache-resident staging buffer), so an advance costs one
//! streaming rewrite of the CSR plus O(Δ) delta prep — no per-node
//! allocation, no full sort, and no shifting dance. The first advance is
//! just a large delta merged into an empty CSR, so no separate rebuild
//! path exists.
//!
//! The builder reads its delta through a [`TraceReader`], in windows of
//! at most `max_window` edges, so one builder serves every trace: a
//! borrowed in-core [`crate::temporal::TemporalGraph`] (windows are slice
//! copies) and the file-backed [`crate::io::SectionedCacheReader`]
//! (windows are section-aligned reads), which holds only the arrival
//! vector and one window instead of the whole edge list. The double
//! buffer holds `2 × edge_count` entries per side from the start: grown
//! by doubling instead, the last advances would hold a front buffer up to
//! twice the final CSR beside the back buffer being written. An advance
//! allocates only when a window outgrows the staging buffer.
//!
//! The result is **bit-identical** to `Snapshot::up_to` at every prefix
//! and for every window cap (asserted by property tests in
//! `crates/graph/tests/incremental.rs`): adjacency lists hold unique
//! neighbor ids, so the sorted order the merge maintains is exactly the
//! order `up_to` produces, and a delta split across windows merges to the
//! same CSR as one big merge. The window cap is a pure I/O knob.

use crate::io::{TraceIoError, TraceReader};
use crate::snapshot::Snapshot;
use crate::temporal::TimedEdge;
use crate::{NodeId, Timestamp};

/// Default cap on edges held in the active delta window (16 MiB of
/// `TimedEdge`).
pub const DEFAULT_WINDOW_EDGES: usize = 1 << 20;

/// The trace-independent merge core: the counting-sort scratch one merge
/// of a delta into a CSR needs, kept between merges. [`SnapshotBuilder`]
/// runs it between its two buffers; [`crate::live::LiveGraph`] runs it
/// from its current publication into the next one.
#[derive(Debug, Default)]
pub(crate) struct MergeScratch {
    /// Per-node delta-entry offsets (prefix sums of counts), length
    /// `node_count + 1`; `doff[u]..doff[u + 1]` indexes `staging`.
    doff: Vec<u32>,
    /// Write cursors during the delta scatter.
    dcur: Vec<u32>,
    /// The delta's directed entries grouped by source node.
    staging: Vec<(NodeId, Timestamp)>,
}

/// Reusable double-buffered arena that advances a [`Snapshot`] forward
/// through a trace by merging only the delta edges between consecutive
/// prefixes, read from `R` in windows of at most `max_window` edges.
#[derive(Debug)]
pub struct SnapshotBuilder<R: TraceReader> {
    reader: R,
    /// The snapshot at the current prefix (empty before the first
    /// advance).
    snap: Snapshot,
    /// The back buffer the next merge writes into, swapped with `snap`
    /// after each merge.
    back: Snapshot,
    scratch: MergeScratch,
    /// The delta window last read.
    window: Vec<TimedEdge>,
    max_window: usize,
}

impl Snapshot {
    /// The snapshot of no edges and no nodes, with room reserved for
    /// `node_capacity` nodes and `entry_capacity` directed CSR entries.
    pub(crate) fn empty(node_capacity: usize, entry_capacity: usize) -> Self {
        let mut offsets = Vec::with_capacity(node_capacity + 1);
        offsets.push(0);
        Snapshot {
            n: 0,
            offsets,
            neighbors: Vec::with_capacity(entry_capacity),
            edge_times: Vec::with_capacity(entry_capacity),
            time: 0,
            edge_count: 0,
            prefix_len: 0,
            memo: Default::default(),
        }
    }
}

impl<R: TraceReader> SnapshotBuilder<R> {
    /// Creates a builder positioned before the first edge of `reader`'s
    /// trace, with the default window cap.
    pub fn new(reader: R) -> Self {
        Self::with_max_window(reader, DEFAULT_WINDOW_EDGES)
    }

    /// Creates a builder with an explicit cap on the edges resident in the
    /// delta window. Any positive cap produces identical snapshots; small
    /// caps trade reads and merges for memory. The CSR double buffer is
    /// reserved for the whole trace here, once.
    pub fn with_max_window(reader: R, max_window: usize) -> Self {
        assert!(max_window > 0, "window must hold at least one edge");
        let (nodes, entries) = (reader.node_count(), 2 * reader.edge_count());
        SnapshotBuilder {
            reader,
            snap: Snapshot::empty(nodes, entries),
            back: Snapshot::empty(nodes, entries),
            scratch: MergeScratch {
                doff: vec![0; nodes + 1],
                dcur: vec![0; nodes],
                staging: Vec::new(),
            },
            window: Vec::new(),
            max_window,
        }
    }

    /// Advances to the snapshot holding the first `prefix_len` edges and
    /// returns a borrowed view of it, reading the delta in windows of at
    /// most `max_window` edges, each merged into the CSR as it is read.
    /// Re-requesting the current prefix is a no-op returning the same
    /// view.
    ///
    /// A failed window read is returned as is. A pair the trace holds
    /// twice is a [`TraceIoError::Cache`] naming it, whether its copies
    /// fall in one window or in two. Either way the builder keeps the
    /// snapshot of the last window merged cleanly, and never returns a
    /// snapshot with a repeated neighbour.
    ///
    /// # Panics
    /// Panics if `prefix_len` is zero, exceeds the trace length, or moves
    /// backwards (snapshots are append-only; build a fresh builder to
    /// rewind).
    pub fn advance_to(&mut self, prefix_len: usize) -> Result<&Snapshot, TraceIoError> {
        assert!(prefix_len > 0, "a snapshot needs at least one edge");
        assert!(prefix_len <= self.reader.edge_count(), "prefix exceeds trace length");
        let mut cur = self.snap.prefix_len;
        assert!(
            prefix_len >= cur,
            "SnapshotBuilder cannot rewind (at {cur}, asked for {prefix_len})"
        );
        while cur < prefix_len {
            let end = prefix_len.min(cur + self.max_window);
            self.reader.read_edge_window(cur, end, &mut self.window)?;
            // linklens-allow(unwrap-in-lib): the loop guard makes the window non-empty
            let time = self.window.last().expect("non-empty delta window").t;
            let new_n = self.reader.nodes_at(time);
            self.scratch
                .merge(&self.snap, &self.window, new_n, time, end, &mut self.back)
                .map_err(|(u, v)| crate::io::repeated_pair(u, v))?;
            std::mem::swap(&mut self.snap, &mut self.back);
            // The values derived from the previous snapshot describe a
            // prefix no reader can ask for any more.
            self.back.clear_caches();
            cur = end;
        }
        if crate::audit::audit_enabled() {
            if let Err(e) = self.snap.validate() {
                panic!("snapshot invariant violated after advance to prefix {prefix_len}: {e}");
            }
        }
        Ok(&self.snap)
    }
}

impl MergeScratch {
    /// Writes into `out` the snapshot at `prefix_len` (global edge count):
    /// `old` with the chronological delta `edges` folded in. It
    /// counting-sorts the delta by node, then stream-merges `old`'s CSR
    /// with it. `new_n` is the node universe at `time` (the timestamp of
    /// the delta's last edge). `out`'s previous contents are discarded and
    /// its buffers reused: each is sized once, to the merged length, before
    /// the merge writes it.
    ///
    /// Applying one delta or the same edges split across several calls
    /// yields bit-identical CSRs — every merge reproduces exactly the
    /// `Snapshot::up_to` layout for its prefix — which is what lets
    /// windowed sweeps pick their read size freely.
    ///
    /// A pair already in `old`, or twice in `edges`, is an `Err` naming
    /// the pair (canonical). The merge sees every such repeat as two equal
    /// neighbours, either side by side in a sorted delta group or where a
    /// delta entry meets the old run, so the check costs one comparison per
    /// delta entry. On `Err`, `out` holds no valid snapshot.
    pub(crate) fn merge(
        &mut self,
        old: &Snapshot,
        edges: &[TimedEdge],
        new_n: usize,
        time: Timestamp,
        prefix_len: usize,
        out: &mut Snapshot,
    ) -> Result<(), (NodeId, NodeId)> {
        let old_n = old.n;
        debug_assert!(new_n >= old_n, "node arrivals are non-decreasing");
        if self.dcur.len() < new_n {
            self.dcur.resize(new_n, 0);
            self.doff.resize(new_n + 1, 0);
        }

        // 1. Bucket the delta by node: counts, prefix sums, scatter. The
        // staging buffer is Δ-sized, so the scatter stays cache-resident.
        self.dcur[..new_n].fill(0);
        for e in edges {
            self.dcur[e.u as usize] += 1;
            self.dcur[e.v as usize] += 1;
        }
        self.doff[0] = 0;
        for u in 0..new_n {
            self.doff[u + 1] = self.doff[u] + self.dcur[u];
        }
        self.staging.resize(self.doff[new_n] as usize, (0, 0));
        self.dcur[..new_n].copy_from_slice(&self.doff[..new_n]);
        for e in edges {
            let (u, v) = (e.u as usize, e.v as usize);
            self.staging[self.dcur[u] as usize] = (e.v, e.t);
            self.dcur[u] += 1;
            self.staging[self.dcur[v] as usize] = (e.u, e.t);
            self.dcur[v] += 1;
        }

        // 2. Stream-merge the old CSR + delta groups into `out`, sized
        // once for the merged lengths. Maximal runs of consecutive
        // untouched nodes are copied as one block; touched nodes get a
        // linear two-run merge.
        let old_offsets = &old.offsets;
        let old_nbr = &old.neighbors;
        let old_tm = &old.edge_times;
        let old_end = old_offsets[old_n];
        let old_off = |u: usize| old_offsets[u.min(old_n)];
        let (off2, nbr2, tm2) = (&mut out.offsets, &mut out.neighbors, &mut out.edge_times);
        off2.clear();
        nbr2.clear();
        tm2.clear();
        off2.reserve(new_n + 1);
        nbr2.reserve(2 * prefix_len);
        tm2.reserve(2 * prefix_len);
        off2.push(0);
        let mut u = 0usize;
        while u < new_n {
            if self.doff[u + 1] == self.doff[u] {
                // Untouched run [u, u2): one block copy, offsets shift by
                // the delta entries already emitted.
                let mut u2 = u + 1;
                while u2 < new_n && self.doff[u2 + 1] == self.doff[u2] {
                    u2 += 1;
                }
                let (lo, hi) = (old_off(u), old_off(u2));
                let shift = nbr2.len() - lo;
                nbr2.extend_from_slice(&old_nbr[lo..hi]);
                tm2.extend_from_slice(&old_tm[lo..hi]);
                for w in u..u2 {
                    off2.push(old_off(w + 1) + shift);
                }
                u = u2;
                continue;
            }
            // Touched node: sort its (tiny) delta group, then linearly
            // merge it with the old adjacency run.
            let group = &mut self.staging[self.doff[u] as usize..self.doff[u + 1] as usize];
            if group.len() > 1 {
                group.sort_unstable_by_key(|&(v, _)| v);
                if let Some(w) = group.windows(2).find(|w| w[0].0 == w[1].0) {
                    return Err(crate::canonical(u as NodeId, w[0].0));
                }
            }
            let group = &self.staging[self.doff[u] as usize..self.doff[u + 1] as usize];
            let (lo, hi) = (old_off(u), old_off(u + 1));
            let mut i = lo;
            let mut j = 0usize;
            let mut repeat = None;
            while i < hi && j < group.len() {
                if old_nbr[i] < group[j].0 {
                    nbr2.push(old_nbr[i]);
                    tm2.push(old_tm[i]);
                    i += 1;
                } else {
                    if old_nbr[i] == group[j].0 {
                        repeat = Some(group[j].0);
                    }
                    nbr2.push(group[j].0);
                    tm2.push(group[j].1);
                    j += 1;
                }
            }
            if let Some(v) = repeat {
                return Err(crate::canonical(u as NodeId, v));
            }
            if i < hi {
                nbr2.extend_from_slice(&old_nbr[i..hi]);
                tm2.extend_from_slice(&old_tm[i..hi]);
            }
            for &(v, t) in &group[j..] {
                nbr2.push(v);
                tm2.push(t);
            }
            off2.push(nbr2.len());
            u += 1;
        }
        debug_assert_eq!(nbr2.len(), old_end + self.staging.len());
        debug_assert_eq!(nbr2.len(), 2 * prefix_len);

        // 3. Stamp the merged CSR. Any value derived from `out` describes
        // an older prefix.
        out.n = new_n;
        out.time = time;
        out.edge_count = prefix_len;
        out.prefix_len = prefix_len;
        out.clear_caches();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temporal::TemporalGraph;

    /// Trace where nodes arrive over time and edge times are staggered, so
    /// node-universe growth and edge-time carrying are both exercised.
    fn staggered(n: usize) -> TemporalGraph {
        let mut g = TemporalGraph::new();
        g.add_node(0);
        g.add_node(0);
        g.add_edge(0, 1, 1);
        for i in 2..n {
            let t = 10 * i as u64;
            g.add_node(t);
            g.add_edge((i / 2) as NodeId, i as NodeId, t);
            if i >= 3 {
                g.add_edge((i - 1) as NodeId, i as NodeId, t + 1);
            }
        }
        g
    }

    #[test]
    fn single_step_advances_match_up_to() {
        let g = staggered(12);
        let mut b = SnapshotBuilder::new(&g);
        for prefix in 1..=g.edge_count() {
            let inc = b.advance_to(prefix).unwrap();
            let scratch = Snapshot::up_to(&g, prefix);
            assert_eq!(inc, &scratch, "prefix {prefix}");
        }
    }

    #[test]
    fn jumping_advances_match_up_to() {
        let g = staggered(16);
        for step in [2, 3, 5, 7] {
            let mut b = SnapshotBuilder::new(&g);
            let mut prefix = 1;
            while prefix <= g.edge_count() {
                assert_eq!(
                    b.advance_to(prefix).unwrap(),
                    &Snapshot::up_to(&g, prefix),
                    "step {step} prefix {prefix}"
                );
                prefix += step;
            }
        }
    }

    #[test]
    fn window_splits_match_up_to() {
        let g = staggered(20);
        for max_window in [1usize, 3, 7, DEFAULT_WINDOW_EDGES] {
            let mut b = SnapshotBuilder::with_max_window(&g, max_window);
            for prefix in [1usize, 2, 5, 17, g.edge_count()] {
                assert_eq!(
                    b.advance_to(prefix).unwrap(),
                    &Snapshot::up_to(&g, prefix),
                    "window {max_window} prefix {prefix}"
                );
            }
        }
    }

    #[test]
    fn advance_invalidates_degree_tables() {
        struct InvDeg;
        let g = staggered(10);
        let mut b = SnapshotBuilder::new(&g);
        for prefix in [3usize, 6, g.edge_count()] {
            let snap = b.advance_to(prefix).unwrap();
            // Derive a degree table at this prefix, then check it against
            // the live degrees: a table memoized at the previous prefix
            // would disagree the moment any node gained an edge.
            let tables = snap.derived::<InvDeg, Vec<f64>>(&[], || {
                (0..snap.node_count() as NodeId).map(|u| 1.0 / snap.degree(u) as f64).collect()
            });
            assert_eq!(tables.len(), snap.node_count(), "prefix {prefix}");
            for u in 0..snap.node_count() as NodeId {
                assert_eq!(
                    tables[u as usize],
                    1.0 / snap.degree(u) as f64,
                    "prefix {prefix} node {u}"
                );
            }
        }
    }

    #[test]
    fn readvancing_same_prefix_is_stable() {
        let g = staggered(8);
        let mut b = SnapshotBuilder::new(&g);
        let first = b.advance_to(5).unwrap().clone();
        assert_eq!(b.advance_to(5).unwrap(), &first);
        assert_eq!(first.prefix_len(), 5);
    }

    #[test]
    #[should_panic(expected = "cannot rewind")]
    fn rewinding_panics() {
        let g = staggered(8);
        let mut b = SnapshotBuilder::new(&g);
        b.advance_to(6).unwrap();
        let _ = b.advance_to(3);
    }

    #[test]
    #[should_panic(expected = "prefix exceeds")]
    fn overrunning_the_trace_panics() {
        let g = staggered(8);
        let mut b = SnapshotBuilder::new(&g);
        let _ = b.advance_to(g.edge_count() + 1);
    }
}
