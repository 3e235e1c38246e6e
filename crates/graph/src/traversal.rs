//! BFS distances and candidate-pair enumeration.
//!
//! The metric-based predictors never need scores for arbitrary pairs: every
//! neighborhood metric is zero beyond 2 hops, the Local Path metric is zero
//! beyond 3 hops, and the paper observes predictions are dominated by 2-hop
//! pairs (§4.2). One enumerator per candidate shape produces exactly those
//! sets, deduplicated and with `u < v`: [`two_hop_pairs`] and
//! [`within3_pairs`] over the whole graph, [`two_hop_pairs_among`] and
//! [`all_pairs_among`] over a sampled node subset. The whole-graph
//! enumerators take an optional §6.2 [`Prune`] context and a worker count,
//! and return the same list for every worker count.
//!
//! [`two_hop_pairs_among`] walks member-restricted witness lists
//! ([`MemberLists`]): for each node `w`, the list `Γ(w) ∩ M` of the sample
//! `M`, filled once per call in member order. The walk from a member then
//! visits only the 2-paths that end at a member, so it costs
//! `Σ_w |Γ(w) ∩ M|²` plus `Σ_{u∈M} deg(u)` instead of
//! `Σ_{u∈M} Σ_{w∈Γ(u)} deg(w)`. The fused scoring kernel walks the same
//! lists over a batch's targets.

use crate::activity::{NodeActivity, Prune};
use crate::snapshot::Snapshot;
use crate::{NodeId, Timestamp};

/// BFS distances from `src`, bounded by `max_depth`. Unreached nodes get
/// `u32::MAX`. Complexity O(V + E) but typically far less with small depth.
pub fn bfs_distances(snap: &Snapshot, src: NodeId, max_depth: u32) -> Vec<u32> {
    let mut dist = vec![u32::MAX; snap.node_count()];
    dist[src as usize] = 0;
    let mut frontier = vec![src];
    let mut depth = 0;
    while !frontier.is_empty() && depth < max_depth {
        depth += 1;
        let mut next = Vec::new();
        for &u in &frontier {
            for &v in snap.neighbors(u) {
                if dist[v as usize] == u32::MAX {
                    dist[v as usize] = depth;
                    next.push(v);
                }
            }
        }
        frontier = next;
    }
    dist
}

/// All *unconnected* pairs `(u, v)`, `u < v`, at distance exactly 2
/// (sharing at least one neighbor): the candidate universe of the
/// neighborhood metrics. Pairs come out by ascending `u`; each source's
/// targets come in witness-discovery order (ascending `w ∈ Γ(u)`, then
/// `Γ(w)` order), not sorted.
///
/// `Some` pruning pushes the §6.2 criteria into the walk: a source failing
/// every Table 7 role is skipped before its frontier is walked, a target
/// failing the idle/recent criteria is dropped at discovery, and the
/// CN-gap criterion reads the walk's own witness arrivals. The result
/// equals [`NodeActivity::pair_passes`] filtering of the unpruned list, in
/// the same order, without materializing the rejected pairs.
///
/// Complexity O(Σ_w deg(w)²) — the standard 2-path enumeration bound.
pub fn two_hop_pairs(snap: &Snapshot, prune: Prune<'_>, threads: usize) -> Vec<(NodeId, NodeId)> {
    let n = snap.node_count();
    by_source_blocks(n, threads, |sources| {
        let mut scan = TwoHopScan::new(n);
        let mut out = Vec::new();
        for u in sources {
            let u = u as NodeId;
            let targets = match prune {
                None => scan.candidates(snap, u),
                Some(act) => scan.survivors(snap, u, act),
            };
            out.extend(targets.iter().map(|&v| (u, v)));
        }
        out
    })
}

/// Distance bound of [`within3_pairs`].
const MAX_DIST: u32 = 3;

/// Unconnected pairs `(u, v)`, `u < v`, at BFS distance 2 or 3: the Local
/// Path candidates, a superset of [`two_hop_pairs`]. Pairs come out sorted.
///
/// `Some` pruning skips the BFS of a doomed source and puts every pair
/// through the full Table 7 check ([`NodeActivity::pair_passes`]: distance-2
/// pairs pay the CN-gap merge, distance-3 pairs have no common neighbor
/// and skip it). The result equals that filtering of the unpruned list.
pub fn within3_pairs(snap: &Snapshot, prune: Prune<'_>, threads: usize) -> Vec<(NodeId, NodeId)> {
    by_source_blocks(snap.node_count(), threads, |sources| {
        let mut out = Vec::new();
        for u in sources {
            let u = u as NodeId;
            if prune.is_some_and(|act| !act.source_may_pass(u)) {
                continue;
            }
            let dist = bfs_distances(snap, u, MAX_DIST);
            for (v, &d) in dist.iter().enumerate().skip(u as usize + 1) {
                let v = v as NodeId;
                if (2..=MAX_DIST).contains(&d)
                    && prune.is_none_or(|act| act.pair_passes(snap, u, v))
                {
                    out.push((u, v));
                }
            }
        }
        out
    })
}

/// Runs a whole-graph enumerator in parallel: `block` enumerates the pairs
/// of a contiguous range of sources. Blocks run on up to `threads` workers
/// and concatenate in block order, so the output is identical for every
/// `threads` value.
fn by_source_blocks<F>(n: usize, threads: usize, block: F) -> Vec<(NodeId, NodeId)>
where
    F: Fn(std::ops::Range<usize>) -> Vec<(NodeId, NodeId)> + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        return block(0..n);
    }
    // Over-partition: low source ids carry more `v > u` work, so dynamic
    // claiming of small blocks balances the pool.
    let blocks = crate::par::block_ranges(n, threads * 8);
    crate::par::run_indexed(blocks.len(), threads, |b| block(blocks[b].clone())).concat()
}

/// The per-source two-hop frontier walk behind [`two_hop_pairs`] and
/// [`two_hop_pairs_among`].
///
/// A walk from `u` stamps `Γ(u)` into an epoch-stamped marker array, then
/// visits every 2-path `u – w – v` in ascending-`w` order and keeps each
/// unstamped `v > u`, stamping it too. Candidates therefore come out in
/// witness-discovery order, each once.
///
/// Epochs make per-source reset O(1): bumping the epoch invalidates every
/// stamp at once. On wraparound (the epoch counter returning to 0 after
/// `u32::MAX` sources) the stamps are cleared and the epoch restarts at 1,
/// so a stale stamp from 2³² sources ago can never alias the current
/// epoch.
struct TwoHopScan {
    epoch: u32,
    /// `mark[x] == epoch` ⇔ `x ∈ Γ(u)` (member walks: `x ∈ Γ(u) ∩ M`) or
    /// the walk already reached `x`.
    mark: Vec<u32>,
    /// Pruned walks only, valid iff `mark[x] == epoch`: the index of `x`
    /// in `cand`, or [`SKIP`].
    slot: Vec<u32>,
    /// The current source's candidates, in discovery order.
    cand: Vec<NodeId>,
    /// Pruned walks only: per candidate, the running max of witness
    /// arrival times `max(t(u,w), t(w,v))` over the 2-paths seen so far.
    arrival: Vec<Timestamp>,
}

/// Slot of a stamped node that is not a candidate — a neighbor of the
/// source, or a target the pruned walk rejected on discovery — so later
/// 2-paths to it are skipped without re-checking.
const SKIP: u32 = u32::MAX;

impl TwoHopScan {
    fn new(n: usize) -> Self {
        TwoHopScan {
            epoch: 0,
            mark: vec![0; n],
            slot: vec![0; n],
            cand: Vec::new(),
            arrival: Vec::new(),
        }
    }

    /// Starts a walk: bumps the epoch, hard-resetting the stamps on
    /// wraparound, and returns it.
    fn begin(&mut self) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.mark.fill(0);
            self.epoch = 1;
        }
        self.cand.clear();
        self.epoch
    }

    /// The candidates of `u`, in discovery order: distinct unconnected
    /// nodes `v > u` at distance exactly 2. Borrow is valid until the next
    /// walk.
    fn candidates(&mut self, snap: &Snapshot, u: NodeId) -> &[NodeId] {
        let e = self.begin();
        for &w in snap.neighbors(u) {
            self.mark[w as usize] = e;
        }
        for &w in snap.neighbors(u) {
            for &v in snap.neighbors(w) {
                if v > u && self.mark[v as usize] != e {
                    self.mark[v as usize] = e;
                    self.cand.push(v);
                }
            }
        }
        &self.cand
    }

    /// The candidates of member `u` among the members `lists` was built
    /// for, in [`candidates`](Self::candidates)' discovery order: the
    /// witnesses `w ∈ Γ(u)` come in ascending order, and each contributes
    /// its unstamped members `v > u` in ascending order. Only member
    /// targets can be kept, so only `u`'s member neighbours are stamped.
    fn member_candidates(&mut self, snap: &Snapshot, u: NodeId, lists: &MemberLists) -> &[NodeId] {
        let e = self.begin();
        for &w in lists.of(u) {
            self.mark[w as usize] = e;
        }
        for &w in snap.neighbors(u) {
            let list = lists.of(w);
            for &v in &list[list.partition_point(|&v| v <= u)..] {
                if self.mark[v as usize] != e {
                    self.mark[v as usize] = e;
                    self.cand.push(v);
                }
            }
        }
        &self.cand
    }

    /// The candidates of `u` that pass `act`'s filter, in discovery order.
    /// The criteria fire as early as each allows:
    ///
    /// 1. a source failing every Table 7 role
    ///    ([`NodeActivity::source_may_pass`]) is skipped before its
    ///    frontier is walked;
    /// 2. a target failing the idle/recent criteria
    ///    ([`NodeActivity::pair_passes_pre_cn`]) is dropped at discovery;
    /// 3. the CN-gap criterion needs the *latest* witness arrival, so the
    ///    walk keeps each candidate's running `max(t(u,w), t(w,v))` — the
    ///    maximum [`Snapshot::cn_time_gap`]'s sorted merge computes — and
    ///    drops the failing candidates after the walk.
    fn survivors(&mut self, snap: &Snapshot, u: NodeId, act: &NodeActivity) -> &[NodeId] {
        let e = self.begin();
        self.arrival.clear();
        if !act.source_may_pass(u) {
            return &self.cand;
        }
        for &w in snap.neighbors(u) {
            self.mark[w as usize] = e;
            self.slot[w as usize] = SKIP;
        }
        for (&w, &t_uw) in snap.neighbors(u).iter().zip(snap.neighbor_times(u)) {
            for (&v, &t_wv) in snap.neighbors(w).iter().zip(snap.neighbor_times(w)) {
                if v <= u {
                    continue;
                }
                let (vi, a) = (v as usize, t_uw.max(t_wv));
                if self.mark[vi] != e {
                    self.mark[vi] = e;
                    if act.pair_passes_pre_cn(u, v) {
                        // linklens-allow(truncating-cast): candidate count is bounded by the node count, and node ids are u32
                        self.slot[vi] = self.cand.len() as u32;
                        self.cand.push(v);
                        self.arrival.push(a);
                    } else {
                        self.slot[vi] = SKIP;
                    }
                } else if self.slot[vi] != SKIP {
                    let s = self.slot[vi] as usize;
                    self.arrival[s] = self.arrival[s].max(a);
                }
            }
        }
        let now = snap.time();
        let mut gap_ok = self.arrival.iter().map(|&a| act.cn_gap_passes(now - a));
        self.cand.retain(|_| gap_ok.next() == Some(true));
        &self.cand
    }
}

/// Batched multi-source BFS: up to 64 sources advance through one shared
/// CSR sweep per level.
///
/// Each source in a batch owns one bit of a `u64` mask (the MS-BFS
/// formulation of Then et al.), so a level expansion touches every edge of
/// the combined frontier once instead of once per source. Reset between
/// batches reuses the two-hop walk's epoch-stamp discipline: bumping a `u32`
/// epoch invalidates all masks in O(1), and counter wraparound
/// hard-resets the stamp arrays so stale stamps can never alias.
///
/// The walk is serial and its `visit` callback order is fully determined
/// by the source order and the sorted adjacency lists, so callers that
/// parallelize across *batches* stay deterministic for free.
pub struct MultiSourceBfs {
    /// Batch epoch for the `seen` masks.
    epoch: u32,
    /// `seen_stamp[v] == epoch` ⇔ `seen[v]` is valid for this batch.
    seen_stamp: Vec<u32>,
    /// Bit `s` set ⇔ batch source `s` has already reached the node.
    seen: Vec<u64>,
    /// Level epoch for the `level` accumulators (bumped once per level).
    level_epoch: u32,
    /// `level_stamp[v] == level_epoch` ⇔ `level[v]` is valid this level.
    level_stamp: Vec<u32>,
    /// Frontier bits arriving at the node during the current level sweep.
    level: Vec<u64>,
    /// Current frontier: nodes paired with the bits that reached them.
    frontier: Vec<(NodeId, u64)>,
    /// Nodes touched during the current level sweep, in discovery order.
    queue: Vec<NodeId>,
}

impl MultiSourceBfs {
    /// A walker over a graph of `n` nodes.
    pub fn new(n: usize) -> Self {
        MultiSourceBfs {
            epoch: 0,
            seen_stamp: vec![0; n],
            seen: vec![0; n],
            level_epoch: 0,
            level_stamp: vec![0; n],
            level: vec![0; n],
            frontier: Vec::new(),
            queue: Vec::new(),
        }
    }

    /// Starts a new batch (epoch bump + wraparound hard reset).
    fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.seen_stamp.fill(0);
            self.epoch = 1;
        }
        self.frontier.clear();
    }

    /// Starts a new level of the current batch.
    fn begin_level(&mut self) {
        self.level_epoch = self.level_epoch.wrapping_add(1);
        if self.level_epoch == 0 {
            self.level_stamp.fill(0);
            self.level_epoch = 1;
        }
        self.queue.clear();
    }

    /// Accumulates `bits` for node `v` in the current level sweep.
    #[inline]
    fn deposit(&mut self, v: NodeId, bits: u64) {
        let vi = v as usize;
        if self.level_stamp[vi] != self.level_epoch {
            self.level_stamp[vi] = self.level_epoch;
            self.level[vi] = 0;
            self.queue.push(v);
        }
        self.level[vi] |= bits;
    }

    /// Promotes this level's deposits into the next frontier, invoking
    /// `visit` for bits that are new to their node, and returns whether
    /// the new frontier is non-empty.
    fn promote(&mut self, depth: u32, visit: &mut impl FnMut(NodeId, u32, u64)) -> bool {
        self.frontier.clear();
        let e = self.epoch;
        for qi in 0..self.queue.len() {
            let v = self.queue[qi];
            let vi = v as usize;
            if self.seen_stamp[vi] != e {
                self.seen_stamp[vi] = e;
                self.seen[vi] = 0;
            }
            let new = self.level[vi] & !self.seen[vi];
            if new != 0 {
                self.seen[vi] |= new;
                visit(v, depth, new);
                self.frontier.push((v, new));
            }
        }
        !self.frontier.is_empty()
    }

    /// Runs one batch of up to 64 sources out to `max_depth`, invoking
    /// `visit(v, depth, new_bits)` exactly once per (node, source) reach
    /// event: bit `s` of `new_bits` is set iff `sources[s]` first reaches
    /// `v` at `depth`. Depth-0 events cover the sources themselves. The
    /// per-source distances reported are identical to [`bfs_distances`].
    ///
    /// # Panics
    /// Panics if the batch holds more than 64 sources.
    pub fn run(
        &mut self,
        snap: &Snapshot,
        sources: &[NodeId],
        max_depth: u32,
        mut visit: impl FnMut(NodeId, u32, u64),
    ) {
        assert!(sources.len() <= 64, "a batch holds at most 64 sources");
        self.begin();
        self.begin_level();
        for (s, &u) in sources.iter().enumerate() {
            self.deposit(u, 1u64 << s);
        }
        if !self.promote(0, &mut visit) {
            return;
        }
        let mut depth = 0;
        while depth < max_depth {
            depth += 1;
            self.begin_level();
            let frontier = std::mem::take(&mut self.frontier);
            for &(u, bits) in &frontier {
                for &v in snap.neighbors(u) {
                    self.deposit(v, bits);
                }
            }
            self.frontier = frontier;
            if !self.promote(depth, &mut visit) {
                return;
            }
        }
    }
}

/// Epoch-stamped 2-walk counter: for a source `u`, the number of 2-paths
/// `u – a – x` ending at each node `x`.
///
/// This is the scatter core of the Local Path metric (`A² + εA³` scores
/// read exactly these counts) shared by its batched production path and
/// the per-source reference, so the two can never drift. Reset follows the
/// two-hop walk's epoch discipline.
pub struct Walk2Scan {
    epoch: u32,
    /// Packed `stamp << 32 | count` per node: the count is valid iff the
    /// stamp half equals `epoch`. One array keeps the hot gather loops
    /// (LP's `Σ_{b∈Γ(v)} count(b)`) at a single load + bounds check per
    /// neighbor — splitting stamp and count into parallel arrays measured
    /// ~2.5x slower on the renren-like probe.
    cell: Vec<u64>,
}

impl Walk2Scan {
    /// A scanner over a graph of `n` nodes.
    pub fn new(n: usize) -> Self {
        Walk2Scan { epoch: 0, cell: vec![0; n] }
    }

    /// Counts the 2-walks from `u`, replacing any previous source's counts
    /// in O(1) via an epoch bump (wraparound hard-resets the stamps).
    pub fn scan(&mut self, snap: &Snapshot, u: NodeId) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.cell.fill(0);
            self.epoch = 1;
        }
        let fresh = u64::from(self.epoch) << 32;
        for &a in snap.neighbors(u) {
            for &x in snap.neighbors(a) {
                let xi = x as usize;
                if self.cell[xi] & !0xFFFF_FFFF != fresh {
                    self.cell[xi] = fresh;
                }
                // Counts stay below 2^32: a node is deposited at most once
                // per distinct middle node, and middles number < 2^32.
                self.cell[xi] += 1;
            }
        }
    }

    /// The 2-walk count from the last scanned source to `x` (0 if none).
    ///
    /// Branchless: a stale stamp zeroes the count through a mask instead
    /// of branching, so tight gather loops pay no mispredict per neighbor.
    #[inline]
    pub fn count(&self, x: NodeId) -> u32 {
        let cell = self.cell[x as usize];
        // linklens-allow(truncating-cast): unpacking the stamp half of the packed cell
        let fresh = 0u32.wrapping_sub(u32::from((cell >> 32) as u32 == self.epoch));
        // linklens-allow(truncating-cast): unpacking the count half of the packed cell
        cell as u32 & fresh
    }
}

/// Member-restricted witness lists: for every node `w`, the members of a
/// sorted subset `M` adjacent to it, `Γ(w) ∩ M`, in ascending order — `w`'s
/// adjacency row less every entry outside `M`. Stored as one CSR of
/// `Σ_{m∈M} deg(m)` entries, built by one counting pass and one
/// back-to-front fill over `M`'s rows: `n + 2·Σ_{m∈M} deg(m)` reads and
/// writes.
pub struct MemberLists {
    /// `start[w]..start[w + 1]` indexes `w`'s list in `items`.
    start: Vec<usize>,
    items: Vec<NodeId>,
}

impl MemberLists {
    /// Fills every list in one pass per member. `members` must be strictly
    /// ascending.
    pub fn new(snap: &Snapshot, members: &[NodeId]) -> Self {
        debug_assert!(members.windows(2).all(|w| w[0] < w[1]));
        let n = snap.node_count();
        let mut start = vec![0usize; n + 1];
        for &m in members {
            for &w in snap.neighbors(m) {
                start[w as usize] += 1;
            }
        }
        // Inclusive prefix sums: `start[w]` becomes the end of `w`'s list.
        let mut total = 0;
        for s in &mut start {
            total += *s;
            *s = total;
        }
        // Filling each list back to front, members in descending order,
        // leaves it ascending and moves `start[w]` down to its beginning.
        let mut items = vec![0; total];
        for &m in members.iter().rev() {
            for &w in snap.neighbors(m) {
                start[w as usize] -= 1;
                items[start[w as usize]] = m;
            }
        }
        MemberLists { start, items }
    }

    /// `Γ(w) ∩ M`, ascending.
    #[inline]
    pub fn of(&self, w: NodeId) -> &[NodeId] {
        let w = w as usize;
        &self.items[self.start[w]..self.start[w + 1]]
    }
}

/// Unconnected 2-hop pairs restricted to a sorted node subset: both
/// endpoints must be members, but the shared neighbor may be anyone. The
/// result is [`two_hop_pairs`]'s list filtered to member pairs, in the same
/// order: members in turn, each member's targets in witness-discovery
/// order. Used by the sampled evaluation and classification pipelines.
///
/// The walk reads each witness's member list `Γ(w) ∩ M` (see the module
/// docs) instead of all of `Γ(w)`, so it visits only the 2-paths that end
/// at a member: O(Σ_w |Γ(w) ∩ M|² + Σ_{u∈M} deg(u)).
///
/// `members` must be strictly ascending.
pub fn two_hop_pairs_among(snap: &Snapshot, members: &[NodeId]) -> Vec<(NodeId, NodeId)> {
    debug_assert!(members.windows(2).all(|w| w[0] < w[1]));
    let lists = MemberLists::new(snap, members);
    let mut scan = TwoHopScan::new(snap.node_count());
    let mut out = Vec::new();
    for &u in members {
        let targets = scan.member_candidates(snap, u, &lists);
        out.extend(targets.iter().map(|&v| (u, v)));
    }
    out
}

/// Every unconnected pair among a sorted node subset (the exhaustive
/// universe used when the sampled set is small enough, and the denominator
/// of the accuracy-ratio computation).
pub fn all_pairs_among(snap: &Snapshot, members: &[NodeId]) -> Vec<(NodeId, NodeId)> {
    let mut out = Vec::new();
    for (i, &u) in members.iter().enumerate() {
        for &v in &members[i + 1..] {
            if !snap.has_edge(u, v) {
                out.push((u, v));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::TemporalFilter;

    /// Path 0-1-2-3-4.
    fn path5() -> Snapshot {
        Snapshot::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)])
    }

    #[test]
    fn bfs_distances_on_path() {
        let s = path5();
        let d = bfs_distances(&s, 0, u32::MAX);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn bfs_depth_bound_respected() {
        let s = path5();
        let d = bfs_distances(&s, 0, 2);
        assert_eq!(d[2], 2);
        assert_eq!(d[3], u32::MAX);
    }

    #[test]
    fn two_hop_pairs_on_path() {
        let s = path5();
        let mut pairs = two_hop_pairs(&s, None, 1);
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 2), (1, 3), (2, 4)]);
    }

    #[test]
    fn two_hop_pairs_exclude_existing_edges() {
        // Triangle: all pairs connected → no candidates.
        let s = Snapshot::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        assert!(two_hop_pairs(&s, None, 1).is_empty());
    }

    #[test]
    fn two_hop_pairs_dedup_multiple_witnesses() {
        // 0 and 3 share two common neighbors (1 and 2); pair must appear once.
        let s = Snapshot::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let pairs = two_hop_pairs(&s, None, 1);
        assert_eq!(pairs.iter().filter(|&&p| p == (0, 3)).count(), 1);
    }

    #[test]
    fn two_hop_pairs_come_in_witness_discovery_order() {
        // Γ(0) = {1, 2}: witness 1 discovers 5, witness 2 then discovers 3
        // and re-reaches 5. Source 0's targets are [5, 3], not sorted.
        let s = Snapshot::from_edges(6, &[(0, 1), (0, 2), (1, 5), (2, 3), (2, 5)]);
        let from_0: Vec<(NodeId, NodeId)> =
            two_hop_pairs(&s, None, 1).into_iter().filter(|&(u, _)| u == 0).collect();
        assert_eq!(from_0, vec![(0, 5), (0, 3)]);
    }

    #[test]
    fn within3_pairs_on_path() {
        let s = path5();
        let pairs = within3_pairs(&s, None, 1);
        assert_eq!(pairs, vec![(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]);
    }

    #[test]
    fn two_hop_among_respects_membership() {
        let s = path5();
        // Members {0, 2, 4}: (0,2) and (2,4) qualify; (0,4) is 4 hops.
        let mut pairs = two_hop_pairs_among(&s, &[0, 2, 4]);
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 2), (2, 4)]);
    }

    #[test]
    fn enumeration_is_thread_count_invariant() {
        let s = ring_chords(40);
        let two1 = two_hop_pairs(&s, None, 1);
        let within1 = within3_pairs(&s, None, 1);
        for threads in [2, 3, 4, 8] {
            assert_eq!(two_hop_pairs(&s, None, threads), two1, "two_hop threads={threads}");
            assert_eq!(within3_pairs(&s, None, threads), within1, "within threads={threads}");
        }
    }

    #[test]
    fn scan_candidates_match_two_hop_pairs() {
        let s = ring_chords(40);
        let mut scan = TwoHopScan::new(40);
        let mut via_scan = Vec::new();
        for u in 0..40 {
            for &v in scan.candidates(&s, u) {
                via_scan.push((u, v));
            }
        }
        assert_eq!(via_scan, two_hop_pairs(&s, None, 3), "shared walk must match the enumerator");
    }

    #[test]
    fn scan_epoch_wraparound_resets_stamps() {
        let s = Snapshot::from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (1, 4)]);
        let mut scan = TwoHopScan::new(5);
        let baseline: Vec<NodeId> = scan.candidates(&s, 0).to_vec();
        // Leave stale stamps from a normal scan, then force the counter to
        // the brink so the next two scans cross the wraparound boundary.
        scan.epoch = u32::MAX - 1;
        assert_eq!(scan.candidates(&s, 0), &baseline[..], "epoch == u32::MAX");
        assert_eq!(scan.epoch, u32::MAX);
        assert_eq!(scan.candidates(&s, 0), &baseline[..], "wrapped scan");
        assert_eq!(scan.epoch, 1, "wraparound restarts the epoch at 1");
        assert!(scan.mark.iter().all(|&e| e <= 1), "stamps hard-reset on wrap");
        assert_eq!(scan.candidates(&s, 0), &baseline[..], "post-wrap scan");
    }

    /// Ring + chords fixture used by several invariance tests.
    fn ring_chords(n: u32) -> Snapshot {
        let mut edges = Vec::new();
        for i in 0..n {
            edges.push((i, (i + 1) % n));
            if i % 3 == 0 {
                edges.push((i, (i + 7) % n));
            }
        }
        let canon: Vec<(NodeId, NodeId)> =
            edges.iter().map(|&(a, b)| crate::canonical(a, b)).collect();
        Snapshot::from_edges(n as usize, &canon)
    }

    #[test]
    fn ms_bfs_matches_per_source_bfs() {
        let s = ring_chords(40);
        let sources: Vec<NodeId> = (0..40).step_by(1).collect();
        for batch in sources.chunks(17) {
            for max_depth in [1, 3, u32::MAX] {
                let mut got = vec![vec![u32::MAX; 40]; batch.len()];
                let mut bfs = MultiSourceBfs::new(40);
                bfs.run(&s, batch, max_depth, |v, depth, bits| {
                    let mut b = bits;
                    while b != 0 {
                        let sidx = b.trailing_zeros() as usize;
                        assert_eq!(got[sidx][v as usize], u32::MAX, "reached twice");
                        got[sidx][v as usize] = depth;
                        b &= b - 1;
                    }
                });
                for (sidx, &src) in batch.iter().enumerate() {
                    assert_eq!(got[sidx], bfs_distances(&s, src, max_depth), "src {src}");
                }
            }
        }
    }

    #[test]
    fn ms_bfs_handles_disconnection_and_duplicates() {
        let s = Snapshot::from_edges(5, &[(0, 1), (2, 3)]);
        let mut bfs = MultiSourceBfs::new(5);
        // Duplicate source node: both bits travel together.
        let mut events = Vec::new();
        bfs.run(&s, &[0, 0, 4], u32::MAX, |v, d, bits| events.push((v, d, bits)));
        assert_eq!(events, vec![(0, 0, 0b011), (4, 0, 0b100), (1, 1, 0b011)]);
    }

    #[test]
    #[should_panic(expected = "at most 64 sources")]
    fn ms_bfs_rejects_oversized_batches() {
        let s = path5();
        let sources = vec![0u32; 65];
        MultiSourceBfs::new(5).run(&s, &sources, 1, |_, _, _| {});
    }

    #[test]
    fn ms_bfs_epoch_wraparound_resets_stamps() {
        let s = path5();
        let mut bfs = MultiSourceBfs::new(5);
        let collect = |bfs: &mut MultiSourceBfs| {
            let mut events = Vec::new();
            bfs.run(&s, &[2], u32::MAX, |v, d, bits| events.push((v, d, bits)));
            events
        };
        let baseline = collect(&mut bfs);
        bfs.epoch = u32::MAX - 1;
        bfs.level_epoch = u32::MAX - 2;
        assert_eq!(collect(&mut bfs), baseline, "pre-wrap run");
        assert_eq!(collect(&mut bfs), baseline, "wrapping run");
        assert_eq!(collect(&mut bfs), baseline, "post-wrap run");
        assert!(bfs.epoch >= 1 && bfs.epoch < 10, "batch epoch restarted");
    }

    #[test]
    fn walk2_counts_match_naive_scatter() {
        let s = ring_chords(40);
        let mut scan = Walk2Scan::new(40);
        for u in 0..40u32 {
            scan.scan(&s, u);
            let mut naive = [0u32; 40];
            for &a in s.neighbors(u) {
                for &x in s.neighbors(a) {
                    naive[x as usize] += 1;
                }
            }
            for x in 0..40u32 {
                assert_eq!(scan.count(x), naive[x as usize], "u={u} x={x}");
            }
        }
    }

    #[test]
    fn walk2_epoch_wraparound_resets_stamps() {
        let s = path5();
        let mut scan = Walk2Scan::new(5);
        scan.scan(&s, 0);
        scan.epoch = u32::MAX - 1;
        for _ in 0..3 {
            scan.scan(&s, 2);
            // Γ(2) = {1, 3}; 2-walks: 2-1-{0,2}, 2-3-{2,4} → counts 1,0,2,0,1.
            assert_eq!((0..5u32).map(|x| scan.count(x)).collect::<Vec<_>>(), vec![1, 0, 2, 0, 1]);
        }
        assert_eq!(scan.epoch, 2, "wraparound restarted the epoch (1) before the final scan");
    }

    #[test]
    fn all_pairs_among_counts() {
        let s = path5();
        let pairs = all_pairs_among(&s, &[0, 1, 2]);
        // C(3,2)=3 minus edges (0,1),(1,2) → only (0,2).
        assert_eq!(pairs, vec![(0, 2)]);
    }

    /// Temporal ring + chords: edge times spread over ~n days so the
    /// Table 7 criteria split hot from cold regions.
    fn temporal_ring(n: u32) -> Snapshot {
        let mut g = crate::temporal::TemporalGraph::new();
        for _ in 0..n {
            g.add_node(0);
        }
        let mut edges = Vec::new();
        for i in 0..n {
            edges.push(crate::canonical(i, (i + 1) % n));
            if i % 3 == 0 {
                edges.push(crate::canonical(i, (i + 7) % n));
            }
        }
        edges.sort_unstable();
        edges.dedup();
        // Deterministic scattered timestamps: hash-ish spread over n days.
        let mut timed: Vec<(NodeId, NodeId, Timestamp)> = edges
            .into_iter()
            .map(|(a, b)| (a, b, ((a * 31 + b * 17) % n) as Timestamp * crate::DAY))
            .collect();
        timed.sort_by_key(|&(_, _, t)| t);
        for (a, b, t) in timed {
            g.add_edge(a, b, t);
        }
        Snapshot::up_to(&g, g.edge_count())
    }

    fn probe_filter() -> TemporalFilter {
        TemporalFilter {
            active_idle_days: 15.0,
            inactive_idle_days: 25.0,
            window_days: 7.0,
            min_recent_edges: 1,
            cn_gap_days: 20.0,
        }
    }

    #[test]
    fn pruned_enumeration_equals_posthoc_filtering() {
        let s = temporal_ring(40);
        let act = NodeActivity::build(&s, &probe_filter());
        let full_two = two_hop_pairs(&s, None, 1);
        let posthoc = |pairs: Vec<(NodeId, NodeId)>| -> Vec<(NodeId, NodeId)> {
            pairs.into_iter().filter(|&(u, v)| act.pair_passes(&s, u, v)).collect()
        };
        let posthoc_two = posthoc(full_two.clone());
        let posthoc_within = posthoc(within3_pairs(&s, None, 1));
        assert!(!posthoc_two.is_empty(), "fixture must keep some pairs");
        assert!(posthoc_two.len() < full_two.len(), "fixture must drop some pairs");
        for threads in [1, 2, 4, 8] {
            let prune = Some(&act);
            assert_eq!(two_hop_pairs(&s, prune, threads), posthoc_two, "two-hop threads={threads}");
            assert_eq!(
                within3_pairs(&s, prune, threads),
                posthoc_within,
                "within-3 threads={threads}"
            );
        }
    }

    #[test]
    fn pruned_scan_arrival_max_matches_cn_time_gap() {
        let s = temporal_ring(40);
        // Thresholds loose everywhere except the CN gap, so the survivors
        // are exactly the candidates passing criterion 4.
        let filter = TemporalFilter {
            active_idle_days: f64::INFINITY,
            inactive_idle_days: f64::INFINITY,
            window_days: 7.0,
            min_recent_edges: 0,
            cn_gap_days: 18.0,
        };
        let act = NodeActivity::build(&s, &filter);
        let mut scan = TwoHopScan::new(s.node_count());
        for u in 0..s.node_count() as NodeId {
            let survivors = scan.survivors(&s, u, &act).to_vec();
            let want: Vec<NodeId> = scan
                .candidates(&s, u)
                .iter()
                .copied()
                .filter(|&v| {
                    let g = s.cn_time_gap(u, v).expect("2-hop pairs share a neighbor");
                    act.cn_gap_passes(g)
                })
                .collect();
            assert_eq!(survivors, want, "u={u}");
        }
    }

    #[test]
    fn pruned_scan_skips_doomed_sources_and_matches_hits() {
        let s = temporal_ring(40);
        let act = NodeActivity::build(&s, &probe_filter());
        let mut scan = TwoHopScan::new(s.node_count());
        let mut doomed = 0;
        for u in 0..s.node_count() as NodeId {
            let survivors = scan.survivors(&s, u, &act).to_vec();
            if !act.source_may_pass(u) {
                assert!(survivors.is_empty(), "skipped source u={u}");
                doomed += 1;
                continue;
            }
            // The survivors are the unpruned walk's hits that pass every
            // criterion, in the unpruned discovery order.
            let want: Vec<NodeId> = scan
                .candidates(&s, u)
                .iter()
                .copied()
                .filter(|&v| act.pair_passes(&s, u, v))
                .collect();
            assert_eq!(survivors, want, "u={u}");
        }
        assert!(doomed > 0, "fixture must doom some sources");
    }
}
