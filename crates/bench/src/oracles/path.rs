//! Per-source references for SP and LP: pairs grouped by first endpoint,
//! one BFS or one plain scatter per group. The engine's batched walkers
//! (multi-source BFS, the epoch-stamped `Walk2Scan`) must equal these bit
//! for bit: hop distances and walk counts are exact integers.

use osn_graph::snapshot::Snapshot;
use osn_graph::{traversal, NodeId};
use osn_metrics::path::{LocalPath, ShortestPath};
use std::ops::Range;

/// Groups `pairs` by first endpoint: the index permutation sorted by
/// source, plus the contiguous range of each distinct source.
fn source_groups(pairs: &[(NodeId, NodeId)]) -> (Vec<usize>, Vec<Range<usize>>) {
    let mut order: Vec<usize> = (0..pairs.len()).collect();
    order.sort_unstable_by_key(|&i| pairs[i].0);
    let mut groups = Vec::new();
    let mut i = 0;
    while i < order.len() {
        let u = pairs[order[i]].0;
        let mut j = i;
        while j < order.len() && pairs[order[j]].0 == u {
            j += 1;
        }
        groups.push(i..j);
        i = j;
    }
    (order, groups)
}

/// Shortest Path, one [`traversal::bfs_distances`] per distinct source:
/// the negated hop count, `-(max_depth + 1)` beyond the depth cap.
pub fn shortest_path(sp: &ShortestPath, snap: &Snapshot, pairs: &[(NodeId, NodeId)]) -> Vec<f64> {
    let (order, groups) = source_groups(pairs);
    let mut scores = vec![0.0; pairs.len()];
    for g in groups {
        let u = pairs[order[g.start]].0;
        let dist = traversal::bfs_distances(snap, u, sp.max_depth);
        for &idx in &order[g] {
            let v = pairs[idx].1;
            let d = dist[v as usize];
            scores[idx] = if d == u32::MAX { -f64::from(sp.max_depth + 1) } else { -f64::from(d) };
        }
    }
    scores
}

/// Local Path with a plain scatter buffer per distinct source (the
/// original implementation, independent of `Walk2Scan`'s epoch
/// discipline): `paths² + ε·paths³`.
pub fn local_path(lp: &LocalPath, snap: &Snapshot, pairs: &[(NodeId, NodeId)]) -> Vec<f64> {
    let n = snap.node_count();
    let (order, groups) = source_groups(pairs);
    let mut scores = vec![0.0; pairs.len()];
    // walk2[x] = number of 2-step walks u → x.
    let mut walk2 = vec![0u32; n];
    let mut touched: Vec<NodeId> = Vec::new();
    for g in groups {
        let u = pairs[order[g.start]].0;
        for &a in snap.neighbors(u) {
            for &x in snap.neighbors(a) {
                if walk2[x as usize] == 0 {
                    touched.push(x);
                }
                walk2[x as usize] += 1;
            }
        }
        for &idx in &order[g] {
            let v = pairs[idx].1;
            let p2 = walk2[v as usize] as f64;
            let p3: u32 = snap.neighbors(v).iter().map(|&b| walk2[b as usize]).sum();
            scores[idx] = p2 + lp.epsilon * f64::from(p3);
        }
        for &x in &touched {
            walk2[x as usize] = 0;
        }
        touched.clear();
    }
    scores
}
