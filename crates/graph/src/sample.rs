//! Snowball (BFS) sampling — §5.1's mechanism for scaling the
//! classification pipeline to large graphs.

use crate::snapshot::Snapshot;
use crate::{mix64, NodeId};

/// Snowball-samples a snapshot: BFS from `seed` until `ceil(p · |V|)` nodes
/// are visited, returning the visited node ids sorted ascending.
///
/// Matches the paper's procedure: the same `seed` is reused on the next
/// snapshot so train and test sets cover the same community. If the seed's
/// component is exhausted before the quota is reached, BFS restarts from
/// the lowest-id unvisited non-isolated node (and finally from isolated
/// nodes) so the requested size is always met — the paper does not specify
/// this corner case; we document and test our choice.
///
/// ```
/// use osn_graph::{sample::snowball, snapshot::Snapshot};
/// let snap = Snapshot::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
/// assert_eq!(snowball(&snap, 0, 0.5), vec![0, 1, 2]);
/// ```
///
/// # Panics
/// Panics unless `0 < p <= 1` and `seed` is a valid node.
pub fn snowball(snap: &Snapshot, seed: NodeId, p: f64) -> Vec<NodeId> {
    assert!(p > 0.0 && p <= 1.0, "p must be in (0, 1]");
    let n = snap.node_count();
    assert!((seed as usize) < n, "seed out of range");
    let target = ((p * n as f64).ceil() as usize).clamp(1, n);

    let mut visited = vec![false; n];
    let mut order: Vec<NodeId> = Vec::with_capacity(target);
    let mut queue = std::collections::VecDeque::new();

    let enqueue = |u: NodeId,
                   visited: &mut Vec<bool>,
                   order: &mut Vec<NodeId>,
                   queue: &mut std::collections::VecDeque<NodeId>| {
        if !visited[u as usize] {
            visited[u as usize] = true;
            order.push(u);
            queue.push_back(u);
        }
    };

    enqueue(seed, &mut visited, &mut order, &mut queue);
    let mut restart_scan: NodeId = 0;
    while order.len() < target {
        if let Some(u) = queue.pop_front() {
            for &v in snap.neighbors(u) {
                if order.len() >= target {
                    break;
                }
                enqueue(v, &mut visited, &mut order, &mut queue);
            }
        } else {
            // Component exhausted: restart from the next unvisited node,
            // preferring non-isolated ones.
            let next = (restart_scan..n as NodeId)
                .find(|&u| !visited[u as usize] && snap.degree(u) > 0)
                .or_else(|| (0..n as NodeId).find(|&u| !visited[u as usize]));
            match next {
                Some(u) => {
                    restart_scan = u;
                    enqueue(u, &mut visited, &mut order, &mut queue);
                }
                None => break,
            }
        }
    }
    order.sort_unstable();
    order
}

/// Deterministically picks `count` distinct snowball seeds spread over the
/// non-isolated nodes of a snapshot, keyed by `run_seed` (the paper uses 5
/// random seeds and averages; we keep the seeds reproducible).
pub fn pick_seeds(snap: &Snapshot, count: usize, run_seed: u64) -> Vec<NodeId> {
    let candidates: Vec<NodeId> =
        (0..snap.node_count() as NodeId).filter(|&u| snap.degree(u) > 0).collect();
    if candidates.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(count);
    let mut state = run_seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut taken = std::collections::HashSet::new();
    while out.len() < count.min(candidates.len()) {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = mix64(state);
        let pick = candidates[(z % candidates.len() as u64) as usize];
        if taken.insert(pick) {
            out.push(pick);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_components() -> Snapshot {
        // Component A: 0-1-2-3 path; component B: 4-5 edge; 6 isolated.
        Snapshot::from_edges(7, &[(0, 1), (1, 2), (2, 3), (4, 5)])
    }

    #[test]
    fn snowball_full_graph() {
        let s = two_components();
        let nodes = snowball(&s, 0, 1.0);
        assert_eq!(nodes, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn snowball_stays_local_first() {
        let s = two_components();
        // 3/7 ≈ 43% → target ceil(0.43*7)=4 nodes: exactly component A.
        let nodes = snowball(&s, 0, 0.5);
        assert_eq!(nodes, vec![0, 1, 2, 3]);
    }

    #[test]
    fn snowball_bfs_order_is_breadth_first() {
        let s = Snapshot::from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 4)]);
        // target 3 from seed 0 must be {0,1,2}, not {0,1,3}.
        let nodes = snowball(&s, 0, 0.6);
        assert_eq!(nodes, vec![0, 1, 2]);
    }

    #[test]
    fn snowball_restarts_after_component_exhausted() {
        let s = two_components();
        let nodes = snowball(&s, 4, 0.9); // target ceil(6.3)=7 → everything
        assert_eq!(nodes.len(), 7);
        assert!(nodes.contains(&0));
    }

    #[test]
    fn snowball_target_rounding() {
        let s = two_components();
        let nodes = snowball(&s, 0, 0.01); // ceil(0.07) = 1
        assert_eq!(nodes, vec![0]);
    }

    #[test]
    fn seeds_deterministic_and_distinct() {
        let s = two_components();
        let a = pick_seeds(&s, 3, 42);
        let b = pick_seeds(&s, 3, 42);
        assert_eq!(a, b);
        let set: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(set.len(), a.len());
        for &u in &a {
            assert!(s.degree(u) > 0, "seed must be non-isolated");
        }
    }

    #[test]
    fn seeds_differ_across_run_seed() {
        let s = Snapshot::from_edges(
            50,
            &(0..49).map(|i| (i as NodeId, i as NodeId + 1)).collect::<Vec<_>>(),
        );
        let a = pick_seeds(&s, 5, 1);
        let b = pick_seeds(&s, 5, 2);
        assert_ne!(a, b);
    }
}
