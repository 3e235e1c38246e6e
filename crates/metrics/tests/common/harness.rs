//! The engine's contract with every metric, in one differential harness.
//!
//! [`check`] scores a set of metrics from `osn_metrics::all_metrics()`
//! through the chosen [`Entry`] points of `exec`: `score_pairs_t`;
//! `score_matrix_cached_t` on the whole set as one batch with a sweep
//! cache; `predict_top_k_many_cached_t` on the same batch; and
//! `score_pairs_targeted` on per-source slices out of one all-kinds
//! kernel context. The three batch entry points run at 1, 2 and 4
//! workers, and every entry point sees the candidate list sorted,
//! shuffled and with duplicates.
//!
//! The one-worker `score_pairs_t` scores must meet the metric's row of
//! `linklens_bench::oracles::contract`: bit for bit against an exact
//! reference, within the derived per-pair bound against the LRW and PPR
//! references. Every other entry point and worker count must reproduce
//! those scores bit for bit, which holds Katz-lr and Rescal, the metrics
//! without a reference, to their one-worker scores. Top-k lists must be
//! the serial selection over them. A metric without a contract row fails.
//!
//! Each test picks a size band, its candidate lists, the metrics and the
//! entry points it holds to the contract.

use linklens_bench::oracles::{self, Contract};
use osn_graph::snapshot::Snapshot;
use osn_graph::NodeId;
use osn_metrics::candidates::CandidateSet;
use osn_metrics::exec;
use osn_metrics::fused::{FusedCtx, FusedScratch, LocalKind};
use osn_metrics::solver::SolverCache;
use osn_metrics::topk::top_k_pairs;
use osn_metrics::traits::{CandidatePolicy, Metric};
use proptest::TestCaseError;
use std::collections::BTreeMap;

const WORKERS: [usize; 3] = [1, 2, 4];
const SEED: u64 = 0x5EED;

/// One of the engine's four `exec` entry points.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Entry {
    /// `score_pairs_t`, one metric at a time.
    Scores,
    /// `score_matrix_cached_t` on the whole set, with a fresh cache.
    Matrix,
    /// `predict_top_k_many_cached_t` on the whole set.
    TopK,
    /// `score_pairs_targeted` on each source's slice.
    Targeted,
}

pub const ALL: [Entry; 4] = [Entry::Scores, Entry::Matrix, Entry::TopK, Entry::Targeted];
pub const BATCHED: [Entry; 3] = [Entry::Scores, Entry::Matrix, Entry::TopK];

/// Every metric of `all_metrics()`.
pub fn every(_: &dyn Metric) -> bool {
    true
}

/// The eight `LocalKind` metrics of the fused kernel.
pub fn local(m: &dyn Metric) -> bool {
    m.fused_kind().is_some()
}

/// The metrics named in `names`.
pub fn named<'a>(names: &'a [&str]) -> impl Fn(&dyn Metric) -> bool + 'a {
    move |m| names.contains(&m.name())
}

/// Two bridged triangles plus a pendant path.
pub fn fixture() -> Snapshot {
    Snapshot::from_edges(
        8,
        &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5), (5, 6), (6, 7)],
    )
}

/// [`check`] on an `n`-node graph of `edges`, on the candidate list of
/// each `(policy, hubs)` in turn; the case is rejected when a list is
/// empty.
pub fn check_lists(
    (n, edges): &(usize, Vec<(NodeId, NodeId)>),
    lists: &[(CandidatePolicy, usize)],
    keep: impl Fn(&dyn Metric) -> bool,
    entries: &[Entry],
    k: Option<usize>,
) -> Result<(), TestCaseError> {
    let snap = Snapshot::from_edges(*n, edges);
    for &(policy, hubs) in lists {
        let cands = CandidateSet::build(&snap, policy, hubs);
        if cands.is_empty() {
            return Err(TestCaseError::Reject);
        }
        check(&snap, cands.pairs(), &keep, entries, k)
            .map_err(|e| TestCaseError::Fail(format!("{policy:?}: {e}")))?;
    }
    Ok(())
}

/// The metrics of `all_metrics()` that `keep` selects, through `entries`
/// on the three orders of `pairs`, top-k at `k` (half the list when
/// `None`).
pub fn check(
    snap: &Snapshot,
    pairs: &[(NodeId, NodeId)],
    keep: impl Fn(&dyn Metric) -> bool,
    entries: &[Entry],
    k: Option<usize>,
) -> Result<(), String> {
    let (metrics, lists) = lists(snap, pairs, keep)?;
    for list in &lists {
        let one = one_worker(snap, &metrics, list)?;
        check_batched(snap, &metrics, list, &one, entries, k)?;
        if entries.contains(&Entry::Targeted) {
            check_targeted(snap, &metrics, list)?;
        }
    }
    Ok(())
}

/// The selected metrics with their contract rows.
type Contracted = Vec<(Box<dyn Metric>, Contract)>;

/// One pair list and, per selected metric, its reference's scores of the
/// list (`None` without a reference).
struct List {
    pairs: Vec<(NodeId, NodeId)>,
    references: Vec<Option<Vec<f64>>>,
}

/// The metrics `keep` selects with their contract rows, and `pairs` in
/// the three orders with their references' scores. A reference scores
/// each pair on its own, whatever else the batch holds, and gives the
/// same scores at every worker count, so one call on `pairs` at the
/// host's worker count serves every order.
fn lists(
    snap: &Snapshot,
    pairs: &[(NodeId, NodeId)],
    keep: impl Fn(&dyn Metric) -> bool,
) -> Result<(Contracted, Vec<List>), String> {
    let metrics = osn_metrics::all_metrics()
        .into_iter()
        .filter(|m| keep(m.as_ref()))
        .map(|m| match oracles::contract(m.name()) {
            Some(c) => Ok((m, c)),
            None => Err(format!("{} has no row in oracles::contract", m.name())),
        })
        .collect::<Result<Contracted, String>>()?;
    if metrics.is_empty() {
        return Err("no metric selected".into());
    }
    let workers = osn_graph::par::max_threads();
    let references: Vec<Option<Vec<f64>>> = metrics
        .iter()
        .map(|(_, c)| c.reference.as_ref().map(|reference| reference(snap, pairs, workers)))
        .collect();
    let lists = orders(pairs.len())
        .into_iter()
        .map(|order| List {
            pairs: order.iter().map(|&i| pairs[i]).collect(),
            references: references
                .iter()
                .map(|r| r.as_ref().map(|r| order.iter().map(|&i| r[i]).collect()))
                .collect(),
        })
        .collect();
    Ok((metrics, lists))
}

/// The three orders of a `len`-pair list, as indices into it: as given
/// (sorted), shuffled, and with every third pair repeated next to itself
/// and the first pair again at the end, in another source run.
fn orders(len: usize) -> [Vec<usize>; 3] {
    let sorted: Vec<usize> = (0..len).collect();
    let mut duplicated = Vec::with_capacity(len * 4 / 3 + 2);
    for i in 0..len {
        duplicated.push(i);
        if i % 3 == 0 {
            duplicated.push(i);
        }
    }
    duplicated.extend(sorted.first());
    [sorted.clone(), shuffled(sorted), duplicated]
}

/// Fisher–Yates shuffle driven by a fixed-seed splitmix64 stream.
fn shuffled(mut out: Vec<usize>) -> Vec<usize> {
    let mut state = SEED;
    for i in (1..out.len()).rev() {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        out.swap(i, (z % (i as u64 + 1)) as usize);
    }
    out
}

/// Each score's bit pattern, so `-0.0`, `0.0` and NaNs compare exactly.
pub fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Every metric's one-worker `score_pairs_t` scores of `list`, each
/// checked against its contract.
fn one_worker(snap: &Snapshot, metrics: &Contracted, list: &List) -> Result<Vec<Vec<f64>>, String> {
    metrics
        .iter()
        .zip(&list.references)
        .map(|((m, c), reference)| {
            let scores = exec::score_pairs_t(m.as_ref(), snap, &list.pairs, 1);
            c.check(snap, &list.pairs, &scores, reference.as_deref().unwrap_or(&scores))
                .map_err(|e| format!("{}: engine vs reference: {e}", m.name()))?;
            Ok(scores)
        })
        .collect()
}

/// The batch entry points among `entries`, at every worker count,
/// reproduce the one-worker scores `one`: `score_pairs_t` metric by
/// metric, the whole set's matrix column by column, and its top-k as the
/// serial selection over `one`. The top-k entry point takes a
/// `CandidateSet`, canonical by construction, so a list holding a
/// reversed pair skips it.
fn check_batched(
    snap: &Snapshot,
    metrics: &Contracted,
    list: &List,
    one: &[Vec<f64>],
    entries: &[Entry],
    k: Option<usize>,
) -> Result<(), String> {
    let pairs = &list.pairs;
    let refs: Vec<&dyn Metric> = metrics.iter().map(|(m, _)| m.as_ref()).collect();
    let drift = |i: usize, what: &str, threads: usize| {
        Err(format!("{}: {what} drifted at {threads} workers", refs[i].name()))
    };
    let k = k.unwrap_or((pairs.len() / 2).max(1));
    let top: Vec<Vec<(NodeId, NodeId)>> =
        one.iter().map(|scores| top_k_pairs(pairs, scores, k, SEED)).collect();
    for threads in WORKERS {
        if entries.contains(&Entry::Scores) && threads > 1 {
            for (i, &m) in refs.iter().enumerate() {
                if bits(&exec::score_pairs_t(m, snap, pairs, threads)) != bits(&one[i]) {
                    return drift(i, "score_pairs_t", threads);
                }
            }
        }
        if entries.contains(&Entry::Matrix) {
            let mut cache = SolverCache::transient();
            let matrix = exec::score_matrix_cached_t(&refs, snap, pairs, threads, &mut cache);
            if let Some(i) = (0..refs.len()).find(|&i| bits(&matrix[i]) != bits(&one[i])) {
                return drift(i, "score_matrix_cached_t", threads);
            }
        }
        if entries.contains(&Entry::TopK) && pairs.iter().all(|&(u, v)| u < v) {
            // The top-k entry point reads only the pair list, and this
            // wrapper keeps the list as given, order and repeats included.
            let cands = CandidateSet::three_hop_from_base(pairs.clone());
            let mut cache = SolverCache::transient();
            let picked = exec::predict_top_k_many_cached_t(
                &refs, snap, &cands, k, SEED, threads, &mut cache,
            );
            if let Some(i) = (0..refs.len()).find(|&i| picked[i] != top[i]) {
                return drift(i, "top-k", threads);
            }
        }
    }
    Ok(())
}

/// `score_pairs_targeted` on each source's slice of `list` (its pairs
/// with that first endpoint, in list order), out of one kernel context
/// for every kind and one solver cache per metric, as a serving worker
/// holds them: each slice reproduces the one-worker `score_pairs_t`
/// scores of the same slice and meets the metric's contract.
fn check_targeted(snap: &Snapshot, metrics: &Contracted, list: &List) -> Result<(), String> {
    let mut slices: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
    for (i, &(u, _)) in list.pairs.iter().enumerate() {
        slices.entry(u).or_default().push(i);
    }
    let ctx = FusedCtx::build(snap, &LocalKind::ALL);
    let mut scratch = FusedScratch::new(snap.node_count());
    for ((m, c), reference) in metrics.iter().zip(&list.references) {
        let m = m.as_ref();
        let mut cache = SolverCache::transient();
        for (source, at) in &slices {
            let slice: Vec<(NodeId, NodeId)> = at.iter().map(|&i| list.pairs[i]).collect();
            let targeted =
                exec::score_pairs_targeted(m, snap, &ctx, &mut scratch, &slice, &mut cache);
            let batched = exec::score_pairs_t(m, snap, &slice, 1);
            if bits(&targeted) != bits(&batched) {
                return Err(format!("{}: targeted drifted on source {source}", m.name()));
            }
            let want: Vec<f64> = match reference {
                Some(r) => at.iter().map(|&i| r[i]).collect(),
                None => batched,
            };
            c.check(snap, &slice, &targeted, &want).map_err(|e| {
                format!("{}: targeted vs reference on source {source}: {e}", m.name())
            })?;
        }
    }
    Ok(())
}
