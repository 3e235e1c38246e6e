//! Seeded inputs. Everything a workload feeds the program comes from
//! `--seed` through these functions: the same seed gives the same query
//! streams, probes and ingest schedule, and a different seed gives
//! different ones, except for the one reference input every run shares
//! (see [`input_seed`]). (The traces themselves come from the library's
//! own seeded generators; see `layers`.)

use std::ops::Range;

/// One splitmix64 step.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An independent stream seed for `(seed, salt)`.
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut s = seed ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03);
    splitmix64(&mut s)
}

/// The seed every run's reference input is generated from.
const REFERENCE_SEED: u64 = 0x1_1AC5_2016;

/// The generator seed of input `i` of a run with `seed`. Input 0 is the
/// reference input, the same for every seed, so the accuracy read from it
/// is one number per build and a change that moves the rankings moves it
/// on every run. Inputs 1 and up come from `seed`.
pub fn input_seed(seed: u64, i: usize) -> u64 {
    derive(if i == 0 { REFERENCE_SEED } else { seed }, i as u64)
}

/// The input a traced run traces first: the first one from the seed.
pub const TRACED_INPUT: usize = 1;

/// Zipfian rank in `[0, n)` by inverse CDF: `floor(exp(U(0, ln(n+1)))) - 1`
/// lands on rank r with probability `ln((r+2)/(r+1)) / ln(n+1)`, roughly
/// proportional to 1/(r+1), so low node ids (the oldest, best-connected
/// users) are the popular ones.
pub fn zipf_rank(state: &mut u64, n: usize) -> usize {
    assert!(n > 0, "zipf_rank needs a non-empty range");
    let u = (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64;
    let r = (u * ((n + 1) as f64).ln()).exp() as usize;
    r.saturating_sub(1).min(n - 1)
}

/// One per-user top-k request: metric index and source user.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Query {
    pub metric: u32,
    pub source: u32,
}

/// Client `client`'s query stream: `count` requests that take the metrics
/// in turn, each with a Zipfian source among the first `users` node ids.
/// Taking the metrics in turn gives every stream the same metric mix, so
/// a latency percentile does not move with a drawn mix when the metrics'
/// costs differ by orders of magnitude.
pub fn query_stream(
    seed: u64,
    client: u64,
    count: usize,
    users: usize,
    metrics: usize,
) -> Vec<Query> {
    let mut state = derive(seed, 0x51DE_0000 + client);
    (0..count)
        .map(|i| Query {
            metric: (i % metrics) as u32,
            source: zipf_rank(&mut state, users) as u32,
        })
        .collect()
}

/// `count` Zipfian probe users among the first `users` node ids.
pub fn probes(seed: u64, count: usize, users: usize) -> Vec<u32> {
    let mut state = derive(seed, 0x009B_0BE5);
    (0..count).map(|_| zipf_rank(&mut state, users) as u32).collect()
}

/// The ingest schedule for a trace tail: `[from, to)` cut into `batches`
/// contiguous edge ranges of near-equal size, in order.
pub fn tail_batches(from: usize, to: usize, batches: usize) -> Vec<Range<usize>> {
    assert!(from < to && batches > 0, "tail_batches needs a non-empty tail and batch count");
    let len = to - from;
    let batches = batches.min(len);
    (0..batches).map(|i| from + len * i / batches..from + len * (i + 1) / batches).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_stream() {
        assert_eq!(query_stream(7, 0, 500, 1000, 6), query_stream(7, 0, 500, 1000, 6));
        assert_eq!(probes(7, 12, 1000), probes(7, 12, 1000));
    }

    #[test]
    fn only_the_reference_input_ignores_the_seed() {
        assert_eq!(input_seed(1, 0), input_seed(2, 0));
        assert_eq!(input_seed(1, 3), input_seed(1, 3));
        assert_ne!(input_seed(1, 1), input_seed(2, 1));
        assert_ne!(input_seed(1, 1), input_seed(1, 2));
        assert_ne!(input_seed(1, 0), input_seed(1, 1));
    }

    #[test]
    fn different_seed_or_client_gives_a_different_stream() {
        let base = query_stream(7, 0, 500, 1000, 6);
        assert_ne!(base, query_stream(8, 0, 500, 1000, 6));
        assert_ne!(base, query_stream(7, 1, 500, 1000, 6));
        assert_ne!(probes(7, 12, 1000), probes(8, 12, 1000));
    }

    #[test]
    fn streams_stay_in_range_and_favour_low_ids() {
        let qs = query_stream(3, 0, 20_000, 1000, 6);
        assert!(qs.iter().all(|q| q.metric < 6 && q.source < 1000));
        assert!(qs.iter().any(|q| q.source == 0), "rank 0 is the most popular user");
        let low = qs.iter().filter(|q| q.source < 10).count();
        let high = qs.iter().filter(|q| q.source >= 990).count();
        assert!(low > 10 * high.max(1), "Zipf mass should sit on low ids ({low} vs {high})");
    }

    #[test]
    fn every_stream_has_the_same_metric_mix() {
        for seed in [1, 2, 3] {
            let qs = query_stream(seed, 0, 100, 1000, 3);
            let per_metric: Vec<usize> =
                (0..3).map(|m| qs.iter().filter(|q| q.metric == m).count()).collect();
            assert_eq!(per_metric, [34, 33, 33]);
        }
    }

    #[test]
    fn tail_batches_partition_the_tail() {
        let b = tail_batches(100, 1_103, 200);
        assert_eq!(b.len(), 200);
        assert_eq!(b[0].start, 100);
        assert_eq!(b[199].end, 1_103);
        assert!(b.windows(2).all(|w| w[0].end == w[1].start && !w[0].is_empty()));
        assert_eq!(tail_batches(0, 3, 10).len(), 3, "never more batches than edges");
    }
}
