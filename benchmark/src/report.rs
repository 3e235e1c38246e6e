//! Metric names and units, the percentile guard, and the result line.
//!
//! Every workload reports every metric of a list: the end-to-end list in a
//! timed run, the per-layer list in a traced run. A layer a workload never
//! calls reports 0. `BENCHMARK.json` at the repository root names the same
//! metrics; a unit test keeps the two in step.

use std::collections::BTreeMap;

/// End-to-end metrics: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("request_p50_ms", "ms"),
    ("request_tail_ms", "ms"),
    ("advance_p50_ms", "ms"),
    ("peak_heap_mb", "MiB"),
    ("accuracy_ratio_mean", "ratio"),
];

/// The metrics `--trace 1` prints, one per (layer, quantity).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.overhead_frac", "fraction"),
    ("trace.covered_frac", "fraction"),
    ("trace.generate_s", "s"),
    ("trace.events", "count"),
    ("graph.advance_s", "s"),
    ("graph.io.cache_bytes", "bytes"),
    ("graph.io.sections", "count"),
    ("graph.live.publish_ms_p50", "ms"),
    ("metrics.candidates.within3_s", "s"),
    ("metrics.candidates.two_hop_s", "s"),
    ("metrics.candidates.global_s", "s"),
    ("metrics.candidates.two_hop_pairs", "count"),
    ("metrics.candidates.three_hop_pairs", "count"),
    ("metrics.candidates.global_pairs", "count"),
    ("metrics.score.two_hop_s", "s"),
    ("metrics.score.three_hop_s", "s"),
    ("metrics.score.global_s", "s"),
    ("metrics.score.CN_ms", "ms"),
    ("metrics.score.JC_ms", "ms"),
    ("metrics.score.AA_ms", "ms"),
    ("metrics.score.RA_ms", "ms"),
    ("metrics.score.BCN_ms", "ms"),
    ("metrics.score.BAA_ms", "ms"),
    ("metrics.score.BRA_ms", "ms"),
    ("metrics.score.LP_ms", "ms"),
    ("metrics.score.LRW_ms", "ms"),
    ("metrics.score.PPR_ms", "ms"),
    ("metrics.score.SP_ms", "ms"),
    ("metrics.score.Katz-lr_ms", "ms"),
    ("metrics.score.Katz-sc_ms", "ms"),
    ("metrics.score.PA_ms", "ms"),
    ("solver.ppr_sources", "count"),
    ("solver.ppr_iterations", "count"),
    ("solver.ppr_warm_starts", "count"),
    ("solver.ppr_sources_per_miss", "count"),
    ("core.evaluate_s", "s"),
    ("core.sampling.CN_s", "s"),
    ("core.sampling.AA_s", "s"),
    ("core.sampling.RA_s", "s"),
    ("core.sampling.sample_size_mean", "count"),
    ("serve.query.hit_ms_p50", "ms"),
    ("serve.query.miss_ms_p50", "ms"),
    ("serve.query.miss_ms_tail", "ms"),
    ("serve.query.wait_ms_p50", "ms"),
    ("serve.query.enumerate_ms_p50", "ms"),
    ("serve.query.candidates_per_miss_p50", "count"),
    ("serve.query.score_ms_p50", "ms"),
    ("serve.query.score_ms_tail", "ms"),
    ("serve.query.topk_ms_p50", "ms"),
    ("serve.cache.hit_rate", "fraction"),
    ("serve.admission.rejected", "count"),
    ("serve.ingest_ms_p50", "ms"),
    ("serve.versions_observed", "count"),
    ("serve.store.derive_ms_p50", "ms"),
    ("serve.publish.other_ms_p50", "ms"),
    ("serve.repin.fused_ctx_ms_p50", "ms"),
];

/// The percentiles the benchmark reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pct {
    P50,
    P95,
    P99,
}

impl Pct {
    fn q(self) -> f64 {
        match self {
            Pct::P50 => 0.50,
            Pct::P95 => 0.95,
            Pct::P99 => 0.99,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            Pct::P50 => "p50",
            Pct::P95 => "p95",
            Pct::P99 => "p99",
        }
    }

    /// Fewest samples that leave at least ten beyond this percentile's
    /// nearest rank.
    pub fn min_samples(self) -> usize {
        (1..).find(|&n| n - (self.q() * n as f64).ceil() as usize >= 10).expect("some n suffices")
    }
}

/// The percentile of `samples`, refused when fewer than ten samples lie
/// beyond it: a tail read off a handful of points is noise.
pub fn percentile(samples: &[f64], p: Pct) -> Result<f64, String> {
    if samples.len() < p.min_samples() {
        return Err(format!(
            "{} of {} samples refused: it needs at least {}",
            p.label(),
            samples.len(),
            p.min_samples()
        ));
    }
    let all = linklens_bench::stats::percentiles(samples);
    Ok(match p {
        Pct::P50 => all.p50,
        Pct::P95 => all.p95,
        Pct::P99 => all.p99,
    })
}

/// [`percentile`] for a layer metric: a layer the workload never called
/// has no samples and reports 0.
pub fn layer_percentile(samples: &[f64], p: Pct) -> Result<f64, String> {
    if samples.is_empty() {
        Ok(0.0)
    } else {
        percentile(samples, p)
    }
}

/// A run's percentile over its rounds' samples: taken per round and the
/// median over rounds reported, so one round disturbed by the host cannot
/// move it; pooled across rounds when one round holds too few samples.
pub fn run_percentile(rounds: &[Vec<f64>], p: Pct) -> Result<f64, String> {
    if rounds.iter().all(|r| r.len() >= p.min_samples()) {
        let per_round = rounds.iter().map(|r| percentile(r, p)).collect::<Result<Vec<_>, _>>()?;
        Ok(median(&per_round))
    } else {
        percentile(&rounds.concat(), p)
    }
}

/// Median of a non-empty sample, the mean of the middle two for an even
/// count (no guard: used for medians over a run's few inputs or rounds,
/// where the middle two are both measurements worth keeping).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of nothing");
    let mut sorted = samples.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let n = sorted.len();
    (sorted[(n - 1) / 2] + sorted[n / 2]) / 2.0
}

/// FNV-1a over 64-bit words. A run folds its deterministic outputs into
/// one, and prints it, so that runs of two commits at one seed show
/// whether a change moved any ranking.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
        }
    }
}

/// A workload's outcome: the check verdict, the request counts and the
/// measured metric values.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Failed output checks, one line each.
    pub failures: Vec<String>,
    /// Percentiles the guard refused, one line each. A timed or traced run
    /// with a refusal prints no result; `--smoke` only reports them.
    pub refused: Vec<String>,
    pub attempted: usize,
    pub failed: usize,
    /// Values by name. A name not on the printed list (such as the
    /// accuracy of a traced run) is printed on stderr only.
    pub values: BTreeMap<&'static str, f64>,
    /// The workload's deterministic outputs: the sweep outcomes or sampled
    /// estimates of the first cycle of inputs, or the serve workloads'
    /// probe answers at the first input's final version.
    pub digest: Digest,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Sets `accuracy_ratio_mean`, read from the reference input, and
    /// checks that the predictions beat a random pick (a ratio above 1),
    /// so a change that breaks the rankings fails the run instead of only
    /// moving a number. (A traced run traces a seeded input, where a few
    /// sampled draws may catch no hit at all, and only records the ratio.)
    pub fn set_accuracy(&mut self, ratio: f64) {
        self.set("accuracy_ratio_mean", ratio);
        self.check(ratio > 1.0, || {
            format!("accuracy ratio {ratio} does not beat a random pick (1.0)")
        });
    }

    /// Sets `name` to the run's guarded percentile (see
    /// [`run_percentile`]), or notes the refusal.
    pub fn set_percentile(
        &mut self,
        name: &'static str,
        rounds: &[Vec<f64>],
        p: Pct,
    ) -> Option<f64> {
        self.record(name, run_percentile(rounds, p))
    }

    /// [`set_percentile`](Self::set_percentile) for a layer metric, which
    /// reads 0 when the layer was never called.
    pub fn set_layer_percentile(
        &mut self,
        name: &'static str,
        samples: &[f64],
        p: Pct,
    ) -> Option<f64> {
        self.record(name, layer_percentile(samples, p))
    }

    fn record(&mut self, name: &'static str, value: Result<f64, String>) -> Option<f64> {
        match value {
            Ok(v) => {
                self.set(name, v);
                Some(v)
            }
            Err(why) => {
                self.refused.push(format!("{name}: {why}"));
                None
            }
        }
    }

    /// The result line for the metrics in `list`. Every listed metric must
    /// be present and finite; a layer the workload never called reports 0.
    pub fn result_line(
        &self,
        list: &[(&str, &str)],
        zero_if_missing: bool,
    ) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(list.len());
        for &(name, unit) in list {
            let value = match self.values.get(name) {
                Some(&v) => v,
                None if zero_if_missing => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            metrics.push(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    #[test]
    fn guard_needs_ten_samples_beyond_the_percentile() {
        assert_eq!(Pct::P50.min_samples(), 20);
        assert_eq!(Pct::P95.min_samples(), 200);
        assert_eq!(Pct::P99.min_samples(), 1000);
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert!(percentile(&v, Pct::P50).is_err(), "19 samples leave only 9 beyond p50");
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, Pct::P50), Ok(10.0));
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(percentile(&v, Pct::P99).is_err());
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, Pct::P99), Ok(990.0));
    }

    #[test]
    fn run_percentile_takes_the_median_round_or_pools_thin_rounds() {
        let round = |scale: f64| (1..=20).map(|i| scale * f64::from(i)).collect::<Vec<f64>>();
        // Three rounds with p50 10, 20 and 1000: one disturbed round does
        // not move the median over rounds.
        let rounds = vec![round(1.0), round(2.0), round(100.0)];
        assert_eq!(run_percentile(&rounds, Pct::P50), Ok(20.0));
        // An even count of rounds averages the middle two.
        let rounds = vec![round(1.0), round(2.0), round(4.0), round(100.0)];
        assert_eq!(run_percentile(&rounds, Pct::P50), Ok(30.0));
        // Rounds of 10 samples cannot carry a p50 alone: pooled instead.
        let thin = vec![(1..=10).map(f64::from).collect(), (11..=20).map(f64::from).collect()];
        assert_eq!(run_percentile(&thin, Pct::P50), Ok(10.0));
        assert!(run_percentile(&[vec![1.0; 5]], Pct::P50).is_err());
    }

    #[test]
    fn unused_layers_report_zero_but_thin_samples_are_refused() {
        assert_eq!(layer_percentile(&[], Pct::P99), Ok(0.0));
        assert!(layer_percentile(&[1.0, 2.0], Pct::P50).is_err());
        let mut o = Outcome::default();
        assert_eq!(o.set_layer_percentile("unused", &[], Pct::P50), Some(0.0));
        assert_eq!(o.set_percentile("thin", &[vec![1.0, 2.0]], Pct::P50), None);
        assert_eq!(o.values.get("unused"), Some(&0.0));
        assert!(!o.values.contains_key("thin"));
        assert_eq!(o.refused.len(), 1);
    }

    #[test]
    fn result_line_lists_every_metric_and_rejects_gaps() {
        let mut o = Outcome { attempted: 3, ..Outcome::default() };
        o.set("a", 1.25);
        let list = [("a", "s"), ("b", "count")];
        assert!(o.result_line(&list, false).is_err(), "b is missing");
        let line = o.result_line(&list, true).expect("zero fill");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.25, \"unit\": \"s\"}, \"b\": {\"value\": 0.0, \"unit\": \"count\"}}}"
        );
        o.set("a", f64::NAN);
        assert!(o.result_line(&list, true).is_err());
        o.set("a", 1.0);
        o.check(false, || "broken".into());
        assert!(o.result_line(&list, true).expect("line").starts_with("{\"correct\": false"));
    }

    #[test]
    fn digest_is_fnv1a_and_sees_every_word_in_order() {
        // FNV-1a 64 of the eight zero bytes.
        let mut d = Digest::default();
        d.add(0);
        assert_eq!(d, Digest(0xA8C7_F832_281A_39C5));
        let digest = |words: &[u64]| {
            let mut d = Digest::default();
            words.iter().for_each(|&w| d.add(w));
            d
        };
        assert_ne!(digest(&[1, 2]), digest(&[2, 1]));
        assert_ne!(digest(&[1]), digest(&[1, 0]));
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let field = |e: &Value, f: &str| match e.get(f) {
            Some(Value::String(s)) => s.clone(),
            other => panic!("{f} is not a string: {other:?}"),
        };
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Value::Array(entries)) = doc.get(key) else { panic!("{key} is not an array") };
            let named: Vec<(String, String)> =
                entries.iter().map(|e| (field(e, "name"), field(e, "unit"))).collect();
            let expected: Vec<(String, String)> =
                list.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(named, expected, "{key} in BENCHMARK.json");
        }
    }
}
