//! # linklens-bench
//!
//! The experiment harness: two table-driven binaries plus criterion
//! microbenches of the substrate and metrics.
//!
//! * `experiments` reproduces the paper's tables and figures. Each is a
//!   row of [`experiments::EXPERIMENTS`] (DESIGN.md §5 has the index),
//!   sharing one [`experiments::Context`]: the common flags, the three
//!   synthetic traces (facebook-like, renren-like, youtube-like) and the
//!   Figure 5 sweep, each built at most once, on first use.
//! * `scalecheck` checks each fast path against its reference at scale,
//!   then times both, one row per scenario.
//!
//! Both name a row the same way: `--{name}-only` selects it (see
//! [`select_rows`]), and its name, dashes becoming underscores, names its
//! output file.
//!
//! [`oracles`] holds the reference implementations the scoring engine is
//! checked against: `scalecheck` calls them directly, and the library
//! crates' integration tests reach them as a dev-dependency.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod oracles;

/// The flag that selects row `name`: `--{name}-only`.
pub fn row_flag(name: &str) -> String {
    format!("--{name}-only")
}

/// The command-line loop of the table-driven binaries. An argument equal
/// to the [`row_flag`] of one of `rows` selects that row; every other
/// argument goes to `other`, which may take the arguments after it from
/// `rest` as its values. Returns the selected rows' indices, ascending and
/// without repeats; an empty list selects every row.
///
/// # Errors
///
/// The first error `other` returns.
pub fn select_rows<'a>(
    args: &'a [String],
    rows: &[&str],
    mut other: impl FnMut(&'a str, &mut std::slice::Iter<'a, String>) -> Result<(), String>,
) -> Result<Vec<usize>, String> {
    let mut only = Vec::new();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match rows.iter().position(|&name| row_flag(name) == *arg) {
            Some(i) if !only.contains(&i) => only.push(i),
            Some(_) => {}
            None => other(arg.as_str(), &mut rest)?,
        }
    }
    only.sort_unstable();
    Ok(only)
}

/// The writer every `BENCH_*.json` report of the scalecheck rows goes
/// through.
pub mod bench_merge {
    use serde_json::Value;

    /// Serializes `report` pretty-printed to `path` and logs the write.
    ///
    /// # Panics
    /// Panics when serialization or the write fails — a bench run that
    /// cannot record its results must fail loudly, not return a success
    /// exit code with nothing on disk.
    pub fn write_report(path: &str, report: &Value) {
        let text = serde_json::to_string_pretty(report).expect("serialize bench json");
        std::fs::write(path, text).expect("write bench json");
        // linklens-allow(print-in-lib): harness progress logging for long experiment runs goes to stderr by design
        println!("wrote {path}");
    }
}

/// Small numeric summaries shared by the scalecheck scenarios.
pub mod stats {
    /// p50 / p95 / p99 of a latency (or any) sample set.
    #[derive(Clone, Copy, Debug, Default, PartialEq)]
    pub struct Percentiles {
        /// Median.
        pub p50: f64,
        /// 95th percentile.
        pub p95: f64,
        /// 99th percentile.
        pub p99: f64,
    }

    /// NaN-safe percentile summary: samples are ranked with `total_cmp`
    /// (NaNs sort above every number instead of poisoning the order), and
    /// each percentile is the nearest-rank element — the value at index
    /// `ceil(q·n) - 1` of the sorted sample, so it is always an observed
    /// sample, never an interpolation. An empty input yields all zeros.
    pub fn percentiles(samples: &[f64]) -> Percentiles {
        if samples.is_empty() {
            return Percentiles::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable_by(|a, b| a.total_cmp(b));
        let at = |q: f64| {
            let rank = (q * sorted.len() as f64).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1]
        };
        Percentiles { p50: at(0.50), p95: at(0.95), p99: at(0.99) }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn empty_input_yields_zeros() {
            assert_eq!(percentiles(&[]), Percentiles::default());
        }

        #[test]
        fn single_sample_is_every_percentile() {
            let p = percentiles(&[7.5]);
            assert_eq!((p.p50, p.p95, p.p99), (7.5, 7.5, 7.5));
        }

        #[test]
        fn nearest_rank_on_a_clean_spread() {
            // 1..=100: nearest-rank p50 = 50, p95 = 95, p99 = 99.
            let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
            let p = percentiles(&v);
            assert_eq!((p.p50, p.p95, p.p99), (50.0, 95.0, 99.0));
            // Order must not matter.
            let mut rev = v.clone();
            rev.reverse();
            assert_eq!(percentiles(&rev), p);
        }

        #[test]
        fn nans_rank_last_instead_of_poisoning() {
            // With two NaNs among eight finite values, p50 still lands on
            // a finite sample and p99 picks the (NaN) maximum rank.
            let v = [3.0, f64::NAN, 1.0, 2.0, 4.0, 5.0, 6.0, f64::NAN, 7.0, 8.0];
            let p = percentiles(&v);
            assert_eq!(p.p50, 5.0);
            assert!(p.p99.is_nan(), "NaNs sort above every number under total_cmp");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use experiments::Context;

    fn context(scale: f64, days: u32, snapshots: usize) -> Context {
        let mut ctx = Context::default();
        (ctx.scale, ctx.days, ctx.snapshots) = (scale, days, snapshots);
        ctx
    }

    #[test]
    fn default_context_produces_three_traces() {
        let ctx = context(0.05, 25, 16);
        let traces = ctx.traces();
        assert_eq!(traces.len(), 3);
        for (cfg, t) in traces {
            assert!(t.edge_count() > 0, "{} empty", cfg.name);
        }
        assert!(std::ptr::eq(traces, ctx.traces()), "traces are generated once");
    }

    #[test]
    fn sequence_has_requested_snapshots() {
        let ctx = context(0.05, 25, 6);
        let seq = ctx.sequence(&ctx.traces()[0].1);
        assert_eq!(seq.len(), 6);
    }

    #[test]
    fn mid_transition_in_range() {
        let ctx = context(1.0, 120, 16);
        let t = ctx.mid_transition();
        assert!((2..16).contains(&t));
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn row_flags_select_rows_in_table_order_once() {
        let rows = ["a", "b-c", "d"];
        let args = strings(&["--d-only", "--a-only", "--d-only"]);
        let only = select_rows(&args, &rows, |arg, _| Err(arg.to_string())).unwrap();
        assert_eq!(only, vec![0, 2]);
        let none = select_rows(&[], &rows, |arg, _| Err(arg.to_string())).unwrap();
        assert!(none.is_empty(), "no flag selects every row");
    }

    #[test]
    fn other_arguments_take_their_values_from_the_rest() {
        let args = strings(&["--n", "3", "--b-c-only", "--m"]);
        let mut seen = Vec::new();
        let only = select_rows(&args, &["a", "b-c"], |arg, rest| {
            seen.push((arg.to_string(), rest.next().cloned()));
            Ok(())
        })
        .unwrap();
        assert_eq!(only, vec![1]);
        assert_eq!(seen, vec![("--n".into(), Some("3".into())), ("--m".into(), None)]);
        let err = select_rows(&args, &["a"], |arg, _| Err(format!("bad {arg}")));
        assert_eq!(err, Err("bad --n".into()));
    }
}
