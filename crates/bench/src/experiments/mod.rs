//! The paper's evaluation as one table. Each row of [`EXPERIMENTS`]
//! reproduces one table or figure of Liu et al. (IMC 2016); DESIGN.md §5
//! has the index. A row's name is its whole interface: `--{name}-only`
//! selects it, and the `experiments` binary writes what it returns to
//! `results/{name}.json`, dashes becoming underscores.
//!
//! ```text
//! experiments [--scale F] [--days N] [--seed N] [--snapshots N] [--quick] [--{row}-only]...
//! ```
//!
//! With no `--{row}-only` flag every row runs, in table order. `--quick`
//! caps the scale, trace length and snapshot count for CI and smoke runs.
//! Any other argument prints usage and exits with status 2.
//!
//! Rows print nothing themselves. Each fills a [`Console`], which the
//! binary sends to stdout (tables) and stderr (progress notes) once the
//! row returns. Every function in this module is a root of
//! linklens-check's deterministic surface, since what the rows return is
//! committed under `results/`.

mod bias;
mod classifiers;
mod extensions;
mod growth;
mod sweep;
mod temporal;

use linklens_core::classify::ClassificationConfig;
use osn_graph::sequence::SnapshotSequence;
use osn_trace::presets::TraceConfig;
use osn_trace::GrowthTrace;
use serde_json::Value;
use std::cell::OnceCell;
use std::path::{Path, PathBuf};

/// One table or figure: its name, what its results file holds, and the
/// function that fills its console and returns the file's payload.
pub struct Experiment {
    /// The row's name. It gives the row's flag and its results file.
    pub name: &'static str,
    /// What the results file holds, as the line announcing it says.
    pub holds: &'static str,
    /// Runs the row.
    pub run: fn(&Context, &mut Console) -> Value,
}

/// Every experiment, in run order.
pub const EXPERIMENTS: [Experiment; 22] = [
    Experiment { name: "table2", holds: "raw rows", run: growth::table2 },
    Experiment { name: "fig1", holds: "series", run: growth::fig1 },
    Experiment { name: "fig2-4", holds: "series", run: growth::fig2_4 },
    Experiment { name: "fig5", holds: "full sweep", run: sweep::fig5 },
    Experiment { name: "table4", holds: "raw rows", run: sweep::table4 },
    Experiment { name: "fig6", holds: "rules", run: sweep::fig6 },
    Experiment { name: "fig7", holds: "rows", run: bias::fig7 },
    Experiment { name: "table5", holds: "rows", run: bias::table5 },
    Experiment { name: "fig8", holds: "rows", run: bias::fig8 },
    Experiment { name: "fig9", holds: "cells", run: classifiers::fig9 },
    Experiment { name: "fig10", holds: "cells", run: classifiers::fig10 },
    Experiment { name: "fig11", holds: "rows", run: classifiers::fig11 },
    Experiment { name: "fig12", holds: "rows", run: classifiers::fig12 },
    Experiment { name: "fig13-15", holds: "raw samples", run: temporal::fig13_15 },
    Experiment { name: "table8", holds: "rows", run: temporal::table8 },
    Experiment { name: "table8-ablation", holds: "rows", run: temporal::table8_ablation },
    Experiment { name: "fig16", holds: "rows", run: temporal::fig16 },
    Experiment { name: "ext-nulls", holds: "rows", run: extensions::nulls },
    Experiment { name: "ext-auc", holds: "rows", run: extensions::auc },
    Experiment { name: "ext-events", holds: "series", run: extensions::events },
    Experiment { name: "ext-recency", holds: "rows", run: extensions::recency },
    Experiment { name: "ext-calibration", holds: "bins", run: extensions::calibration },
];

impl Experiment {
    /// `--{name}-only`.
    pub fn flag(&self) -> String {
        crate::row_flag(self.name)
    }

    /// `results/{name}.json`, dashes becoming underscores.
    pub fn file(&self) -> PathBuf {
        Path::new("results").join(format!("{}.json", self.name.replace('-', "_")))
    }
}

/// What a row prints, kept until the row returns.
#[derive(Debug, Default)]
pub struct Console {
    /// Tables and readings, for stdout.
    pub out: String,
    /// Progress notes, for stderr.
    pub log: String,
}

impl Console {
    /// Appends `text` to stdout as it is.
    pub fn print(&mut self, text: &str) {
        self.out.push_str(text);
    }

    /// Appends `text` and a newline to stdout.
    pub fn println(&mut self, text: &str) {
        self.out.push_str(text);
        self.out.push('\n');
    }

    /// Appends `text` and a newline to stderr.
    pub fn note(&mut self, text: &str) {
        self.log.push_str(text);
        self.log.push('\n');
    }
}

/// The common flags, and what every row shares: the three preset traces
/// and the Figure 5 sweep, each built at most once, on first use.
/// Outside this crate only [`parse_args`] sets the flags, so the cached
/// traces and sweep always match them.
pub struct Context {
    /// Trace scale factor in (0, 1].
    pub(crate) scale: f64,
    /// Simulated days per trace.
    pub(crate) days: u32,
    /// Master seed.
    pub(crate) seed: u64,
    /// Target snapshot count per sequence.
    pub(crate) snapshots: usize,
    /// Quick mode (CI smoke).
    pub(crate) quick: bool,
    traces: OnceCell<Vec<(TraceConfig, GrowthTrace)>>,
    sweep: OnceCell<Vec<NetworkSweep>>,
}

impl Default for Context {
    fn default() -> Self {
        Context {
            scale: 1.0,
            days: 120,
            seed: 42,
            snapshots: 16,
            quick: false,
            traces: OnceCell::new(),
            sweep: OnceCell::new(),
        }
    }
}

impl Context {
    /// The three network presets at this context's scale and length, each
    /// with its trace (deterministic in the seed).
    pub fn traces(&self) -> &[(TraceConfig, GrowthTrace)] {
        self.traces.get_or_init(|| {
            TraceConfig::all()
                .into_iter()
                .map(|c| {
                    let c = c.scaled(self.scale).with_days(self.days);
                    let t = c.generate(self.seed);
                    (c, t)
                })
                .collect()
        })
    }

    /// Builds the standard snapshot sequence over a trace.
    pub fn sequence<'a>(&self, trace: &'a GrowthTrace) -> SnapshotSequence<'a> {
        SnapshotSequence::with_count(trace, self.snapshots)
    }

    /// A middle "measurement" transition index — what the paper calls "the
    /// Renren snapshot at 55M edges" style single-snapshot analyses.
    pub fn mid_transition(&self) -> usize {
        (self.snapshots * 3 / 4).max(2)
    }

    /// The full Figure 5 sweep over all three networks.
    pub fn sweep(&self) -> &[NetworkSweep] {
        self.sweep.get_or_init(|| {
            let metrics = osn_metrics::figure5_metrics();
            let refs: Vec<&dyn osn_metrics::traits::Metric> =
                metrics.iter().map(|m| m.as_ref()).collect();
            self.traces()
                .iter()
                .map(|(cfg, trace)| {
                    let seq = self.sequence(trace);
                    let eval = linklens_core::framework::SequenceEvaluator::new(&seq);
                    let outcomes = eval.evaluate_all(&refs, None);
                    let mut lambda2 = Vec::new();
                    let mut properties = Vec::new();
                    // One incremental sweep serves both property series; the
                    // final snapshot is never observed, so it is never
                    // materialized.
                    let mut sweep = seq.snapshots();
                    for t in 1..seq.len() {
                        let prev = sweep.next().expect("sweep yields every boundary");
                        lambda2.push(osn_graph::stats::two_hop_edge_ratio(prev, &seq.new_edges(t)));
                        properties.push(osn_graph::stats::snapshot_properties(prev, 30));
                    }
                    NetworkSweep {
                        network: cfg.name.clone(),
                        metric_names: refs.iter().map(|m| m.name().to_string()).collect(),
                        outcomes,
                        lambda2,
                        properties,
                    }
                })
                .collect()
        })
    }
}

/// Parses the common flags and the row selection.
///
/// # Errors
///
/// A message for an unknown argument, a missing value or a value that
/// does not parse; an empty message for `--help`.
pub fn parse_args(args: &[String]) -> Result<(Context, Vec<usize>), String> {
    fn value<T: std::str::FromStr>(
        flag: &str,
        rest: &mut std::slice::Iter<'_, String>,
    ) -> Result<T, String> {
        let raw = rest.next().ok_or_else(|| format!("missing value for {flag}"))?;
        raw.parse().map_err(|_| format!("bad {flag} value `{raw}`"))
    }
    let mut ctx = Context::default();
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    let only = crate::select_rows(args, &names, |arg, rest| {
        match arg {
            "--scale" => ctx.scale = value(arg, rest)?,
            "--days" => ctx.days = value(arg, rest)?,
            "--seed" => ctx.seed = value(arg, rest)?,
            "--snapshots" => ctx.snapshots = value(arg, rest)?,
            "--quick" => ctx.quick = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
        Ok(())
    })?;
    if ctx.quick {
        ctx.scale = ctx.scale.min(0.12);
        ctx.days = ctx.days.min(45);
        ctx.snapshots = ctx.snapshots.min(8);
    }
    Ok((ctx, only))
}

/// One network's full metric sweep: the Figure 5 data plus the per-snapshot
/// properties and λ₂ series that several other experiments reuse.
#[derive(Clone, Debug, serde::Serialize)]
pub struct NetworkSweep {
    /// Network preset name.
    pub network: String,
    /// Metric display names in column order.
    pub metric_names: Vec<String>,
    /// `outcomes[metric][transition]` (transitions `1..T`).
    pub outcomes: Vec<Vec<linklens_core::framework::PredictionOutcome>>,
    /// λ₂ per transition (fraction of truth edges that close 2-hop pairs).
    pub lambda2: Vec<f64>,
    /// Per-*observed*-snapshot network properties (indices `0..T-1`).
    pub properties: Vec<osn_graph::stats::SnapshotProperties>,
}

/// Node count of snapshot `i` — an O(log n) arrival lookup, no CSR build.
fn snapshot_node_count(seq: &SnapshotSequence<'_>, i: usize) -> usize {
    let time = seq.trace().edges()[seq.boundary(i) - 1].t;
    seq.trace().nodes_at(time)
}

/// Standard classification setup shared by the §5/§6 rows.
fn classification_config(
    seq: &SnapshotSequence<'_>,
    t: usize,
    ctx: &Context,
) -> ClassificationConfig {
    // Mirror the paper's §5.1 rule: the smallest network (Facebook) is used
    // whole (p = 100%), the larger two are snowball-sampled so the sample
    // holds about `target` nodes. "Small" here means the whole graph fits
    // the evaluation budget.
    let nodes = snapshot_node_count(seq, t - 1);
    let target = if ctx.quick { 250 } else { 600 };
    let sampling_p = if nodes <= 2_600 { 1.0 } else { (target as f64 / nodes as f64).min(1.0) };
    ClassificationConfig {
        sampling_p,
        n_seeds: if ctx.quick { 2 } else { 5 },
        seed: ctx.seed,
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn parse(args: &[&str]) -> Result<(Context, Vec<usize>), String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn no_arguments_run_every_row_at_the_defaults() {
        let (ctx, only) = parse(&[]).unwrap();
        assert_eq!(
            (ctx.scale, ctx.days, ctx.seed, ctx.snapshots, ctx.quick),
            (1.0, 120, 42, 16, false)
        );
        assert!(only.is_empty());
    }

    #[test]
    fn common_flags_and_row_flags_parse_in_any_order() {
        let (ctx, only) = parse(&[
            "--fig16-only",
            "--scale",
            "0.35",
            "--days",
            "90",
            "--table2-only",
            "--seed",
            "7",
            "--snapshots",
            "12",
        ])
        .unwrap();
        assert_eq!((ctx.scale, ctx.days, ctx.seed, ctx.snapshots), (0.35, 90, 7, 12));
        assert_eq!(only, vec![0, 16], "selected rows run in table order");
        for (i, row) in EXPERIMENTS.iter().enumerate() {
            assert_eq!(parse(&[&row.flag()]).unwrap().1, vec![i], "{}", row.name);
        }
    }

    #[test]
    fn quick_caps_scale_days_and_snapshots() {
        let (ctx, _) = parse(&["--quick", "--scale", "0.35", "--days", "30"]).unwrap();
        assert_eq!((ctx.scale, ctx.days, ctx.snapshots, ctx.quick), (0.12, 30, 8, true));
    }

    #[test]
    fn bad_and_unknown_arguments_are_rejected() {
        for args in [
            &["--sweep"][..],
            &["--fig5"],
            &["--scale"],
            &["--days", "--fig5-only"],
            &["--seed", "-1"],
            &["--snapshots", "1.5"],
            &["0.35"],
        ] {
            assert!(parse(args).is_err(), "{args:?}");
        }
        assert_eq!(parse(&["--help"]).err(), Some(String::new()));
    }

    #[test]
    fn row_names_flags_and_files_are_distinct() {
        let names: HashSet<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        let files: HashSet<PathBuf> = EXPERIMENTS.iter().map(Experiment::file).collect();
        assert_eq!((names.len(), files.len()), (EXPERIMENTS.len(), EXPERIMENTS.len()));
        let fig2_4 = &EXPERIMENTS[2];
        assert_eq!(
            (fig2_4.flag(), fig2_4.file()),
            ("--fig2-4-only".into(), PathBuf::from("results/fig2_4.json"))
        );
    }
}
