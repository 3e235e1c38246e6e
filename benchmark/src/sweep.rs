//! `sweep`: the paper's §4 evaluation — every predictor except Rescal over
//! every transition of a snapshot sequence. Candidate enumeration and the
//! global solvers (LP, LRW, PPR, SP, Katz) dominate; graph advance is well
//! under a millisecond and no serving code runs.

use crate::inputs::{input_seed, TRACED_INPUT};
use crate::layers;
use crate::report::{Digest, Outcome, Pct};
use crate::spans::{self, Recorder};
use crate::{heap, repeat_setup, timed_rounds, RunMode, Timed};
use std::time::Instant;

pub struct Params {
    pub scale: f64,
    pub days: u32,
    pub snapshots: usize,
    /// Distinct inputs (traces) a run measures.
    pub inputs: usize,
    /// Transition the per-metric attribution scores.
    pub attribution_t: usize,
}

pub const FULL: Params =
    Params { scale: 0.12, days: 60, snapshots: 6, inputs: 4, attribution_t: 4 };
pub const SMOKE: Params =
    Params { scale: 0.06, days: 30, snapshots: 6, inputs: 4, attribution_t: 4 };

/// Transitions are the sweep's requests; a run holds a few dozen, which
/// support a median and nothing higher.
const TAIL: Pct = Pct::P50;

struct Round {
    input: usize,
    timed: Timed,
    pass: layers::SweepPass,
}

fn round(p: &Params, seed: u64, input: usize) -> Result<(layers::Trace, Round), String> {
    let heap = heap::Window::open();
    let (trace, setups) =
        repeat_setup(|| Ok(layers::generate(p.scale, p.days, input_seed(seed, input))))?;
    let t0 = Instant::now();
    let pass = layers::sweep_pass(&trace, p.snapshots);
    let run_s = t0.elapsed().as_secs_f64();
    let timed = Timed { setups, run_s, peak_mb: heap.peak_mb() };
    Ok((trace, Round { input, timed, pass }))
}

/// Every (metric, transition) outcome is present and has a finite ratio.
fn check_complete(out: &mut Outcome, p: &Params, o: &layers::SweepOutcomes) {
    let (metrics, transitions) = (layers::sweep_metric_names().len(), p.snapshots - 1);
    let complete = o.correct.len() == metrics
        && o.ratio.len() == metrics
        && o.correct.iter().all(|row| row.len() == transitions)
        && o.ratio.iter().all(|row| row.len() == transitions && row.iter().all(|r| r.is_finite()));
    out.check(complete, || {
        format!("sweep outcomes incomplete or non-finite ({metrics}x{transitions} expected)")
    });
}

fn accuracy(o: &layers::SweepOutcomes) -> f64 {
    let all: Vec<f64> = o.ratio.iter().flatten().copied().collect();
    all.iter().sum::<f64>() / all.len() as f64
}

fn digest(d: &mut Digest, o: &layers::SweepOutcomes) {
    for (hits, ratios) in o.correct.iter().zip(&o.ratio) {
        hits.iter().for_each(|&h| d.add(h as u64));
        ratios.iter().for_each(|r| d.add(r.to_bits()));
    }
}

pub fn run(p: &Params, seed: u64, mode: RunMode) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    if !mode.traced {
        let measured = timed_rounds(
            p.inputs,
            mode.seconds,
            |i| {
                let (_, r) = round(p, seed, i)?;
                check_complete(&mut out, p, &r.pass.outcomes);
                Ok(r)
            },
            |r| &r.timed,
        )?;
        measured.record(&mut out);
        let rounds = &measured.rounds;
        for r in &rounds[p.inputs..] {
            out.check(r.pass.outcomes == rounds[r.input].pass.outcomes, || {
                format!("input {} gave different outcomes when measured again", r.input)
            });
        }
        out.attempted = rounds.iter().map(|r| r.pass.evaluate_ms.len()).sum();
        rounds[..p.inputs].iter().for_each(|r| digest(&mut out.digest, &r.pass.outcomes));
        out.set_accuracy(accuracy(&rounds[0].pass.outcomes));
        let requests = measured.best_per_input(|r| &r.pass.evaluate_ms);
        let advances = measured.best_per_input(|r| &r.pass.advance_ms);
        out.set_percentile("request_p50_ms", &requests, Pct::P50);
        out.set_percentile("request_tail_ms", &requests, TAIL);
        out.set_percentile("advance_p50_ms", &advances, Pct::P50);
        return Ok(out);
    }

    // Traced: a warm-up pass (the process's first pays one-off page
    // faults), evaluate_all itself as the untraced reference, then the same
    // pass replayed call by call; all three must agree.
    let (trace, warm) = round(p, seed, TRACED_INPUT)?;
    check_complete(&mut out, p, &warm.pass.outcomes);
    out.attempted = 3 * warm.pass.evaluate_ms.len();
    let t0 = Instant::now();
    let reference = layers::sweep_evaluate_all(&trace, p.snapshots);
    let reference_s = t0.elapsed().as_secs_f64();
    let rec = Recorder::new(Instant::now());
    let lo = rec.now();
    let (replayed, counts) = layers::sweep_traced(&trace, p.snapshots, &rec);
    let hi = rec.now();
    let spans = rec.into_spans();
    out.check(replayed == reference, || "traced replay differs from evaluate_all".into());
    out.check(warm.pass.outcomes == reference, || "timed pass differs from evaluate_all".into());
    let by_name = spans::self_seconds(&spans);
    let self_s = |name: &str| by_name.get(name).copied().unwrap_or(0.0);
    out.set("trace.overhead_frac", (hi - lo) / reference_s - 1.0);
    out.set("trace.covered_frac", spans::covered_frac(&spans, lo, hi));
    out.set("accuracy_ratio_mean", accuracy(&reference));
    digest(&mut out.digest, &reference);
    out.set("graph.advance_s", self_s("graph.advance"));
    out.set("core.evaluate_s", self_s("core.evaluate"));
    for (metric, span) in [
        ("metrics.candidates.within3_s", "metrics.candidates.within3"),
        ("metrics.candidates.two_hop_s", "metrics.candidates.two_hop"),
        ("metrics.candidates.global_s", "metrics.candidates.global"),
        ("metrics.score.two_hop_s", "metrics.score.two_hop"),
        ("metrics.score.three_hop_s", "metrics.score.three_hop"),
        ("metrics.score.global_s", "metrics.score.global"),
    ] {
        out.set(metric, self_s(span));
    }
    for (metric, group) in [
        ("metrics.candidates.two_hop_pairs", "two_hop"),
        ("metrics.candidates.three_hop_pairs", "three_hop"),
        ("metrics.candidates.global_pairs", "global"),
    ] {
        out.set(metric, counts.pairs.get(group).copied().unwrap_or(0) as f64);
    }
    out.set("solver.ppr_sources", counts.ppr_sources as f64);
    out.set("solver.ppr_iterations", counts.ppr_iterations as f64);
    out.set("solver.ppr_warm_starts", counts.ppr_warm_starts as f64);
    for (name, ms) in layers::sweep_attribution(&trace, p.snapshots, p.attribution_t) {
        out.set(per_metric_name(name)?, ms);
    }
    Ok(out)
}

/// The `metrics.score.<METRIC>_ms` name of a sweep metric.
fn per_metric_name(metric: &str) -> Result<&'static str, String> {
    crate::report::PER_LAYER
        .iter()
        .map(|&(n, _)| n)
        .find(|n| {
            n.strip_prefix("metrics.score.").and_then(|r| r.strip_suffix("_ms")) == Some(metric)
        })
        .ok_or_else(|| format!("no per-layer metric for {metric}"))
}
