//! `sample-large`: the paper's §5 sampled evaluation of a trace too large
//! to score exhaustively. The set-up streams a generated trace into the
//! binary trace cache; the timed phase sweeps it back through the windowed
//! reader and runs snowball-sampled CN/AA/RA estimates on the last
//! transitions. No solver or serving code runs.

use crate::inputs::{input_seed, TRACED_INPUT};
use crate::layers::{self, SampledSpec, SAMPLED_METRICS};
use crate::report::{Digest, Outcome, Pct};
use crate::spans::{self, Recorder};
use crate::{heap, repeat_setup, timed_rounds, RunMode, Timed};
use std::path::{Path, PathBuf};
use std::time::Instant;

pub struct Params {
    pub scale: f64,
    pub days: u32,
    pub snapshots: usize,
    pub first_sampled: usize,
    /// Target members per snowball draw.
    pub members: usize,
    pub draws: usize,
    /// Distinct inputs (traces) a run measures.
    pub inputs: usize,
}

pub const FULL: Params = Params {
    scale: 8.0,
    days: 120,
    snapshots: 12,
    first_sampled: 9,
    members: 1_000,
    draws: 3,
    inputs: 4,
};
pub const SMOKE: Params = Params {
    scale: 0.3,
    days: 40,
    snapshots: 6,
    first_sampled: 3,
    members: 200,
    draws: 2,
    inputs: 4,
};

/// Sampled estimates are the requests; a run holds a few dozen, which
/// support a median and nothing higher.
const TAIL: Pct = Pct::P50;

/// Where the cache file lives: inside the working directory, never a
/// system temporary directory.
pub const SCRATCH_DIR: &str = ".bench_tmp";

struct Round {
    timed: Timed,
    /// The timed phase on the recorder's clock.
    window: (f64, f64),
    generated: layers::Generated,
    pass: layers::SampledPass,
}

fn round(
    p: &Params,
    seed: u64,
    input: usize,
    path: &Path,
    rec: &Recorder,
) -> Result<Round, String> {
    let spec = SampledSpec {
        scale: p.scale,
        days: p.days,
        seed: input_seed(seed, input),
        snapshots: p.snapshots,
        transitions: p.first_sampled..p.snapshots,
        members: p.members,
        draws: p.draws,
    };
    let round = (|| -> Result<Round, String> {
        let heap = heap::Window::open();
        let (generated, setups) = repeat_setup(|| layers::cache_generate(path, &spec, rec))?;
        let lo = rec.now();
        let pass = layers::sampled_pass(path, &spec, rec)?;
        let hi = rec.now();
        let timed = Timed { setups, run_s: hi - lo, peak_mb: heap.peak_mb() };
        Ok(Round { timed, window: (lo, hi), generated, pass })
    })();
    // Also after a failed round, so no cache file outlives it; the round's
    // own error is the one reported.
    let removed = layers::cache_remove(path);
    let round = round?;
    removed.map(|()| round)
}

fn check(out: &mut Outcome, p: &Params, r: &Round) {
    let (g, pass) = (&r.generated, &r.pass);
    out.check(g.cache_nodes == g.nodes && g.cache_edges == g.edges, || {
        format!(
            "cache summary {}/{} differs from the generator's {}/{}",
            g.cache_nodes, g.cache_edges, g.nodes, g.edges
        )
    });
    out.check(pass.snapshots_seen == p.snapshots && pass.last_prefix == g.cache_edges, || {
        format!(
            "sweep stopped at snapshot {} prefix {} of {} edges",
            pass.snapshots_seen, pass.last_prefix, g.cache_edges
        )
    });
    let expected = SAMPLED_METRICS.len() * (p.snapshots - p.first_sampled);
    out.check(
        pass.estimates.len() == expected && pass.estimates.iter().all(|e| e.mean_ratio.is_finite()),
        || format!("expected {expected} finite sampled estimates"),
    );
}

fn accuracy(pass: &layers::SampledPass) -> f64 {
    pass.estimates.iter().map(|e| e.mean_ratio).sum::<f64>() / pass.estimates.len() as f64
}

fn digest(d: &mut Digest, pass: &layers::SampledPass) {
    for e in &pass.estimates {
        d.add(e.t as u64);
        e.per_draw.iter().for_each(|r| d.add(r.to_bits()));
        d.add(e.mean_sample_size.to_bits());
    }
}

pub fn run(p: &Params, seed: u64, mode: RunMode) -> Result<Outcome, String> {
    std::fs::create_dir_all(SCRATCH_DIR).map_err(|e| format!("create {SCRATCH_DIR}: {e}"))?;
    let path = PathBuf::from(SCRATCH_DIR).join(format!("sample-large-{}.lltc", std::process::id()));
    let result = measure(p, seed, mode, &path);
    // Fails, and leaves the directory, only if another run still uses it.
    let _ = std::fs::remove_dir(SCRATCH_DIR);
    result
}

fn measure(p: &Params, seed: u64, mode: RunMode, path: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    if !mode.traced {
        let measured = timed_rounds(
            p.inputs,
            mode.seconds,
            |i| {
                let r = round(p, seed, i, path, &Recorder::off())?;
                check(&mut out, p, &r);
                Ok(r)
            },
            |r| &r.timed,
        )?;
        measured.record(&mut out);
        let rounds = &measured.rounds;
        for (i, r) in rounds.iter().enumerate().skip(p.inputs) {
            out.check(r.pass.estimates == rounds[i % p.inputs].pass.estimates, || {
                format!("input {} gave different estimates when measured again", i % p.inputs)
            });
        }
        out.attempted = rounds.iter().map(|r| r.pass.estimates.len()).sum();
        rounds[..p.inputs].iter().for_each(|r| digest(&mut out.digest, &r.pass));
        out.set_accuracy(accuracy(&rounds[0].pass));
        let requests = measured.best_per_input(|r| &r.pass.estimate_ms);
        let advances = measured.best_per_input(|r| &r.pass.advance_ms);
        out.set_percentile("request_p50_ms", &requests, Pct::P50);
        out.set_percentile("request_tail_ms", &requests, TAIL);
        out.set_percentile("advance_p50_ms", &advances, Pct::P50);
        return Ok(out);
    }

    // A warm-up round (the process's first pays one-off page faults), the
    // untraced reference, then the traced round; all three must agree.
    let mut untraced = Vec::new();
    for _ in 0..2 {
        let r = round(p, seed, TRACED_INPUT, path, &Recorder::off())?;
        check(&mut out, p, &r);
        untraced.push(r);
    }
    let rec = Recorder::new(Instant::now());
    let traced = round(p, seed, TRACED_INPUT, path, &rec)?;
    check(&mut out, p, &traced);
    out.check(untraced.iter().all(|r| r.pass.estimates == traced.pass.estimates), || {
        "estimates differ between the rounds of one input".into()
    });
    out.attempted = 3 * traced.pass.estimates.len();
    let spans = rec.into_spans();
    let by_name = spans::self_seconds(&spans);
    let self_s = |name: &str| by_name.get(name).copied().unwrap_or(0.0);
    let (g, pass) = (&traced.generated, &traced.pass);
    let (lo, hi) = traced.window;
    out.set("trace.overhead_frac", traced.timed.run_s / untraced[1].timed.run_s - 1.0);
    out.set("trace.covered_frac", spans::covered_frac(&spans, lo, hi));
    out.set("accuracy_ratio_mean", accuracy(pass));
    digest(&mut out.digest, pass);
    // One generation per set-up; the set-up may have run more than once.
    out.set("trace.generate_s", self_s("trace.generate") / traced.timed.setups.len() as f64);
    out.set("trace.events", (g.nodes + g.edges) as f64);
    out.set("graph.io.cache_bytes", g.cache_bytes as f64);
    out.set("graph.io.sections", g.cache_sections as f64);
    out.set("graph.advance_s", self_s("graph.advance"));
    out.set("core.sampling.CN_s", self_s("core.sampling.CN"));
    out.set("core.sampling.AA_s", self_s("core.sampling.AA"));
    out.set("core.sampling.RA_s", self_s("core.sampling.RA"));
    let sizes: Vec<f64> = pass.estimates.iter().map(|e| e.mean_sample_size).collect();
    out.set("core.sampling.sample_size_mean", sizes.iter().sum::<f64>() / sizes.len() as f64);
    Ok(out)
}
