//! linklens-benchmark: the end-to-end benchmark of LinkLens.
//!
//! ```text
//! linklens-benchmark --workload <name> --seed <u64> [--seconds <n>] [--trace <0|1>]
//! linklens-benchmark --smoke
//! ```
//!
//! A run generates its inputs from the seed, then repeats rounds for about
//! `--seconds`: each sets up (timed as `setup_s`) and runs the timed phase.
//! Timed runs report times scaled to the host's nominal speed (see `host`).
//! It checks every output and prints one JSON result line last on stdout:
//! every end-to-end metric, or with `--trace 1` every per-layer metric of a
//! traced rerun. It exits non-zero when a check fails. `--smoke` runs all four workloads at toy
//! scale, timed and traced, with every check; its numbers are never used.
//! See README.md for the workloads and metrics.

#![deny(unsafe_code)]

mod heap;
mod host;
mod inputs;
mod layers;
mod report;
mod sample;
mod serve;
mod spans;
mod sweep;

use report::{Outcome, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

/// Engine worker threads, fixed for a 2-core host.
const ENGINE_THREADS: usize = 2;

pub const WORKLOADS: [&str; 4] = ["sweep", "sample-large", "serve-local", "serve-walk"];

/// How long to measure and whether to trace.
#[derive(Clone, Copy, Debug)]
pub struct RunMode {
    pub seconds: f64,
    pub traced: bool,
}

/// A round repeats its set-up until this much time is spent, at least once
/// and at most [`MAX_SETUPS`] times. Every repeat is timed and enters
/// `setup_s`, so a set-up of a few milliseconds rests on dozens of samples
/// per round and one of a second or more runs once.
const SETUP_SECONDS: f64 = 0.2;
const MAX_SETUPS: usize = 32;

/// What every timed round reports to the loop that schedules rounds.
pub struct Timed {
    pub setups: Vec<f64>,
    pub run_s: f64,
    /// Heap high-water mark over the set-up and the timed phase, in MiB.
    pub peak_mb: f64,
}

/// Runs `setup` as [`SETUP_SECONDS`] asks, timing each call, and keeps the
/// last result. Earlier results are dropped between the timed calls.
pub fn repeat_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut kept = None;
    let mut times = Vec::new();
    while times.len() < MAX_SETUPS && times.iter().sum::<f64>() < SETUP_SECONDS {
        drop(kept.take());
        let t0 = Instant::now();
        kept = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((kept.expect("set-up runs at least once"), times))
}

/// A workload's timed rounds and the run-level numbers every workload
/// reports the same way. Times are kept as measured; what the run reports
/// is multiplied by `scale` (see [`host`]).
pub struct Measured<R> {
    /// Round `r` measured input `r % inputs`.
    inputs: usize,
    pub rounds: Vec<R>,
    setup_s: f64,
    run_s: f64,
    peak_heap_mb: f64,
    scale: f64,
}

impl<R> Measured<R> {
    /// Sets `setup_s`, `run_s` and `peak_heap_mb`.
    pub fn record(&self, out: &mut Outcome) {
        out.set("setup_s", self.scale * self.setup_s);
        out.set("run_s", self.scale * self.run_s);
        out.set("peak_heap_mb", self.peak_heap_mb);
    }

    /// Per input, the best of its repetitions' samples, host-scaled:
    /// sample `j` is the smallest sample `j` any repetition of the input
    /// gave. Every repetition issues the same requests in the same order,
    /// so this is each request's best latency; a host that slowed one
    /// repetition down does not move it. An input whose repetitions hold
    /// different numbers of samples (a request failed in one) pools them
    /// instead.
    pub fn best_per_input(&self, samples: impl Fn(&R) -> &[f64]) -> Vec<Vec<f64>> {
        (0..self.inputs)
            .map(|i| {
                let reps: Vec<&[f64]> =
                    self.rounds.iter().skip(i).step_by(self.inputs).map(&samples).collect();
                let best: Vec<f64> = if reps.iter().any(|r| r.len() != reps[0].len()) {
                    reps.concat()
                } else {
                    (0..reps[0].len())
                        .map(|j| reps.iter().map(|r| r[j]).fold(f64::INFINITY, f64::min))
                        .collect()
                };
                best.into_iter().map(|ms| self.scale * ms).collect()
            })
            .collect()
    }
}

/// Runs a workload's timed rounds. A run measures `inputs` distinct
/// inputs, one per round, each generated from `inputs::input_seed(seed,
/// i)`, so one seed's result averages over several inputs instead of
/// riding on one. When a full cycle, set-ups included, ends with more than
/// half a cycle of `seconds` left, the inputs are measured again.
/// `setup_s`, `run_s` and `peak_heap_mb` are each the median over inputs
/// of the input's best repetition (its fastest set-up, its fastest round,
/// its smallest heap peak), so a round the host slowed down counts only
/// when every repetition of its input was slowed. The host probe runs
/// before every round and sets the run's scale.
pub fn timed_rounds<R>(
    inputs: usize,
    seconds: f64,
    mut round: impl FnMut(usize) -> Result<R, String>,
    timed: impl Fn(&R) -> &Timed,
) -> Result<Measured<R>, String> {
    let mut host = host::Speed::new();
    let mut rounds = Vec::new();
    let mut spent = 0.0;
    loop {
        for i in 0..inputs {
            host.sample();
            let r = round(i)?;
            let t = timed(&r);
            eprintln!(
                "round {}: input {i}, setup {:.6} s (x{}), run {:.4} s, heap peak {:.1} MiB",
                rounds.len() + 1,
                report::median(&t.setups),
                t.setups.len(),
                t.run_s,
                t.peak_mb
            );
            spent += t.setups.iter().sum::<f64>() + t.run_s;
            rounds.push(r);
        }
        let cycle = spent / (rounds.len() / inputs) as f64;
        if spent + cycle / 2.0 >= seconds {
            break;
        }
    }
    let best = |of: fn(&Timed) -> f64| {
        let per_input: Vec<f64> = (0..inputs)
            .map(|i| {
                let reps = rounds.iter().skip(i).step_by(inputs);
                reps.map(|r| of(timed(r))).fold(f64::INFINITY, f64::min)
            })
            .collect();
        report::median(&per_input)
    };
    let setup_s = best(|t| t.setups.iter().copied().fold(f64::INFINITY, f64::min));
    let (run_s, peak_heap_mb) = (best(|t| t.run_s), best(|t| t.peak_mb));
    let scale = host.scale();
    eprintln!(
        "host probe: median {:.4} ms (nominal {} ms), times scaled by {scale:.4}; \
         as measured: setup_s {setup_s}, run_s {run_s}",
        host.median_ms(),
        host::NOMINAL_MS
    );
    Ok(Measured { inputs, rounds, setup_s, run_s, peak_heap_mb, scale })
}

struct Args {
    workload: String,
    seed: u64,
    mode: RunMode,
}

fn parse(args: &[String]) -> Result<Option<Args>, String> {
    if args == ["--smoke"] {
        return Ok(None);
    }
    let mut workload = None;
    let mut seed = None;
    let mut mode = RunMode { seconds: 10.0, traced: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                mode.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                mode.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {}", WORKLOADS.join(", ")));
    }
    Ok(Some(Args { workload, seed: seed.ok_or("--seed is required")?, mode }))
}

fn run(workload: &str, seed: u64, mode: RunMode, smoke: bool) -> Result<Outcome, String> {
    match (workload, smoke) {
        ("sweep", false) => sweep::run(&sweep::FULL, seed, mode),
        ("sweep", true) => sweep::run(&sweep::SMOKE, seed, mode),
        ("sample-large", false) => sample::run(&sample::FULL, seed, mode),
        ("sample-large", true) => sample::run(&sample::SMOKE, seed, mode),
        ("serve-local", false) => serve::run(&serve::LOCAL, seed, mode),
        ("serve-local", true) => serve::run(&serve::LOCAL_SMOKE, seed, mode),
        ("serve-walk", false) => serve::run(&serve::WALK, seed, mode),
        ("serve-walk", true) => serve::run(&serve::WALK_SMOKE, seed, mode),
        _ => Err(format!("unknown workload {workload}")),
    }
}

/// The host facts every result depends on.
fn host_line(workload: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let quota = std::fs::read_to_string("/sys/fs/cgroup/cpu.max")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let serve = match workload {
        "serve-local" => {
            format!(", serve workers {}, clients {}", serve::LOCAL.workers, serve::LOCAL.clients)
        }
        "serve-walk" => {
            format!(", serve workers {}, clients {}", serve::WALK.workers, serve::WALK.clients)
        }
        _ => String::new(),
    };
    format!(
        "host: nproc {nproc}, cgroup cpu.max {quota}, engine threads {}{serve}",
        layers::engine_threads()
    )
}

fn report(workload: &str, out: &Outcome) {
    for (name, value) in &out.values {
        eprintln!("{workload}: {name} = {value}");
    }
    eprintln!("{workload}: outputs digest = {:016x}", out.digest.0);
    for line in out.failures.iter().chain(&out.refused) {
        eprintln!("{workload}: {line}");
    }
}

fn smoke() -> ExitCode {
    let mut ok = true;
    for workload in WORKLOADS {
        for traced in [false, true] {
            let mode = RunMode { seconds: 0.0, traced };
            match run(workload, 1, mode, true) {
                Ok(out) => {
                    report(workload, &out);
                    eprintln!(
                        "smoke {workload} traced={traced}: {} checks failed, {} percentiles refused",
                        out.failures.len(),
                        out.refused.len()
                    );
                    ok &= out.failures.is_empty() && out.failed == 0;
                }
                Err(e) => {
                    eprintln!("smoke {workload} traced={traced}: error: {e}");
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: linklens-benchmark --workload <{}> --seed <u64> \
                 [--seconds <n>] [--trace <0|1>]\n       linklens-benchmark --smoke",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    layers::pin_engine_threads(ENGINE_THREADS);
    let Some(args) = args else { return smoke() };
    eprintln!("{}", host_line(&args.workload));
    let out = match run(&args.workload, args.seed, args.mode, false) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    report(&args.workload, &out);
    if !out.refused.is_empty() {
        eprintln!("error: a percentile was refused; the workload is sized too small for its guard");
        return ExitCode::FAILURE;
    }
    let line = if args.mode.traced {
        out.result_line(PER_LAYER, true)
    } else {
        out.result_line(END_TO_END, false)
    };
    match line {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if out.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_per_input_keeps_each_requests_fastest_repetition() {
        let rounds: Vec<Vec<f64>> = vec![
            vec![5.0, 1.0, 9.0], // input 0
            vec![7.0, 7.0],      // input 1
            vec![4.0, 3.0, 9.5], // input 0 again
            vec![8.0],           // input 1 again, one request failed
        ];
        let m =
            Measured { inputs: 2, rounds, setup_s: 0.0, run_s: 0.0, peak_heap_mb: 0.0, scale: 0.5 };
        let best = m.best_per_input(|r| r);
        assert_eq!(best[0], [2.0, 0.5, 4.5], "best of each request, host-scaled");
        assert_eq!(best[1], [3.5, 3.5, 4.0], "uneven repetitions are pooled");
    }

    #[test]
    fn timed_rounds_reports_the_median_of_each_inputs_best_repetition() {
        // (setup, run, heap peak) per round, input 0 then input 1; every
        // round sets up twice. The first cycle spends 4.5 s of a 10 s
        // budget, which leaves more than half a cycle, so a second cycle
        // runs; after it (8.25 s) the run stops.
        let plan = [(0.5, 1.5, 10.0), (0.25, 0.75, 30.0), (0.25, 1.0, 20.0), (0.5, 0.5, 40.0)];
        let mut next = plan.iter();
        let m = timed_rounds(
            2,
            10.0,
            |_| {
                let &(setup, run_s, peak_mb) = next.next().expect("at most two cycles");
                Ok(Timed { setups: vec![setup, 2.0 * setup], run_s, peak_mb })
            },
            |t: &Timed| -> &Timed { t },
        )
        .expect("rounds succeed");
        assert_eq!(m.rounds.len(), 4);
        // Best per input: set-up 0.25 and 0.25, run 1.0 and 0.5, heap
        // peak 10 and 30.
        assert_eq!((m.setup_s, m.run_s, m.peak_heap_mb), (0.25, 0.75, 20.0));
        let mut out = Outcome::default();
        m.record(&mut out);
        assert_eq!(out.values["run_s"], m.scale * 0.75, "times are reported host-scaled");
        assert_eq!(out.values["peak_heap_mb"], 20.0, "memory is not");
    }
}
