//! Offline stand-in for `criterion` (the subset LinkLens's benches use).
//!
//! Provides [`Criterion`], [`BenchmarkGroup`], [`Bencher::iter`] /
//! [`Bencher::iter_batched`], and the [`criterion_group!`] /
//! [`criterion_main!`] macros. Instead of criterion's statistical
//! machinery it times `sample_size` runs after one warmup and prints the
//! per-iteration mean/min on stdout — enough to compare costs across
//! metrics and track regressions by eye.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::hint::black_box;
use std::time::{Duration, Instant};

/// How `iter_batched` amortizes setup cost. The shim re-runs setup every
/// iteration regardless; the variants exist for API compatibility.
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One setup per iteration.
    PerIteration,
}

/// Timing driver handed to `bench_function` closures.
pub struct Bencher {
    samples: usize,
    /// Measured per-sample durations, filled by `iter`/`iter_batched`.
    times: Vec<Duration>,
}

impl Bencher {
    /// Times `routine` directly.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        // Warmup run, untimed.
        black_box(routine());
        self.times = (0..self.samples)
            .map(|_| {
                let start = Instant::now();
                black_box(routine());
                start.elapsed()
            })
            .collect();
    }

    /// Times `routine` on fresh inputs from `setup`; setup time excluded.
    pub fn iter_batched<I, O, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        black_box(routine(setup()));
        self.times = (0..self.samples)
            .map(|_| {
                let input = setup();
                let start = Instant::now();
                black_box(routine(input));
                start.elapsed()
            })
            .collect();
    }
}

/// Top-level benchmark registry.
pub struct Criterion {
    default_samples: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { default_samples: 10 }
    }
}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("\n== bench group: {name} ==");
        BenchmarkGroup { _parent: self, samples: self.default_samples }
    }

    /// Runs a standalone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<String>,
        f: F,
    ) -> &mut Self {
        run_one(id.into(), self.default_samples, f);
        self
    }
}

/// A group of benchmarks sharing a sample size.
pub struct BenchmarkGroup<'a> {
    _parent: &'a Criterion,
    samples: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.max(1);
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<String>,
        f: F,
    ) -> &mut Self {
        run_one(id.into(), self.samples, f);
        self
    }

    /// Ends the group (printing already happened per-benchmark).
    pub fn finish(self) {}
}

fn run_one<F: FnMut(&mut Bencher)>(id: String, samples: usize, mut f: F) {
    let mut b = Bencher { samples, times: Vec::new() };
    f(&mut b);
    if b.times.is_empty() {
        println!("  {id}: no measurements");
        return;
    }
    let total: Duration = b.times.iter().sum();
    let mean = total / b.times.len() as u32;
    let min = b.times.iter().min().copied().unwrap_or_default();
    println!("  {id}: mean {mean:?}, min {min:?} ({} samples)", b.times.len());
}

/// Bundles benchmark functions into a named group runner.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Emits `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_and_iter_batched_measure() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("demo");
        group.sample_size(3);
        group.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        group.bench_function("sum_batched", |b| {
            b.iter_batched(
                || (0..100u64).collect::<Vec<_>>(),
                |v| v.iter().sum::<u64>(),
                BatchSize::SmallInput,
            )
        });
        group.finish();
    }
}
