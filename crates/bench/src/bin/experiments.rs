//! Reproduces the paper's tables and figures. Each row of
//! `linklens_bench::experiments::EXPERIMENTS` is one of them: row `NAME`
//! runs under `--NAME-only`, prints its tables, and writes its results to
//! `results/NAME.json`, dashes becoming underscores.
//!
//! ```text
//! experiments [--scale F] [--days N] [--seed N] [--snapshots N] [--quick] [--{row}-only]...
//! ```
//!
//! With no `--{row}-only` flag every row runs, in table order, sharing one
//! set of traces and one Figure 5 sweep. Progress and timings go to
//! stderr; stdout carries only the tables, so two runs at the same flags
//! print the same bytes.

#![forbid(unsafe_code)]

use linklens_bench::experiments::{self, Console, EXPERIMENTS};
use linklens_core::report::write_json;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (ctx, only) = experiments::parse_args(&args).unwrap_or_else(|e| {
        if !e.is_empty() {
            eprintln!("error: {e}");
        }
        let flags: Vec<String> = EXPERIMENTS.iter().map(|row| row.flag()).collect();
        eprintln!(
            "usage: experiments [--scale F] [--days N] [--seed N] [--snapshots N] [--quick] [{}]...\n\
             Reproduces the tables and figures of Liu et al. (IMC 2016); see DESIGN.md §5.",
            flags.join(" | ")
        );
        std::process::exit(2);
    });
    for (i, row) in EXPERIMENTS.iter().enumerate() {
        if !only.is_empty() && !only.contains(&i) {
            continue;
        }
        eprintln!("[{}] running", row.name);
        let started = Instant::now();
        let mut console = Console::default();
        let payload = (row.run)(&ctx, &mut console);
        print!("{}", console.out);
        eprint!("{}", console.log);
        let file = row.file();
        write_json(&file, &payload).expect("write results");
        println!("({} written to {})", row.holds, file.display());
        eprintln!("[{}] done in {:.1} s", row.name, started.elapsed().as_secs_f64());
    }
}
