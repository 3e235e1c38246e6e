//! Runs the benchmark binary end to end: `--smoke` drives all four
//! workloads at toy scale, timed and traced, through every output check.

use std::process::Command;

fn benchmark() -> Command {
    Command::new(env!("CARGO_BIN_EXE_linklens-benchmark"))
}

#[test]
fn smoke_runs_every_workload_with_every_check() {
    let out = benchmark().arg("--smoke").output().expect("run the benchmark");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "smoke run failed:\n{stderr}");
    for workload in ["sweep", "sample-large", "serve-local", "serve-walk"] {
        for traced in [false, true] {
            let line = format!("smoke {workload} traced={traced}: 0 checks failed");
            assert!(stderr.contains(&line), "missing `{line}` in:\n{stderr}");
        }
    }
}

#[test]
fn bad_arguments_print_usage_and_no_result() {
    for args in
        [&["--workload", "nope", "--seed", "1"][..], &["--workload", "sweep"], &["--trace", "2"]]
    {
        let out = benchmark().args(args).output().expect("run the benchmark");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
