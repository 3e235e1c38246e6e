//! End-to-end tests of the `linklens` command-line tool, driving the real
//! binary via `CARGO_BIN_EXE`.

use std::process::Command;

fn linklens(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_linklens")).args(args).output().expect("binary runs")
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("linklens-cli-tests");
    std::fs::create_dir_all(&dir).expect("mk tmpdir");
    dir.join(name)
}

#[test]
fn generate_stats_predict_recommend_pipeline() {
    let trace = tmp("pipeline.txt");
    let out = linklens(&[
        "generate",
        "--preset",
        "renren",
        "--scale",
        "0.05",
        "--days",
        "30",
        "--seed",
        "3",
        "--out",
        trace.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "generate failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("wrote"));

    let out = linklens(&["stats", trace.to_str().unwrap(), "--snapshots", "4"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("nodes"), "stats header missing: {text}");
    assert!(text.lines().count() >= 6, "expected per-snapshot rows");

    let out = linklens(&["predict", trace.to_str().unwrap(), "--metric", "RA", "--snapshots", "6"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("accuracy ratio"));

    let out = linklens(&["recommend", trace.to_str().unwrap(), "--user", "0", "--top", "3"]);
    assert!(out.status.success(), "recommend failed: {}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn edge_list_import_works() {
    let path = tmp("edges.txt");
    std::fs::write(&path, "10 20 100\n20 30 200\n10 30 300\n30 40 400\n40 50 500\n").unwrap();
    let out = linklens(&["stats", path.to_str().unwrap(), "--snapshots", "2"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("5 nodes, 5 edges"));
}

#[test]
fn unknown_metric_is_a_clean_error() {
    let trace = tmp("err.txt");
    let _ = linklens(&[
        "generate",
        "--preset",
        "facebook",
        "--scale",
        "0.05",
        "--days",
        "20",
        "--seed",
        "1",
        "--out",
        trace.to_str().unwrap(),
    ]);
    let out = linklens(&["predict", trace.to_str().unwrap(), "--metric", "NOPE"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown metric"));
}

#[test]
fn missing_file_is_a_clean_error() {
    let out = linklens(&["stats", "/definitely/not/here.txt"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot open"));
}

#[test]
fn usage_on_no_command() {
    let out = linklens(&[]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("commands:"));
}

/// Asserts `out` exited with `code` and a clean message: stderr names
/// `needle`, and nothing panicked.
fn assert_clean_exit(out: &std::process::Output, code: i32, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "stderr: {stderr}");
    assert!(stderr.contains(needle), "stderr lacks '{needle}': {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn fewer_than_two_snapshots_is_a_usage_error() {
    let path = tmp("snapshots.txt");
    std::fs::write(&path, "10 20 100\n20 30 200\n10 30 300\n").unwrap();
    for command in ["stats", "predict"] {
        for count in ["0", "1"] {
            let out = linklens(&[command, path.to_str().unwrap(), "--snapshots", count]);
            assert_clean_exit(&out, 2, "--snapshots");
        }
    }
}

#[test]
fn trace_too_short_for_two_snapshots_is_an_error() {
    for (name, text) in [("no-edges.txt", ""), ("one-edge.txt", "10 20 100\n")] {
        let path = tmp(name);
        std::fs::write(&path, text).unwrap();
        for command in ["stats", "predict"] {
            let out = linklens(&[command, path.to_str().unwrap(), "--snapshots", "2"]);
            assert_clean_exit(&out, 1, path.to_str().unwrap());
        }
    }
}

#[test]
fn recommend_on_a_trace_without_edges_is_an_error() {
    let path = tmp("nodes-only.txt");
    std::fs::write(&path, "# linklens-trace v1\nn 3\na 0 0\na 1 0\na 2 0\n").unwrap();
    let out = linklens(&["recommend", path.to_str().unwrap(), "--user", "0"]);
    assert_clean_exit(&out, 1, path.to_str().unwrap());
}
