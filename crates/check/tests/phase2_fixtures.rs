//! Fixture crates for the two-phase workspace analyzer, driven through
//! the same [`linklens_check::check_sources`] entry point the real run
//! uses. Each fixture seeds a known true positive or true negative, so
//! these tests pin the analyzer's behavior end to end: symbol indexing,
//! call-graph reachability, dataflow rules, and the suppression audit.

use linklens_check::report::RunSummary;
use linklens_check::rules::RULES;
use linklens_check::{check_sources, workspace};

/// Builds a fixture file the same way the real walk would classify it.
fn fx(path: &str, src: &str) -> (workspace::FileInfo, String) {
    let info = workspace::classify(path).unwrap_or_else(|| panic!("{path} must classify"));
    (info, src.to_string())
}

fn run(files: Vec<(workspace::FileInfo, String)>) -> RunSummary {
    check_sources(files)
}

fn active_of<'a>(run: &'a RunSummary, rule: &str) -> Vec<&'a linklens_check::rules::Diagnostic> {
    run.active().filter(|d| d.rule == rule).collect()
}

// --- seeded true positives ---------------------------------------------

/// An unordered map feeding a top-k style ranking: the canonical hazard.
const TP_TOPK: &str = "fn score_pairs_fx(scores: &HashMap<u32, f64>) -> Vec<u32> {\n\
                       \x20   let ranked: Vec<u32> = scores.keys().copied().collect();\n\
                       \x20   ranked\n\
                       }\n";

#[test]
fn seeded_unordered_map_feeding_topk_is_caught() {
    let summary = run(vec![fx("crates/metrics/src/fx_topk.rs", TP_TOPK)]);
    let hits = active_of(&summary, "unordered-iteration-in-deterministic-path");
    assert_eq!(hits.len(), 1, "{:?}", summary.diagnostics);
    assert_eq!(hits[0].line, 2);
    assert!(hits[0].message.contains("score_pairs_fx"), "{}", hits[0].message);
    assert!(summary.has_violations());
}

#[test]
fn seeded_nondeterministic_source_is_caught_through_a_callee() {
    // The hazard lives in a helper two files away from the root: only the
    // workspace call graph can connect them.
    let root = "fn predict_fx(xs: &[f64]) -> f64 { fx_shared_helper(xs) }\n";
    let helper = "fn fx_shared_helper(xs: &[f64]) -> f64 {\n\
                  \x20   let t = Instant::now();\n\
                  \x20   xs[0]\n\
                  }\n";
    let summary = run(vec![
        fx("crates/core/src/fx_root.rs", root),
        fx("crates/graph/src/fx_helper.rs", helper),
    ]);
    let hits = active_of(&summary, "nondeterministic-source-in-deterministic-path");
    assert_eq!(hits.len(), 1, "{:?}", summary.diagnostics);
    assert_eq!(hits[0].path, "crates/graph/src/fx_helper.rs");
    assert!(hits[0].message.contains("Instant::now"), "{}", hits[0].message);
}

#[test]
fn seeded_marker_pulls_a_fn_onto_the_surface() {
    let marked = "// linklens-deterministic: feeds the report builder\n\
                  fn fx_assemble(w: &HashMap<u32, f64>) -> f64 {\n\
                  \x20   let total: f64 = w.values().sum();\n\
                  \x20   total\n\
                  }\n";
    let summary = run(vec![fx("crates/metrics/src/fx_marked.rs", marked)]);
    assert_eq!(active_of(&summary, "unordered-float-reduction").len(), 1);

    // Without the marker, the same function is off-surface: silent.
    let unmarked = marked.replace("// linklens-deterministic: feeds the report builder\n", "");
    let summary = run(vec![fx("crates/metrics/src/fx_marked.rs", &unmarked)]);
    assert!(!summary.has_violations(), "{:?}", summary.diagnostics);
}

#[test]
fn seeded_panic_in_path_is_caught() {
    let src = "fn score_pairs_fx(x: u32) -> u32 {\n\
               \x20   if x > 7 { unreachable!(\"x is bounded\") }\n\
               \x20   x\n\
               }\n";
    let summary = run(vec![fx("crates/linalg/src/fx_panic.rs", src)]);
    assert_eq!(active_of(&summary, "panic-in-deterministic-path").len(), 1);
}

#[test]
fn seeded_blocking_in_query_path_is_caught_and_suppressible() {
    // A marked serve handler holding the ingest lock across scoring: the
    // exact stop-the-world hazard the serving contract forbids.
    let hot = "// linklens-deterministic: serving parity — answers must match offline compute\n\
               pub fn answer_query_fx(srv: &Server) -> Vec<f64> {\n\
               \x20   let live = srv.live.lock().unwrap();\n\
               \x20   score_live(&live)\n\
               }\n\
               fn score_live(l: &L) -> Vec<f64> { vec![] }\n";
    let summary = run(vec![fx("crates/serve/src/fx_handler.rs", hot)]);
    let hits = active_of(&summary, "blocking-in-query-path");
    assert_eq!(hits.len(), 1, "{:?}", summary.diagnostics);
    assert_eq!(hits[0].line, 3);
    assert!(hits[0].message.contains("answer_query_fx"), "{}", hits[0].message);

    // The justified allow suppresses it and is not judged stale.
    let allowed = hot.replace(
        "    let live = srv.live.lock().unwrap();\n",
        "    // linklens-allow(blocking-in-query-path): wait-free counter bump, never held across scoring\n\
         \x20   let live = srv.live.lock().unwrap();\n",
    );
    // The server binary calls the handler, so it is reached.
    let server = fx(
        "crates/serve/src/bin/fx-serve.rs",
        "#![forbid(unsafe_code)]\nfn main() { answer_query_fx(&srv); }",
    );
    let summary = run(vec![fx("crates/serve/src/fx_handler.rs", &allowed), server]);
    assert!(!summary.has_violations(), "{:?}", summary.diagnostics);
    assert_eq!(active_of(&summary, "stale-allow").len(), 0);

    // The same lock in an *unmarked* serve fn (the ingest/publish side)
    // is sanctioned: only marked query handlers carry the contract.
    let ingest = "pub fn publish_fx(srv: &Server) -> u64 {\n\
                  \x20   let mut live = srv.live.lock().unwrap();\n\
                  \x20   live.version()\n\
                  }\n";
    let summary = run(vec![fx("crates/serve/src/fx_ingest.rs", ingest)]);
    assert_eq!(active_of(&summary, "blocking-in-query-path").len(), 0);
}

/// Table 5's most-predicted-node cut as it once read: a `HashMap`'s keys
/// collected and sorted by count alone, so nodes tied at the cut came out
/// in per-process hash order.
const TP_KEYED_SORT: &str = "fn table5_fx(predicted: &[(u32, u32)]) -> Vec<u32> {\n\
                             \x20   let mut freq: HashMap<u32, usize> = HashMap::new();\n\
                             \x20   for &(u, v) in predicted {\n\
                             \x20       *freq.entry(u).or_default() += 1;\n\
                             \x20       *freq.entry(v).or_default() += 1;\n\
                             \x20   }\n\
                             \x20   let mut by_freq: Vec<u32> = freq.keys().copied().collect();\n\
                             \x20   by_freq.sort_unstable_by_key(|u| std::cmp::Reverse(freq[u]));\n\
                             \x20   by_freq\n\
                             }\n";

#[test]
fn seeded_keyed_sort_after_a_hashmap_collect_is_caught() {
    // An experiment row is a root without a marker.
    let summary = run(vec![fx("crates/bench/src/experiments/fx_bias.rs", TP_KEYED_SORT)]);
    let hits = active_of(&summary, "unordered-iteration-in-deterministic-path");
    assert_eq!(hits.len(), 1, "{:?}", summary.diagnostics);
    assert_eq!(hits[0].line, 7);
    assert!(hits[0].message.contains("experiment row file"), "{}", hits[0].message);
}

#[test]
fn seeded_marker_outside_the_scope_is_caught() {
    // The same code in a binary, marked: the dataflow rules never read
    // bins, so the marker itself is the finding.
    let marked = format!("// linklens-deterministic: committed results\n{TP_KEYED_SORT}");
    let summary = run(vec![fx("crates/bench/src/bin/fx_runner.rs", &marked)]);
    let hits = active_of(&summary, "unscanned-marker");
    assert_eq!(hits.len(), 1, "{:?}", summary.diagnostics);
    assert_eq!(hits[0].line, 1);
    assert_eq!(active_of(&summary, "unordered-iteration-in-deterministic-path").len(), 0);

    // In a scanned library file the marker does its job instead.
    let summary = run(vec![fx("crates/core/src/fx_marked.rs", &marked)]);
    assert_eq!(active_of(&summary, "unscanned-marker").len(), 0);
    assert_eq!(active_of(&summary, "unordered-iteration-in-deterministic-path").len(), 1);
}

// --- seeded true negatives ---------------------------------------------

#[test]
fn plain_sort_after_a_hashmap_collect_is_clean() {
    let src = TP_KEYED_SORT.replace(
        "by_freq.sort_unstable_by_key(|u| std::cmp::Reverse(freq[u]));",
        "by_freq.sort_unstable();",
    );
    let summary = run(vec![fx("crates/bench/src/experiments/fx_bias.rs", &src)]);
    assert!(!summary.has_violations(), "{:?}", summary.diagnostics);
}

#[test]
fn sorted_vec_rewrite_is_clean() {
    // The fix the rule asks for: collect, then sort in the next statement.
    let src = "fn score_pairs_fx(scores: &HashMap<u32, f64>) -> Vec<u32> {\n\
               \x20   let mut ranked: Vec<u32> = scores.keys().copied().collect();\n\
               \x20   ranked.sort_unstable();\n\
               \x20   ranked\n\
               }\n";
    let summary = run(vec![fx("crates/metrics/src/fx_sorted.rs", src)]);
    assert!(!summary.has_violations(), "{:?}", summary.diagnostics);
}

#[test]
fn off_surface_hazards_stay_silent() {
    // Same hazard as TP_TOPK, but the function is neither a root nor
    // reachable from one.
    let src = "fn fx_private_tally(scores: &HashMap<u32, f64>) -> Vec<u32> {\n\
               \x20   let ranked: Vec<u32> = scores.keys().copied().collect();\n\
               \x20   ranked\n\
               }\n";
    let summary = run(vec![fx("crates/metrics/src/fx_offsurface.rs", src)]);
    assert!(!summary.has_violations(), "{:?}", summary.diagnostics);
}

#[test]
fn justified_allow_suppresses_and_is_not_stale() {
    let src = "fn score_pairs_fx(scores: &HashMap<u32, f64>) -> Vec<u32> {\n\
               \x20   // linklens-allow(unordered-iteration-in-deterministic-path): downstream tally is order-free\n\
               \x20   let ranked: Vec<u32> = scores.keys().copied().collect();\n\
               \x20   ranked\n\
               }\n";
    let summary = run(vec![fx("crates/metrics/src/fx_allowed.rs", src)]);
    assert!(!summary.has_violations(), "{:?}", summary.diagnostics);
    assert_eq!(summary.suppressed().count(), 1);
    assert_eq!(active_of(&summary, "stale-allow").len(), 0);
}

// --- suppression audit --------------------------------------------------

#[test]
fn stale_allow_is_reported() {
    // Well-formed, justified, known rule — but nothing underneath it.
    let src = "fn fx_quiet() -> u32 {\n\
               \x20   // linklens-allow(nan-unsafe-ordering): the comparator moved away long ago\n\
               \x20   4\n\
               }\n";
    let summary = run(vec![fx("crates/graph/src/fx_stale.rs", src)]);
    let hits = active_of(&summary, "stale-allow");
    assert_eq!(hits.len(), 1, "{:?}", summary.diagnostics);
    assert_eq!(hits[0].line, 2);
}

#[test]
fn phase2_rules_can_be_suppressed_and_audited_like_any_other() {
    // A stale allow naming a *phase-2* rule is still judged, because the
    // workspace run has full knowledge of both phases.
    let src = "fn fx_quiet() -> u32 {\n\
               \x20   // linklens-allow(panic-in-deterministic-path): this used to panic\n\
               \x20   4\n\
               }\n";
    let summary = run(vec![fx("crates/graph/src/fx_stale2.rs", src)]);
    assert_eq!(active_of(&summary, "stale-allow").len(), 1, "{:?}", summary.diagnostics);
}

// --- unreached-pub-fn ----------------------------------------------------

/// The line every crate root, binaries included, must start with.
const FORBID: &str = "#![forbid(unsafe_code)]\n";

/// A library file with one `pub fn` and its unit test.
const LIB_WITH_TEST: &str = "pub fn fx_helper(x: u32) -> u32 { x + 1 }\n\
                             #[cfg(test)]\n\
                             mod tests {\n\
                             \x20   #[test]\n\
                             \x20   fn t() { assert_eq!(super::fx_helper(1), 2); }\n\
                             }\n";

#[test]
fn pub_fn_only_tests_and_oracles_call_is_unreached() {
    // The binary's call goes to the oracle's namesake, through its path.
    let bin = format!("{FORBID}fn main() {{ oracles::fx_ref::fx_helper(2); }}\n");
    let summary = run(vec![
        fx("crates/linalg/src/fx_dense.rs", LIB_WITH_TEST),
        fx("crates/linalg/tests/fx_props.rs", "#[test]\nfn p() { fx_helper(3); }\n"),
        fx("crates/bench/src/oracles/fx_ref.rs", "pub fn fx_helper() -> u32 { fx_ref(4) }\n"),
        fx("crates/bench/benches/fx_cost.rs", "fn main() { fx_helper(5); }\n"),
        fx("crates/bench/src/bin/fx_runner.rs", &bin),
    ]);
    let hits = active_of(&summary, "unreached-pub-fn");
    assert_eq!(hits.len(), 1, "{:?}", summary.diagnostics);
    assert_eq!((hits[0].path.as_str(), hits[0].line), ("crates/linalg/src/fx_dense.rs", 1));
    assert!(hits[0].message.contains("fx_helper"), "{}", hits[0].message);
}

#[test]
fn pub_fn_called_from_any_production_root_is_reached() {
    for (path, caller) in [
        ("crates/bench/src/bin/fx_runner.rs", "fn main() { fx_helper(1); }\n"),
        ("crates/serve/src/bin/fx-serve.rs", "fn main() { fx_helper(1); }\n"),
        ("src/bin/fx_cli.rs", "fn run() { fx_helper(1); }\n"),
        ("examples/fx_demo.rs", "fn main() { fx_helper(1); }\n"),
        ("benchmark/src/fx_sweep.rs", "pub fn sweep() { fx_helper(1); }\n"),
        ("crates/bench/src/experiments/fx_row.rs", "fn table9(ctx: &Context) { fx_helper(1); }\n"),
    ] {
        let caller = format!("{FORBID}{caller}");
        let summary =
            run(vec![fx("crates/linalg/src/fx_dense.rs", LIB_WITH_TEST), fx(path, &caller)]);
        assert!(!summary.has_violations(), "{path}: {:?}", summary.diagnostics);
    }
}

#[test]
fn reach_follows_paths_library_calls_and_trait_impls() {
    let lib = "pub fn from_vec(n: usize, d: Vec<f64>) -> M { M }\n\
               pub fn fx_outer() -> u32 { fx_inner() }\n\
               pub fn fx_inner() -> u32 { 1 }\n\
               impl std::fmt::Display for M {\n\
               \x20   fn fmt(&self, f: &mut Formatter) -> Result { fx_render(self) }\n\
               }\n\
               pub fn fx_render(m: &M) -> Result { Ok(()) }\n\
               pub trait Fx {\n\
               \x20   fn fx_default(&self) -> u32 { fx_from_default() }\n\
               }\n\
               pub fn fx_from_default() -> u32 { 2 }\n\
               pub(crate) fn fx_crate_only() {}\n";
    let bin = format!(
        "{FORBID}fn main() {{ let ms: Vec<M> = rows.into_iter().map(Matrix::from_vec).collect(); \
         fx_outer(); }}\n"
    );
    let summary = run(vec![
        fx("crates/linalg/src/fx_dense.rs", lib),
        fx("crates/bench/src/bin/fx_runner.rs", &bin),
    ]);
    assert!(!summary.has_violations(), "{:?}", summary.diagnostics);

    // Without the binary, only the trait-rooted code stays reached.
    let summary = run(vec![fx("crates/linalg/src/fx_dense.rs", lib)]);
    let mut names: Vec<&str> = active_of(&summary, "unreached-pub-fn")
        .iter()
        .map(|d| d.message.split('`').nth(1).unwrap_or(""))
        .collect();
    names.sort_unstable();
    assert_eq!(names, ["pub fn from_vec", "pub fn fx_inner", "pub fn fx_outer"]);
}

#[test]
fn a_justified_allow_keeps_a_test_seam_until_something_calls_it() {
    let seam = "// linklens-allow(unreached-pub-fn): the fixture tests need the private fields\n\
                pub fn fx_seam() -> u32 { 1 }\n";
    let summary = run(vec![fx("crates/graph/src/fx_seam.rs", seam)]);
    assert!(!summary.has_violations(), "{:?}", summary.diagnostics);
    assert_eq!(summary.suppressed().count(), 1);

    let caller = fx("examples/fx_demo.rs", "fn main() { fx_seam(); }\n");
    let summary = run(vec![fx("crates/graph/src/fx_seam.rs", seam), caller]);
    let hits = active_of(&summary, "stale-allow");
    assert_eq!(hits.len(), 1, "{:?}", summary.diagnostics);
    assert_eq!(hits[0].line, 1);
}

#[test]
fn benchmark_sources_are_read_as_roots_only() {
    // Hazards every rule would flag in a binary go unreported here.
    let harness = "// linklens-deterministic: not a scanned file\n\
                   fn main() { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n\
                   // linklens-allow(unwrap-in-lib): nothing here to suppress\n\
                   fn quiet() {}\n";
    let summary = run(vec![fx("benchmark/src/main.rs", harness)]);
    assert!(summary.diagnostics.is_empty(), "{:?}", summary.diagnostics);
    assert_eq!(summary.files_checked, 0);
}

// --- rule table ----------------------------------------------------------

#[test]
fn every_rule_is_explainable() {
    for r in RULES {
        let spec = linklens_check::rules::spec(r.name)
            .unwrap_or_else(|| panic!("rule {} must resolve via spec()", r.name));
        assert!(!spec.contract.is_empty(), "{} needs a contract", r.name);
        assert!(!spec.rationale.is_empty(), "{} needs a rationale", r.name);
        assert!(!spec.fix.is_empty(), "{} needs a fix example", r.name);
    }
}
