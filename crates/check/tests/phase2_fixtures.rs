//! Fixture crates for the two-phase workspace analyzer, driven through
//! the same [`linklens_check::check_sources`] entry point the real run
//! uses. Each fixture seeds a known true positive or true negative, so
//! these tests pin the analyzer's behavior end to end: symbol indexing,
//! call-graph reachability, dataflow rules, suppression audit, and the
//! baseline ratchet.

use linklens_check::baseline::{self, Baseline};
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
    let summary = run(vec![fx("crates/serve/src/fx_handler.rs", &allowed)]);
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

// --- baseline ratchet ----------------------------------------------------

#[test]
fn baseline_round_trips_and_absorbs_known_findings() {
    let mut first = run(vec![fx("crates/metrics/src/fx_topk.rs", TP_TOPK)]);
    assert!(first.has_violations());

    let text = Baseline::render(&first);
    let base = Baseline::parse(&text).expect("rendered baseline parses");
    let notes = baseline::apply(&mut first, &base);
    assert!(notes.is_empty(), "fresh baseline has no slack: {notes:?}");
    assert!(!first.has_violations(), "baselined run must pass");
    assert_eq!(first.baselined().count(), 1);
}

#[test]
fn baseline_rejects_growth_within_a_bucket() {
    // Baseline admits one finding in this file; the run has two.
    let two = "fn score_pairs_fx(scores: &HashMap<u32, f64>) -> Vec<u32> {\n\
               \x20   let a: Vec<u32> = scores.keys().copied().collect();\n\
               \x20   let b: Vec<u32> = scores.keys().copied().collect();\n\
               \x20   a\n\
               }\n";
    let base = Baseline::parse(
        "{\"tool\":\"linklens-check\",\"format\":1,\"buckets\":{\
         \"unordered-iteration-in-deterministic-path|crates/metrics/src/fx_topk.rs\":1}}",
    )
    .expect("handcrafted baseline parses");
    let mut summary = run(vec![fx("crates/metrics/src/fx_topk.rs", two)]);
    baseline::apply(&mut summary, &base);
    assert_eq!(summary.baselined().count(), 1);
    assert_eq!(summary.active().count(), 1, "the second finding must still fail");
    assert!(summary.has_violations());
}

#[test]
fn baseline_rejects_new_buckets_entirely() {
    // A baseline for a different file covers nothing here.
    let base = Baseline::parse(
        "{\"tool\":\"linklens-check\",\"format\":1,\"buckets\":{\
         \"unordered-iteration-in-deterministic-path|crates/metrics/src/elsewhere.rs\":3}}",
    )
    .expect("handcrafted baseline parses");
    let mut summary = run(vec![fx("crates/metrics/src/fx_topk.rs", TP_TOPK)]);
    let notes = baseline::apply(&mut summary, &base);
    assert!(summary.has_violations(), "new findings are not absorbed");
    assert!(!notes.is_empty(), "the unused bucket produces a tighten note");
}

#[test]
fn baseline_shrinkage_produces_tighten_notes() {
    let base = Baseline::parse(
        "{\"tool\":\"linklens-check\",\"format\":1,\"buckets\":{\
         \"unordered-iteration-in-deterministic-path|crates/metrics/src/fx_topk.rs\":5}}",
    )
    .expect("handcrafted baseline parses");
    let mut summary = run(vec![fx("crates/metrics/src/fx_topk.rs", TP_TOPK)]);
    let notes = baseline::apply(&mut summary, &base);
    assert!(!summary.has_violations());
    assert_eq!(notes.len(), 1, "{notes:?}");
    assert!(notes[0].contains("4 unused"), "{notes:?}");
}

#[test]
fn committed_baseline_is_parseable_and_empty() {
    // The repo ships a zero-debt ratchet: it must stay parseable, and any
    // future bucket additions should be a deliberate, reviewed decision.
    let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let text = std::fs::read_to_string(root.join("check-baseline.json"))
        .expect("check-baseline.json is committed at the workspace root");
    let base = Baseline::parse(&text).expect("committed baseline parses");
    assert!(base.buckets.is_empty(), "the committed ratchet is supposed to be clean");
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
