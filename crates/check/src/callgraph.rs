//! Phase 2a: the over-approximate call graph, the deterministic surface
//! and the production reach.
//!
//! The call graph is *name-based*: an identifier followed by `(` inside a
//! function body is an edge to every workspace function of that name, and
//! a bare identifier in argument position that matches a workspace
//! function name is an edge too (callback passing). No receiver types, no
//! path resolution — deliberately an over-approximation, so reachability
//! can only err toward scanning *more* code and reporting *less* code
//! unreached. The one exception is a call through the oracles' module
//! path (see [`ORACLE_DIR`]). One breadth-first walk serves both root
//! sets below.
//!
//! ## Deterministic surface
//!
//! The roots are the places where the engine's bit-identity contract is
//! stated (see DESIGN.md §15):
//!
//! * every `fn score_*` / `fn predict*` (Metric implementations and the
//!   exec/framework entry points),
//! * every function in the fused/solver/factor kernel files,
//! * every function of the experiment rows, whose output is committed
//!   under `results/`,
//! * every method of `SnapshotBuilder`,
//! * anything marked `// linklens-deterministic` in a scanned file (a
//!   marker anywhere else is itself a finding, `unscanned-marker`).
//!
//! Everything name-reachable from a root is "on the deterministic
//! surface" and gets the [`crate::dataflow`] rules.
//!
//! ## Production reach
//!
//! `unreached-pub-fn` walks the same kind of graph from the code that
//! regenerates, serves and benchmarks the paper's results (DESIGN.md
//! §15): every function of a binary, an example, an experiment row or
//! `benchmark/src`, and every method of a `trait` block or an
//! `impl Trait for Type` block, which the trait calls. Test code, benches,
//! the reference oracles and the checker itself are neither roots nor
//! sources of edges. A plain `pub fn` of a library crate's non-test code
//! that this walk does not reach is a finding.

use crate::rules::{ident_at, punct_at, Diagnostic};
use crate::symbols::{FnSym, ParsedFile};
use crate::workspace::{FileInfo, FileKind};
use std::collections::{BTreeMap, BTreeSet};

/// Crates whose library code is subject to the phase-2 dataflow rules.
/// Bin, bench and test targets are excluded on purpose: timing reads and
/// console output are legitimate there. `bench` is in scope for its
/// library, which holds the experiment rows and the oracles. `serve` is
/// in scope both for the shared dataflow rules and for
/// `blocking-in-query-path`, which guards its marked query handlers.
const SCOPE_CRATES: &[&str] =
    &["graph", "metrics", "linalg", "core", "ml", "trace", "serve", "bench"];

/// Files whose every function is a deterministic root: the batched
/// kernels whose bit-identity the equivalence suites pin.
const KERNEL_FILES: &[&str] =
    &["crates/metrics/src/fused.rs", "crates/metrics/src/solver.rs", "crates/linalg/src/factor.rs"];

/// Directories whose every function is a deterministic root: the
/// experiment rows, so a new row is on the surface without a marker.
const ROOT_DIRS: &[&str] = &["crates/bench/src/experiments/"];

/// Impl blocks whose every method is a deterministic root.
const ROOT_IMPLS: &[&str] = &["SnapshotBuilder"];

pub(crate) fn in_scope(info: &FileInfo) -> bool {
    !info.is_shim && info.kind == FileKind::Lib && SCOPE_CRATES.contains(&info.krate.as_str())
}

/// Crates whose plain `pub fn`s `unreached-pub-fn` checks: the seven
/// libraries the production roots build on.
const LIBRARY_CRATES: &[&str] = &["graph", "trace", "linalg", "ml", "metrics", "core", "serve"];

/// The reference oracles: test support, outside the production graph.
/// A call through their module path (`oracles::rescal::fit_dense`, as
/// scalecheck calls them) reaches no library function of that name.
const ORACLE_DIR: &str = "crates/bench/src/oracles/";
const ORACLE_MODULE: &str = "oracles";

/// A file's part in the production graph: its functions are roots, or
/// only sources of edges, or it is outside the graph (`None`).
#[derive(Clone, Copy, PartialEq)]
enum Part {
    Root,
    Body,
}

fn production_part(info: &FileInfo) -> Option<Part> {
    // The checker is a development tool, not a path to any result.
    if info.is_shim || info.krate == "check" || info.path.starts_with(ORACLE_DIR) {
        return None;
    }
    match info.kind {
        FileKind::Bin | FileKind::Example | FileKind::RootOnly => Some(Part::Root),
        FileKind::Lib if ROOT_DIRS.iter().any(|dir| info.path.starts_with(dir)) => Some(Part::Root),
        FileKind::Lib => Some(Part::Body),
        FileKind::Test | FileKind::Bench => None,
    }
}

/// Reserved words that look like call syntax (`if (`, `for (` never
/// actually occur, but `matches ! (`, `Some (` do) — anything here is
/// never a call edge. Capitalized tuple-struct/enum constructors are
/// excluded by the known-name check instead.
const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "fn", "let", "mut", "in", "as",
    "move", "ref", "break", "continue", "where", "impl", "trait", "struct", "enum", "type", "pub",
    "use", "mod", "const", "static", "unsafe", "dyn", "self", "Self", "super", "crate",
];

/// The deterministic surface: function names reachable from the roots,
/// each mapped to the root that first reached it (for diagnostics).
#[derive(Debug)]
pub(crate) struct Surface {
    reachable: BTreeMap<String, String>,
}

impl Surface {
    /// The root through which `fn_name` became deterministic-surface,
    /// or `None` if it is not on the surface.
    pub(crate) fn origin(&self, fn_name: &str) -> Option<&str> {
        self.reachable.get(fn_name).map(String::as_str)
    }
}

/// Whether `f` is a deterministic root, and why.
fn root_reason(file: &ParsedFile, f: &FnSym) -> Option<String> {
    if f.in_test {
        return None;
    }
    if f.name.starts_with("score_") || f.name.starts_with("predict") {
        return Some(format!("fn {}", f.name));
    }
    if KERNEL_FILES.contains(&file.info.path.as_str()) {
        return Some(format!("kernel file {}", file.info.path));
    }
    if ROOT_DIRS.iter().any(|dir| file.info.path.starts_with(dir)) {
        return Some(format!("experiment row file {}", file.info.path));
    }
    if let Some(ctx) = &f.impl_ctx {
        if ROOT_IMPLS.contains(&ctx.as_str()) {
            return Some(format!("impl {}", ctx));
        }
    }
    if f.marked_deterministic {
        return Some(format!("linklens-deterministic marker on {}", f.name));
    }
    None
}

/// Call edges out of one function body: every known workspace function
/// name that appears in call position (`name (`) or argument position
/// (`name ,` / `name )`) inside the body. `known` filters bare idents so
/// locals and field names don't become edges, and a name qualified by a
/// path through one of the `outside` modules (`oracles::rescal::fit_dense`)
/// names a function outside the graph, so it is no edge either.
fn callees(
    file: &ParsedFile,
    body: (usize, usize),
    known: &BTreeSet<&str>,
    outside: &[&str],
) -> BTreeSet<String> {
    let tokens = &file.lexed.tokens;
    let (open, end) = body;
    let mut out = BTreeSet::new();
    for i in open..end.min(tokens.len()) {
        let Some(name) = ident_at(tokens, i) else { continue };
        if KEYWORDS.contains(&name) || !known.contains(name) || qualified_by(file, i, outside) {
            continue;
        }
        let call_pos = punct_at(tokens, i + 1, '(');
        // `name !` is a macro, not a function call.
        let macro_pos = punct_at(tokens, i + 1, '!');
        // Callback heuristic: a known fn name handed to something else.
        let arg_pos = punct_at(tokens, i + 1, ',') || punct_at(tokens, i + 1, ')');
        if (call_pos || arg_pos) && !macro_pos {
            out.insert(name.to_string());
        }
    }
    out
}

/// Whether the path qualifying the identifier at `i` (`a :: b :: name`)
/// runs through one of `modules`.
fn qualified_by(file: &ParsedFile, i: usize, modules: &[&str]) -> bool {
    let tokens = &file.lexed.tokens;
    let mut j = i;
    while j >= 3 && punct_at(tokens, j - 1, ':') && punct_at(tokens, j - 2, ':') {
        match ident_at(tokens, j - 3) {
            Some(segment) if modules.contains(&segment) => return true,
            Some(_) => j -= 3,
            None => return false,
        }
    }
    false
}

/// Name-level call edges over `files`: every function name maps to the
/// union of the callees of every non-test fn of that name. Only names of
/// `files`' own functions become edges, and no call through a path in
/// one of the `outside` modules does.
fn call_edges<'a>(
    files: &[&'a ParsedFile],
    outside: &[&str],
) -> BTreeMap<&'a str, BTreeSet<String>> {
    let live = || {
        files.iter().flat_map(|p| p.fns.iter().map(move |f| (*p, f))).filter(|(_, f)| !f.in_test)
    };
    let known: BTreeSet<&str> = live().map(|(_, f)| f.name.as_str()).collect();
    let mut edges: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    for (p, f) in live() {
        if let Some(body) = f.body {
            edges.entry(f.name.as_str()).or_default().extend(callees(p, body, &known, outside));
        }
    }
    edges
}

/// Breadth-first walk over `edges` from `roots`: every reached name,
/// mapped to the reason of the root that first reached it.
fn reach(
    edges: &BTreeMap<&str, BTreeSet<String>>,
    roots: BTreeMap<&str, String>,
) -> BTreeMap<String, String> {
    let mut reachable: BTreeMap<String, String> = BTreeMap::new();
    let mut queue: Vec<String> = Vec::new();
    for (name, reason) in roots {
        reachable.insert(name.to_string(), reason);
        queue.push(name.to_string());
    }
    while let Some(name) = queue.pop() {
        let origin = reachable[&name].clone();
        if let Some(outs) = edges.get(name.as_str()) {
            for callee in outs {
                if !reachable.contains_key(callee) {
                    reachable.insert(callee.clone(), origin.clone());
                    queue.push(callee.clone());
                }
            }
        }
    }
    reachable
}

/// Builds the deterministic surface over every in-scope parsed file.
pub(crate) fn surface(files: &[ParsedFile]) -> Surface {
    let in_scope_files: Vec<&ParsedFile> = files.iter().filter(|p| in_scope(&p.info)).collect();
    let mut roots: BTreeMap<&str, String> = BTreeMap::new();
    for p in &in_scope_files {
        for f in &p.fns {
            if let Some(reason) = root_reason(p, f) {
                roots.entry(f.name.as_str()).or_insert(reason);
            }
        }
    }
    Surface { reachable: reach(&call_edges(&in_scope_files, &[]), roots) }
}

/// Whether `f` is a plain `pub fn` of a library crate's non-test code,
/// the functions `unreached-pub-fn` checks. Trait methods are exempt.
fn checked_for_reach(info: &FileInfo, f: &FnSym) -> bool {
    info.kind == FileKind::Lib
        && !info.is_shim
        && LIBRARY_CRATES.contains(&info.krate.as_str())
        && f.is_pub
        && !f.trait_method
        && !f.in_test
}

/// `unreached-pub-fn`: each library `pub fn` the production roots do not
/// reach is a finding, pushed to `out[i]` for `files[i]`.
pub(crate) fn unreached_pub_fns(files: &[ParsedFile], out: &mut [Vec<Diagnostic>]) {
    let graph: Vec<&ParsedFile> =
        files.iter().filter(|p| production_part(&p.info).is_some()).collect();
    let mut roots: BTreeMap<&str, String> = BTreeMap::new();
    for p in &graph {
        let root_file = production_part(&p.info) == Some(Part::Root);
        for f in p.fns.iter().filter(|f| !f.in_test && (root_file || f.trait_method)) {
            roots.entry(f.name.as_str()).or_insert_with(|| p.info.path.clone());
        }
    }
    let reached = reach(&call_edges(&graph, &[ORACLE_MODULE]), roots);
    for (p, diags) in files.iter().zip(out) {
        for f in p.fns.iter().filter(|f| checked_for_reach(&p.info, f)) {
            if !reached.contains_key(&f.name) {
                diags.push(Diagnostic::new(
                    "unreached-pub-fn",
                    &p.info.path,
                    f.line,
                    format!(
                        "`pub fn {}` is reached from no production root (a binary, an example, an \
                         experiment row or benchmark/src); delete it, or move it into the tests \
                         that call it",
                        f.name
                    ),
                ));
            }
        }
    }
}

/// True when the token at `i` is inside a `#[test]`-masked region.
pub(crate) fn masked(file: &ParsedFile, i: usize) -> bool {
    file.mask.get(i).copied().unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::parse_file;
    use crate::workspace::FileKind;

    fn info(path: &str, krate: &str) -> FileInfo {
        FileInfo {
            path: path.into(),
            krate: krate.into(),
            kind: FileKind::Lib,
            is_crate_root: false,
            is_shim: false,
        }
    }

    #[test]
    fn reachability_follows_call_and_callback_edges() {
        let a = parse_file(
            &info("crates/metrics/src/m.rs", "metrics"),
            "fn score_pairs(&self) -> Vec<f64> { helper(1); apply(reducer, 2); vec![] }\nfn helper(x: u32) {}\nfn reducer(x: u32) {}\nfn apply(f: fn(u32), x: u32) {}\nfn unrelated() {}",
        );
        let s = surface(&[a]);
        assert!(s.origin("score_pairs").is_some());
        assert!(s.origin("helper").is_some());
        assert!(s.origin("reducer").is_some(), "argument-position callback is an edge");
        assert!(s.origin("unrelated").is_none());
    }

    #[test]
    fn roots_cover_kernels_builder_methods_and_markers() {
        let kernel = parse_file(
            &info("crates/metrics/src/fused.rs", "metrics"),
            "fn enumerate_and_score(x: u32) {}",
        );
        let builder = parse_file(
            &info("crates/graph/src/builder.rs", "graph"),
            "impl SnapshotBuilder {\n  fn advance_to(&mut self, t: u32) {}\n}",
        );
        let marked = parse_file(
            &info("crates/core/src/classify.rs", "core"),
            "// linklens-deterministic: feeds training order\nfn prepare_seeds() {}",
        );
        let s = surface(&[kernel, builder, marked]);
        assert!(s.origin("enumerate_and_score").unwrap().contains("kernel file"));
        assert!(s.origin("advance_to").unwrap().contains("impl SnapshotBuilder"));
        assert!(s.origin("prepare_seeds").unwrap().contains("marker"));
    }

    #[test]
    fn experiment_rows_are_roots_without_a_marker() {
        let row = parse_file(
            &info("crates/bench/src/experiments/bias.rs", "bench"),
            "fn table5(ctx: &Context) -> Value { most_predicted(ctx) }\nfn most_predicted(ctx: &Context) {}",
        );
        let oracle = parse_file(
            &info("crates/bench/src/oracles/local.rs", "bench"),
            "fn common_neighbors_pair(u: u32) {}",
        );
        let s = surface(&[row, oracle]);
        assert!(s.origin("table5").unwrap().contains("experiment row file"));
        assert!(s.origin("most_predicted").is_some());
        assert!(
            s.origin("common_neighbors_pair").is_none(),
            "bench library code is scanned, not rooted"
        );
    }

    #[test]
    fn out_of_scope_files_and_test_fns_contribute_nothing() {
        let bench = parse_file(
            &FileInfo {
                path: "crates/bench/src/bin/scalecheck.rs".into(),
                krate: "bench".into(),
                kind: FileKind::Bin,
                is_crate_root: true,
                is_shim: false,
            },
            "fn score_timer() { Instant::now(); }",
        );
        let tests_only = parse_file(
            &info("crates/core/src/t.rs", "core"),
            "#[cfg(test)]\nmod tests {\n  fn score_fake() {}\n}",
        );
        let s = surface(&[bench, tests_only]);
        assert!(s.origin("score_timer").is_none());
        assert!(s.origin("score_fake").is_none());
    }
}
