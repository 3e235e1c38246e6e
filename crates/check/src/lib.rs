//! # linklens-check
//!
//! Dependency-free static analysis for the LinkLens workspace. The
//! paper's conclusions rest on correct ranking of real-valued scores and
//! correct CSR snapshot construction; one NaN-unsafe comparator or one
//! truncated offset silently reorders predictions. This crate turns those
//! correctness conventions into machine-enforced rules:
//!
//! * `nan-unsafe-ordering` — `partial_cmp(..).unwrap()/expect()` on float
//!   keys (require `f64::total_cmp`);
//! * `truncating-cast` — `as`-casts to narrow integers in CSR/offset code;
//! * `unwrap-in-lib` — `unwrap()/expect()` in library code of the scoring
//!   substrate (`graph`, `metrics`, `linalg`, `core`);
//! * `missing-forbid-unsafe` — every crate root keeps
//!   `#![forbid(unsafe_code)]`;
//! * `print-in-lib` — `println!`-family output in library crates;
//! * `full-trace-materialization` — `read_cache` / `read_cache_file` in
//!   library code, where traces must stream.
//!
//! On top of those single-file rules, the checker runs a *workspace*
//! analysis: every file is parsed into a symbol index (`symbols`), an
//! over-approximate call graph computes the functions reachable from the
//! deterministic surface (`callgraph`), and dataflow rules
//! (`dataflow`) prove that surface free of unordered `HashMap`/`HashSet`
//! iteration, unpinned float reductions, nondeterministic sources, and
//! unsanctioned panics, and the serve crate's marked query handlers free
//! of locks, blocking I/O and snapshot rebuilds. The same walk from the
//! production roots — binaries, examples, experiment rows and
//! `benchmark/src`, which is read for its roots only — finds
//! `unreached-pub-fn`: a library `pub fn` no production path reaches.
//!
//! Violations are suppressed per line with
//! `// linklens-allow(rule): justification`; a missing justification, an
//! unknown rule name, or a directive that no longer suppresses anything is
//! itself a violation. The `linklens-check` binary prints one
//! `path:line: [rule] message` line per active violation and a closing
//! tally, exits nonzero on any active violation, and prints the full
//! rationale of any rule under `--explain <rule>`.
//!
//! The lexer is hand-rolled (see [`lexer`]) so the shims directory stays
//! small: no `syn`, no proc-macro machinery — tokens are enough for every
//! rule above, and string/comment contents can never false-positive.
//!
//! The static rules point at a runtime audit layer in the scored crates:
//! [`osn_graph::snapshot::Snapshot::validate`] enforces the CSR invariant
//! contract after every incremental advance (under `debug_assertions`, or
//! `--paranoid` in release), and the scoring engine checks every metric's
//! score contract (finite; non-negative where promised) under the same
//! gate.
//!
//! [`osn_graph::snapshot::Snapshot::validate`]:
//!     ../osn_graph/snapshot/struct.Snapshot.html#method.validate

#![forbid(unsafe_code)]

mod callgraph;
mod dataflow;
pub mod lexer;
pub mod report;
pub mod rules;
mod symbols;
pub mod workspace;

use report::RunSummary;
use std::path::Path;
use workspace::FileInfo;

/// Runs the full two-phase analysis over every classified `.rs` file
/// under `root`: phase 1 parses each file into the symbol index and runs
/// the single-file rules; phase 2 builds the workspace call graph,
/// computes the deterministic surface, and runs the dataflow rules over
/// it. Suppression and directive auditing happen once, after both
/// phases, so `stale-allow` judges against everything the checker knows.
pub fn check_workspace(root: &Path) -> std::io::Result<RunSummary> {
    let files = workspace::collect_files(root)?;
    let mut sources = Vec::with_capacity(files.len());
    for info in files {
        let src = std::fs::read_to_string(root.join(&info.path))?;
        sources.push((info, src));
    }
    Ok(check_sources(sources))
}

/// The pure core of [`check_workspace`]: same two-phase analysis over
/// in-memory sources. Fixture and rule tests drive this directly.
///
/// A [`FileKind::RootOnly`](workspace::FileKind::RootOnly) file is parsed
/// for the production roots of `unreached-pub-fn` and checked by no rule.
pub fn check_sources(sources: Vec<(FileInfo, String)>) -> RunSummary {
    // Phase 1: parse everything once; run the single-file rules.
    let parsed: Vec<symbols::ParsedFile> =
        sources.iter().map(|(info, src)| symbols::parse_file(info, src)).collect();
    let checked = |p: &symbols::ParsedFile| p.info.kind != workspace::FileKind::RootOnly;
    let mut per_file: Vec<Vec<rules::Diagnostic>> = parsed
        .iter()
        .map(|p| if checked(p) { rules::phase1(&p.info, &p.lexed.tokens, &p.mask) } else { vec![] })
        .collect();

    // Phase 2: deterministic surface over the whole workspace, dataflow
    // rules over every in-scope file, a finding for each marker the
    // dataflow rules would never see, and the library functions no
    // production root reaches.
    let surface = callgraph::surface(&parsed);
    for (p, diags) in parsed.iter().zip(per_file.iter_mut()).filter(|(p, _)| checked(p)) {
        if callgraph::in_scope(&p.info) {
            dataflow::check_file(p, &surface, diags);
        } else {
            dataflow::unscanned_markers(p, diags);
        }
    }
    callgraph::unreached_pub_fns(&parsed, &mut per_file);

    // Suppressions + directive audit, with full knowledge of both phases.
    let mut diagnostics = Vec::new();
    let mut files_checked = 0;
    for (p, mut diags) in parsed.iter().zip(per_file).filter(|(p, _)| checked(p)) {
        let allows = rules::parse_allows(&p.lexed.comments);
        rules::finish_file(&p.info, &p.lexed.tokens, &p.mask, &allows, &mut diags);
        diagnostics.extend(diags);
        files_checked += 1;
    }
    RunSummary { files_checked, diagnostics }
}
