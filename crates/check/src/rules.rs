//! The repo-specific lint rules, the shared rule table, and the
//! per-file suppression pass.
//!
//! Every rule pattern-matches the token stream from [`crate::lexer`]; no
//! rule ever sees string-literal or comment contents, so quoted code can
//! never false-positive. Rules scope themselves by crate and
//! [`FileKind`], and every token inside `#[test]` / `#[cfg(test)]` items
//! is exempt (the paper's correctness argument is about *shipping* code
//! paths — tests may unwrap freely).
//!
//! This module holds the *phase-1* (single-file) rules and the shared rule
//! table; the *phase-2* dataflow rules over the workspace symbol graph
//! live in the private `dataflow` module and are registered here so
//! `--explain` and suppression auditing draw from one table.
//!
//! ## Suppressions
//!
//! A violation is suppressed by a `// linklens-allow(rule): justification`
//! comment on the same line or the line directly above; the directive must
//! start the comment (prose mentioning the syntax is not a directive). The
//! justification after the colon is mandatory: an allow without one raises
//! `unjustified-allow`, an allow naming a rule that does not exist raises
//! `unknown-rule`, and an allow that no longer suppresses anything raises
//! `stale-allow` — so suppressions stay auditable instead of rotting into
//! cargo-cult annotations.

use crate::lexer::{Comment, Tok, Token};
use crate::workspace::{FileInfo, FileKind};

/// Crates whose library code the `unwrap-in-lib` and `truncating-cast`
/// rules gate: the substrate every score and snapshot flows through.
const GATED_CRATES: &[&str] = &["graph", "metrics", "linalg", "core"];

/// Integer types an `as` cast may silently truncate into.
const NARROW_INTS: &[&str] = &["u32", "u16", "u8", "i32", "i16", "i8"];

/// One rule's full documentation: the table below is the single source of
/// truth for rule names and for the contract, rationale and fix example
/// printed by `linklens-check --explain` — the explain output can never
/// drift from what the checker enforces.
#[derive(Debug)]
pub struct RuleSpec {
    /// The name used in diagnostics and `linklens-allow` directives.
    pub name: &'static str,
    /// One-line contract.
    pub contract: &'static str,
    /// Why the rule exists, in terms of the paper's correctness argument.
    pub rationale: &'static str,
    /// A minimal before/after fix example.
    pub fix: &'static str,
}

/// Every rule the checker knows.
pub const RULES: &[RuleSpec] = &[
    RuleSpec {
        name: "nan-unsafe-ordering",
        contract: "`partial_cmp(..).unwrap()/expect()` on float keys panics (or, loosened, misorders) on NaN; use `f64::total_cmp`",
        rationale: "Rankings drive every accuracy number in the paper; one NaN key either aborts a sweep mid-run or, if the unwrap is ever loosened to unwrap_or, silently reorders predictions.",
        fix: "- v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n+ v.sort_by(|a, b| a.total_cmp(b));",
    },
    RuleSpec {
        name: "truncating-cast",
        contract: "`as`-cast to a narrow integer in CSR/offset code can silently truncate; use a checked conversion or justify",
        rationale: "CSR offsets index tens of millions of edges at paper scale; a u32 truncation wraps silently and corrupts every neighborhood read after it instead of failing loudly.",
        fix: "- let off = total as u32;\n+ let off = u32::try_from(total).expect(\"offset fits u32\");\n(or justify the bound: // linklens-allow(truncating-cast): node ids are u32 by construction)",
    },
    RuleSpec {
        name: "unwrap-in-lib",
        contract: "`unwrap()/expect()` in library code of the scoring substrate; return Result/Option or justify the invariant",
        rationale: "A panic in graph/metrics/linalg/core kills a multi-hour sweep with no structured error; recoverable conditions must travel through Result so callers can classify them.",
        fix: "- let first = pairs.first().unwrap();\n+ let Some(first) = pairs.first() else { return Vec::new() };",
    },
    RuleSpec {
        name: "missing-forbid-unsafe",
        contract: "every crate root must keep `#![forbid(unsafe_code)]`",
        rationale: "The engine's bit-identity claims lean on the compiler's aliasing and initialization guarantees; one unsafe block invalidates them workspace-wide.",
        fix: "+ #![forbid(unsafe_code)]  (first item of lib.rs / main.rs)",
    },
    RuleSpec {
        name: "print-in-lib",
        contract: "`println!`-family output in library code; diagnostics must travel through return values",
        rationale: "Library prints interleave nondeterministically with bench/CLI output and cannot be captured by callers; structured results keep runs comparable.",
        fix: "- eprintln!(\"skipping row {i}\");\n+ skipped.push(i);  // and return it",
    },
    RuleSpec {
        name: "full-trace-materialization",
        contract: "a full edge-list materialization (`read_cache` / `read_cache_file`) in library code; large traces must flow through the windowed streaming reader, or justify the small-trace in-core path",
        rationale: "The sectioned cache and windowed reader exist so 10^6-10^7-node traces never hold the full edge list in RAM; one read_cache_file on a sweep path silently reintroduces the O(edges) working set the streaming layer removed.",
        fix: "- let g = read_cache_file(&path)?;\n+ let mut seq = StreamingSequence::with_count(reader, snapshots);  // windowed delta reads\n(or justify: // linklens-allow(full-trace-materialization): sanctioned small-trace in-core entry point)",
    },
    RuleSpec {
        name: "unordered-iteration-in-deterministic-path",
        contract: "iterating a `HashMap`/`HashSet` on the deterministic surface in an order that can reach scores, top-k, or serialized output; use an order-stable structure or pin the order with a sort",
        rationale: "std HashMap/HashSet iteration order varies per process and per instance; one unordered iteration feeding a Vec, a fold, or serialized output makes every downstream accuracy number irreproducible — exactly the silent evaluation corruption 'Evaluating Link Prediction Methods' warns about. Iterations that provably cannot carry order out (.count()/.any()/.all(), collects into unordered or self-ordering containers, or a collect immediately followed by a plain sort/sort_unstable of the same binding) are exempt. A keyed sort is not: entries whose keys tie keep the unordered order, as Table 5's most-predicted-node cut once did.",
        fix: "- let picked: Vec<_> = set.iter().copied().filter(keep).collect();\n+ let mut picked: Vec<_> = set.iter().copied().filter(keep).collect();\n+ picked.sort_unstable();  // order pinned before anything downstream sees it\n(or switch the container to BTreeMap/BTreeSet)",
    },
    RuleSpec {
        name: "nondeterministic-source-in-deterministic-path",
        contract: "a nondeterministic source (`Instant::now`, `SystemTime`, `thread_rng`/`from_entropy`, `thread::current`, pointer-to-usize) on the deterministic surface; inject seeds/clocks from the caller",
        rationale: "The engine's contract is bit-identical output across thread counts and reruns; a wall-clock read, OS-entropy RNG, thread id, or address-based value inside scoring breaks it invisibly until a property test happens to catch it.",
        fix: "- let mut rng = rand::rngs::StdRng::from_entropy();\n+ let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);",
    },
    RuleSpec {
        name: "unordered-float-reduction",
        contract: "an `f64` reduction (`sum`/`product`/`fold`/`reduce`) folded over a `HashMap`/`HashSet` iteration on the deterministic surface; float addition is not associative, so the fold order must be pinned",
        rationale: "(a + b) + c != a + (b + c) in f64; a reduction over unordered iteration produces run-dependent low bits that break the bit-identity property tests and can flip top-k ties.",
        fix: "- let total: f64 = weights.values().sum();\n+ let mut ws: Vec<f64> = weights.values().copied().collect();\n+ ws.sort_by(|a, b| a.total_cmp(b));\n+ let total: f64 = ws.iter().sum();  // or keep a BTreeMap keyed by node id",
    },
    RuleSpec {
        name: "panic-in-deterministic-path",
        contract: "a `panic!`/`unreachable!`/`todo!`/`unimplemented!` on the deterministic surface that is not audit-gated and not re-raising a structured error; make the state unrepresentable or return a structured error",
        rationale: "Sanctioned panics are the audit layer (gated on audit_enabled) and `Err(e) => panic!` re-raises of the structured InvariantViolation/SolverError/FactorError classes; any other panic is an unclassified crash in a path that claims total determinism.",
        fix: "- Node::Split { .. } => unreachable!(\"walker returns leaves\"),\n+ // restructure the helper to return the leaf payload so the split arm cannot exist",
    },
    RuleSpec {
        name: "blocking-in-query-path",
        contract: "a lock acquisition, blocking I/O, or snapshot rebuild inside a marked `serve` query handler; the bounded-latency query path must stay lock-free and compute-only",
        rationale: "linklens-serve promises bounded per-query latency concurrently with ingest: workers pin an immutable snapshot and score without shared state. One `.lock()` held across scoring serializes every worker behind ingest, one blocking read stalls the queue, and one SnapshotBuilder rebuild per query is the stop-the-world the versioned swap exists to avoid.",
        fix: "- let snap = self.live.lock().unwrap().snapshot();  // inside the handler\n+ let pinned = store.current();  // version-pinned Arc swap, taken outside scoring\n(or justify a sanctioned case: // linklens-allow(blocking-in-query-path): wait-free counter, never held across scoring)",
    },
    RuleSpec {
        name: "unscanned-marker",
        contract: "a `// linklens-deterministic` marker in a file the determinism analysis does not scan (bins, tests, benches, examples, shims); nothing checks what it marks",
        rationale: "A marker says the function's output must not depend on hash order, clocks or thread count. Outside the scanned library files the dataflow rules never run, so the marker would promise a check that does not happen, and a reader would trust code nobody checked.",
        fix: "Move the marked code into a scanned library file (every function under crates/bench/src/experiments/ is on the surface without a marker), or delete the marker.",
    },
    RuleSpec {
        name: "unreached-pub-fn",
        contract: "a plain `pub fn` in the non-test code of a library crate (graph, trace, linalg, ml, metrics, core, serve) that the name-level call graph does not reach from a production root: a binary, an example, an experiment row, or benchmark/src; trait methods are exempt. A call (`name(`) reaches every function of that name; a name passed as an argument (`name,` / `name)`) reaches one only through a path (`Type::m`, `Self::m`) or when a free function has that name, since a method cannot be named bare: a local, field or pattern sharing a method's name reaches nothing",
        rationale: "The paper's results come from the code that regenerates, serves and benchmarks them. A library function none of that code reaches is kept up, documented and tested for nothing, and rustc's dead-code lint cannot see it because it is `pub`. Test code, benches and the reference oracles are no roots: a function only they call belongs with them.",
        fix: "Delete the function (and the tests that only tested it), or move it into the tests or `linklens_bench::oracles` that call it.\n(A test seam that needs private state keeps a justified allow naming the tests:\n // linklens-allow(unreached-pub-fn): the window-split tests in sampled_eval.rs need a small window)",
    },
    RuleSpec {
        name: "stale-allow",
        contract: "a `linklens-allow(..)` directive that no longer suppresses any finding; delete it",
        rationale: "Suppressions are debt: once the code they excused is gone, a lingering allow masks the next real violation introduced on that line.",
        fix: "Delete the directive (re-run linklens-check to confirm nothing resurfaces).",
    },
    RuleSpec {
        name: "unjustified-allow",
        contract: "a `linklens-allow(..)` without a `: justification` suffix",
        rationale: "An allow without a recorded reason cannot be audited; the next reader cannot tell a proven invariant from a silenced bug.",
        fix: "- // linklens-allow(unwrap-in-lib)\n+ // linklens-allow(unwrap-in-lib): slice non-empty, checked by caller assert",
    },
    RuleSpec {
        name: "unknown-rule",
        contract: "a `linklens-allow(..)` naming a rule the checker does not know",
        rationale: "A typoed rule name suppresses nothing while looking like it does; the directive must name a real rule to be auditable.",
        fix: "Check the rule list in `linklens-check --explain` and fix the name.",
    },
];

/// The spec for `name`, if the checker knows that rule.
pub fn spec(name: &str) -> Option<&'static RuleSpec> {
    RULES.iter().find(|r| r.name == name)
}

fn rule_exists(name: &str) -> bool {
    spec(name).is_some()
}

/// One `file:line` finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub rule: &'static str,
    pub path: String,
    pub line: u32,
    pub message: String,
    /// True when a `linklens-allow` directive covers this finding; the
    /// report counts suppressed findings but they do not fail the run.
    pub suppressed: bool,
}

impl Diagnostic {
    pub fn new(rule: &'static str, path: &str, line: u32, message: String) -> Self {
        Diagnostic { rule, path: path.to_string(), line, message, suppressed: false }
    }
}

/// A parsed `linklens-allow(rule, …): justification` directive.
#[derive(Debug)]
pub(crate) struct Allow {
    pub(crate) line: u32,
    pub(crate) end_line: u32,
    pub(crate) rules: Vec<String>,
    pub(crate) justified: bool,
}

/// Whether directive `a` covers a finding of `rule` at `line`: same line
/// as the directive, or the line directly below it.
pub(crate) fn covers(a: &Allow, rule: &str, line: u32) -> bool {
    a.rules.iter().any(|r| r == rule) && (a.line == line || a.end_line + 1 == line)
}

pub(crate) fn parse_allows(comments: &[Comment]) -> Vec<Allow> {
    const NEEDLE: &str = "linklens-allow(";
    comments
        .iter()
        .filter_map(|cm| {
            // A directive must *start* the comment (modulo whitespace and
            // doc-comment `!`/`/` framing); prose that merely mentions the
            // syntax — like this crate's own docs — is not a directive.
            let trimmed = cm.text.trim_start_matches(['/', '!']).trim_start();
            if !trimmed.starts_with(NEEDLE) {
                return None;
            }
            let rest = &trimmed[NEEDLE.len()..];
            let close = rest.find(')')?;
            let rules: Vec<String> = rest[..close]
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect();
            let after = rest[close + 1..].trim_start();
            let justified = after.starts_with(':') && !after[1..].trim().is_empty();
            Some(Allow { line: cm.line, end_line: cm.end_line, rules, justified })
        })
        .collect()
}

/// Runs every single-file (phase-1) rule over one lexed file. No
/// suppression is applied here — the caller finishes with [`finish_file`]
/// once the phase-2 dataflow pass has contributed too.
pub(crate) fn phase1(info: &FileInfo, tokens: &[Token], mask: &[bool]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let test_code = matches!(info.kind, FileKind::Test | FileKind::Bench);

    if !test_code {
        nan_unsafe_ordering(info, tokens, mask, &mut diags);
        if !info.is_shim
            && GATED_CRATES.contains(&info.krate.as_str())
            && info.kind == FileKind::Lib
        {
            truncating_cast(info, tokens, mask, &mut diags);
            unwrap_in_lib(info, tokens, mask, &mut diags);
        }
        if !info.is_shim && info.kind == FileKind::Lib {
            print_in_lib(info, tokens, mask, &mut diags);
            full_trace_materialization(info, tokens, mask, &mut diags);
        }
    }
    if info.is_crate_root {
        missing_forbid_unsafe(info, tokens, &mut diags);
    }
    diags
}

/// True when any token on a line in `lo..=hi` sits inside a
/// `#[test]` / `#[cfg(test)]` item.
fn lines_masked(tokens: &[Token], mask: &[bool], lo: u32, hi: u32) -> bool {
    tokens.iter().zip(mask).any(|(t, &m)| m && t.line >= lo && t.line <= hi)
}

/// Applies suppressions to `diags`, audits the directives themselves
/// (`unjustified-allow`, `unknown-rule`, `stale-allow`), and sorts the
/// result. Both phases have run over the file by then, so a directive
/// naming any rule can be judged stale.
pub(crate) fn finish_file(
    info: &FileInfo,
    tokens: &[Token],
    mask: &[bool],
    allows: &[Allow],
    diags: &mut Vec<Diagnostic>,
) {
    // Apply suppressions: an allow on the violation's line or the line
    // directly above it covers the violation.
    for d in diags.iter_mut() {
        d.suppressed = allows.iter().any(|a| covers(a, d.rule, d.line));
    }

    // Audit the directives themselves. The audit findings are appended
    // after the suppression pass on purpose: a directive cannot excuse
    // its own defects.
    let mut audit = Vec::new();
    let test_file = matches!(info.kind, FileKind::Test | FileKind::Bench);
    for a in allows {
        if !a.justified {
            audit.push(Diagnostic::new(
                "unjustified-allow",
                &info.path,
                a.line,
                "linklens-allow without a `: justification`; say why the rule is safe to waive here"
                    .to_string(),
            ));
        }
        let mut any_unknown = false;
        for r in &a.rules {
            if !rule_exists(r) {
                any_unknown = true;
                audit.push(Diagnostic::new(
                    "unknown-rule",
                    &info.path,
                    a.line,
                    format!("linklens-allow names unknown rule `{r}`"),
                ));
            }
        }
        // Stale-allow: a well-formed directive that suppressed nothing.
        // Malformed directives are already flagged above; directives in
        // test code are outside every rule's scope, so "suppressed
        // nothing" proves nothing there.
        if !a.justified || any_unknown {
            continue;
        }
        if test_file || lines_masked(tokens, mask, a.line, a.end_line + 1) {
            continue;
        }
        let used = diags.iter().any(|d| d.suppressed && covers(a, d.rule, d.line));
        if !used {
            audit.push(Diagnostic::new(
                "stale-allow",
                &info.path,
                a.line,
                format!(
                    "linklens-allow({}) no longer suppresses any finding; delete it",
                    a.rules.join(", ")
                ),
            ));
        }
    }
    diags.extend(audit);

    diags.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
}

pub(crate) fn ident_at(tokens: &[Token], i: usize) -> Option<&str> {
    match tokens.get(i).map(|t| &t.tok) {
        Some(Tok::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

pub(crate) fn punct_at(tokens: &[Token], i: usize, p: char) -> bool {
    matches!(tokens.get(i).map(|t| &t.tok), Some(Tok::Punct(q)) if *q == p)
}

/// Index just past the `)` matching the `(` at `open`, or `tokens.len()`.
pub(crate) fn past_matching_paren(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < tokens.len() {
        match tokens[j].tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// Index just past the `}` matching the `{` at `open`, or `tokens.len()`.
pub(crate) fn past_matching_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < tokens.len() {
        match tokens[j].tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// A full edge-list materialization call (`read_cache`,
/// `read_cache_file`) in library code: the sectioned cache and the
/// windowed streaming reader (DESIGN.md §16) exist so large traces never
/// hold every edge in RAM at once. The sanctioned small-trace in-core
/// entry points keep the path with a justified allow; definitions
/// (`fn read_cache`) do not self-flag.
fn full_trace_materialization(
    info: &FileInfo,
    tokens: &[Token],
    mask: &[bool],
    out: &mut Vec<Diagnostic>,
) {
    const MATERIALIZERS: &[&str] = &["read_cache", "read_cache_file"];
    for i in 0..tokens.len() {
        if mask[i] {
            continue;
        }
        let Some(name) = ident_at(tokens, i) else { continue };
        if !MATERIALIZERS.contains(&name) || !punct_at(tokens, i + 1, '(') {
            continue;
        }
        // `fn read_cache(..)` is the definition, not a call.
        if i >= 1 && ident_at(tokens, i - 1) == Some("fn") {
            continue;
        }
        out.push(Diagnostic::new(
            "full-trace-materialization",
            &info.path,
            tokens[i].line,
            format!(
                "`{name}()` materializes the full edge list in RAM; stream the trace through the \
                 windowed reader (StreamingSequence / SnapshotBuilder over a reader), or justify the \
                 small-trace in-core path with linklens-allow"
            ),
        ));
    }
}

/// `partial_cmp(..)` immediately chained into `.unwrap()` / `.expect(..)`.
fn nan_unsafe_ordering(
    info: &FileInfo,
    tokens: &[Token],
    mask: &[bool],
    out: &mut Vec<Diagnostic>,
) {
    for i in 0..tokens.len() {
        if mask[i] || ident_at(tokens, i) != Some("partial_cmp") || !punct_at(tokens, i + 1, '(') {
            continue;
        }
        let after = past_matching_paren(tokens, i + 1);
        if punct_at(tokens, after, '.')
            && matches!(ident_at(tokens, after + 1), Some("unwrap") | Some("expect"))
            && punct_at(tokens, after + 2, '(')
        {
            out.push(Diagnostic::new(
                "nan-unsafe-ordering",
                &info.path,
                tokens[i].line,
                "partial_cmp + unwrap/expect panics on NaN keys (and misorders if the expect is ever \
                          loosened); sort with f64::total_cmp instead"
                    .to_string(),
            ));
        }
    }
}

/// `as u32` (and friends) in CSR/offset-bearing library code.
fn truncating_cast(info: &FileInfo, tokens: &[Token], mask: &[bool], out: &mut Vec<Diagnostic>) {
    for i in 0..tokens.len() {
        if mask[i] || ident_at(tokens, i) != Some("as") {
            continue;
        }
        if let Some(ty) = ident_at(tokens, i + 1) {
            if NARROW_INTS.contains(&ty) {
                out.push(Diagnostic::new(
                    "truncating-cast",
                    &info.path,
                    tokens[i].line,
                    format!(
                        "`as {ty}` silently truncates out-of-range values; use a checked conversion or \
                         justify the bound with linklens-allow"
                    ),
                ));
            }
        }
    }
}

/// `.unwrap()` / `.expect(..)` in gated library code.
fn unwrap_in_lib(info: &FileInfo, tokens: &[Token], mask: &[bool], out: &mut Vec<Diagnostic>) {
    for i in 0..tokens.len() {
        if mask[i] || !punct_at(tokens, i, '.') {
            continue;
        }
        let Some(name) = ident_at(tokens, i + 1) else { continue };
        if (name == "unwrap" || name == "expect") && punct_at(tokens, i + 2, '(') {
            out.push(Diagnostic::new(
                "unwrap-in-lib",
                &info.path,
                tokens[i + 1].line,
                format!(
                    "`.{name}()` in `{}` library code; return a Result/Option or justify the invariant \
                     with linklens-allow",
                    info.krate
                ),
            ));
        }
    }
}

/// `println!`-family macros in library code.
fn print_in_lib(info: &FileInfo, tokens: &[Token], mask: &[bool], out: &mut Vec<Diagnostic>) {
    const PRINTERS: &[&str] = &["println", "eprintln", "print", "eprint", "dbg"];
    for i in 0..tokens.len() {
        if mask[i] {
            continue;
        }
        let Some(name) = ident_at(tokens, i) else { continue };
        if PRINTERS.contains(&name) && punct_at(tokens, i + 1, '!') {
            // `macro_rules! println` shadowing or a `use` would still be a
            // smell; only skip definitions (`macro_rules` directly before).
            if i >= 1 && ident_at(tokens, i - 1) == Some("macro_rules") {
                continue;
            }
            out.push(Diagnostic::new(
                "print-in-lib",
                &info.path,
                tokens[i].line,
                format!(
                    "`{name}!` in `{}` library code; diagnostics must travel through return values",
                    info.krate
                ),
            ));
        }
    }
}

/// Crate roots must carry `#![forbid(unsafe_code)]`.
fn missing_forbid_unsafe(info: &FileInfo, tokens: &[Token], out: &mut Vec<Diagnostic>) {
    let found = tokens.windows(8).any(|w| {
        matches!(&w[0].tok, Tok::Punct('#'))
            && matches!(&w[1].tok, Tok::Punct('!'))
            && matches!(&w[2].tok, Tok::Punct('['))
            && matches!(&w[3].tok, Tok::Ident(s) if s == "forbid")
            && matches!(&w[4].tok, Tok::Punct('('))
            && matches!(&w[5].tok, Tok::Ident(s) if s == "unsafe_code")
            && matches!(&w[6].tok, Tok::Punct(')'))
            && matches!(&w[7].tok, Tok::Punct(']'))
    });
    if !found {
        out.push(Diagnostic::new(
            "missing-forbid-unsafe",
            &info.path,
            1,
            "crate root lacks `#![forbid(unsafe_code)]`".to_string(),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_info(krate: &str) -> FileInfo {
        FileInfo {
            path: format!("crates/{krate}/src/fixture.rs"),
            krate: krate.to_string(),
            kind: FileKind::Lib,
            is_crate_root: false,
            is_shim: false,
        }
    }

    fn check_file(info: &FileInfo, src: &str) -> Vec<Diagnostic> {
        crate::check_sources(vec![(info.clone(), src.to_string())]).diagnostics
    }

    fn active(diags: &[Diagnostic], rule: &str) -> usize {
        diags.iter().filter(|d| d.rule == rule && !d.suppressed).count()
    }

    // --- nan-unsafe-ordering -------------------------------------------

    #[test]
    fn nan_rule_fires_on_violation() {
        let src = "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }";
        let d = check_file(&lib_info("graph"), src);
        assert_eq!(active(&d, "nan-unsafe-ordering"), 1);
        assert_eq!(d.iter().find(|x| x.rule == "nan-unsafe-ordering").map(|x| x.line), Some(1));
    }

    #[test]
    fn nan_rule_fires_on_expect_across_lines() {
        let src = "fn f() {\n  order.sort_by(|&i, &j| {\n    v[j].abs().partial_cmp(&v[i].abs()).expect(\"finite\")\n  });\n}";
        let d = check_file(&lib_info("linalg"), src);
        assert_eq!(active(&d, "nan-unsafe-ordering"), 1);
        assert_eq!(d.iter().find(|x| x.rule == "nan-unsafe-ordering").map(|x| x.line), Some(3));
    }

    #[test]
    fn nan_rule_clean_on_total_cmp_and_bare_partial_cmp() {
        let src = "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.total_cmp(b)); let o = a.partial_cmp(&b); }";
        let d = check_file(&lib_info("graph"), src);
        assert_eq!(active(&d, "nan-unsafe-ordering"), 0);
    }

    #[test]
    fn nan_rule_ignores_trait_impls() {
        // A `fn partial_cmp(&self, other: &Self)` definition must not fire.
        let src = "impl PartialOrd for S { fn partial_cmp(&self, other: &Self) -> Option<Ordering> { None } }";
        let d = check_file(&lib_info("metrics"), src);
        assert_eq!(active(&d, "nan-unsafe-ordering"), 0);
    }

    #[test]
    fn nan_rule_suppressed_by_allow() {
        let src = "fn f() {\n  // linklens-allow(nan-unsafe-ordering): keys proven finite two lines up\n  v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}";
        let d = check_file(&lib_info("graph"), src);
        assert_eq!(active(&d, "nan-unsafe-ordering"), 0);
        assert_eq!(d.iter().filter(|x| x.rule == "nan-unsafe-ordering" && x.suppressed).count(), 1);
    }

    // --- truncating-cast -----------------------------------------------

    #[test]
    fn cast_rule_fires_in_gated_crates_only() {
        let src = "fn f(x: usize) -> u32 { x as u32 }";
        assert_eq!(active(&check_file(&lib_info("graph"), src), "truncating-cast"), 1);
        assert_eq!(active(&check_file(&lib_info("trace"), src), "truncating-cast"), 0);
    }

    #[test]
    fn cast_rule_clean_on_widening_and_float() {
        let src = "fn f(x: u32) -> usize { let y = x as u64; let z = x as f64; x as usize }";
        assert_eq!(active(&check_file(&lib_info("graph"), src), "truncating-cast"), 0);
    }

    #[test]
    fn cast_rule_suppressed_same_line() {
        let src = "fn f(n: usize) -> u32 { n as u32 } // linklens-allow(truncating-cast): n <= node count which is u32";
        assert_eq!(active(&check_file(&lib_info("graph"), src), "truncating-cast"), 0);
    }

    // --- unwrap-in-lib -------------------------------------------------

    #[test]
    fn unwrap_rule_fires_on_unwrap_and_expect() {
        let src = "fn f(o: Option<u32>) -> u32 { o.unwrap() + o.expect(\"present\") }";
        let d = check_file(&lib_info("core"), src);
        assert_eq!(active(&d, "unwrap-in-lib"), 2);
    }

    #[test]
    fn unwrap_rule_clean_on_unwrap_or_family_and_tests() {
        let src = "fn f(o: Option<u32>) -> u32 { o.unwrap_or(0) + o.unwrap_or_else(|| 1) + o.unwrap_or_default() }\n#[cfg(test)]\nmod tests { fn t() { None::<u32>.unwrap(); } }";
        let d = check_file(&lib_info("metrics"), src);
        assert_eq!(active(&d, "unwrap-in-lib"), 0);
    }

    #[test]
    fn unwrap_rule_not_scoped_to_other_crates() {
        let src = "fn f(o: Option<u32>) -> u32 { o.unwrap() }";
        assert_eq!(active(&check_file(&lib_info("ml"), src), "unwrap-in-lib"), 0);
    }

    #[test]
    fn unwrap_rule_suppressed_by_allow_line_above() {
        let src = "fn f(o: Option<u32>) -> u32 {\n  // linklens-allow(unwrap-in-lib): slice is non-empty, checked by caller assert\n  o.unwrap()\n}";
        assert_eq!(active(&check_file(&lib_info("graph"), src), "unwrap-in-lib"), 0);
    }

    // --- print-in-lib --------------------------------------------------

    #[test]
    fn print_rule_fires_on_println_family() {
        let src = "fn f() { println!(\"x\"); eprintln!(\"y\"); dbg!(1); }";
        let d = check_file(&lib_info("ml"), src);
        assert_eq!(active(&d, "print-in-lib"), 3);
    }

    #[test]
    fn print_rule_clean_in_bins_and_tests() {
        let src = "fn main() { println!(\"x\"); }";
        let bin = FileInfo {
            path: "src/bin/linklens.rs".into(),
            krate: "linklens".into(),
            kind: FileKind::Bin,
            is_crate_root: false,
            is_shim: false,
        };
        assert_eq!(active(&check_file(&bin, src), "print-in-lib"), 0);
        let src_test = "#[test]\nfn t() { println!(\"x\"); }";
        assert_eq!(active(&check_file(&lib_info("graph"), src_test), "print-in-lib"), 0);
    }

    #[test]
    fn print_rule_clean_when_quoted() {
        let src =
            "fn f() -> &'static str { \"println!(..) is banned here\" } // println! in a comment";
        assert_eq!(active(&check_file(&lib_info("graph"), src), "print-in-lib"), 0);
    }

    #[test]
    fn print_rule_suppressed_by_allow() {
        let src = "fn f() {\n  // linklens-allow(print-in-lib): one-time misconfiguration warning, no return channel\n  eprintln!(\"warning\");\n}";
        assert_eq!(active(&check_file(&lib_info("graph"), src), "print-in-lib"), 0);
    }

    // --- full-trace-materialization ------------------------------------

    #[test]
    fn materialization_rule_fires_on_read_cache_and_read_cache_file() {
        let src = "fn sweep(bytes: &[u8]) -> Score {\n  let g = read_cache(bytes)?;\n  let h = read_cache_file(&path)?;\n  score(&g, &h)\n}";
        let d = check_file(&lib_info("graph"), src);
        assert_eq!(active(&d, "full-trace-materialization"), 2);
        assert_eq!(
            d.iter().find(|x| x.rule == "full-trace-materialization").map(|x| x.line),
            Some(2)
        );
    }

    #[test]
    fn materialization_rule_skips_definitions_and_streaming_reads() {
        let src = "pub fn read_cache(r: R) -> T { parse(r) }\nfn sweep(mut seq: StreamingSequence<R>) { seq.new_edges(0); }";
        assert_eq!(active(&check_file(&lib_info("graph"), src), "full-trace-materialization"), 0);
    }

    #[test]
    fn materialization_rule_suppressed_by_justified_allow() {
        let src = "fn open_small(p: &Path) -> Result<T, E> {\n  // linklens-allow(full-trace-materialization): sanctioned small-trace in-core entry point\n  read_cache(File::open(p)?)\n}";
        let d = check_file(&lib_info("graph"), src);
        assert_eq!(active(&d, "full-trace-materialization"), 0);
        assert_eq!(
            d.iter().filter(|x| x.rule == "full-trace-materialization" && x.suppressed).count(),
            1
        );
    }

    #[test]
    fn materialization_rule_exempt_in_tests_and_non_lib_kinds() {
        let src = "#[cfg(test)]\nmod tests { fn t() { let g = read_cache(&bytes[..]).unwrap(); } }";
        assert_eq!(active(&check_file(&lib_info("graph"), src), "full-trace-materialization"), 0);
        let mut bench = lib_info("bench");
        bench.kind = FileKind::Bench;
        let src_bin = "fn main() { let g = read_cache_file(&path).unwrap(); }";
        assert_eq!(active(&check_file(&bench, src_bin), "full-trace-materialization"), 0);
    }

    // --- missing-forbid-unsafe -----------------------------------------

    #[test]
    fn forbid_rule_fires_on_bare_crate_root() {
        let mut info = lib_info("graph");
        info.is_crate_root = true;
        let d = check_file(&info, "//! Docs only.\npub mod snapshot;");
        assert_eq!(active(&d, "missing-forbid-unsafe"), 1);
    }

    #[test]
    fn forbid_rule_clean_when_present() {
        let mut info = lib_info("graph");
        info.is_crate_root = true;
        let d = check_file(&info, "//! Docs.\n#![forbid(unsafe_code)]\npub mod snapshot;");
        assert_eq!(active(&d, "missing-forbid-unsafe"), 0);
    }

    #[test]
    fn forbid_rule_skips_non_roots() {
        let d = check_file(&lib_info("graph"), "pub fn f() {}");
        assert_eq!(active(&d, "missing-forbid-unsafe"), 0);
    }

    // --- directive auditing --------------------------------------------

    #[test]
    fn bare_allow_raises_unjustified() {
        let src =
            "fn f(o: Option<u32>) -> u32 {\n  // linklens-allow(unwrap-in-lib)\n  o.unwrap()\n}";
        let d = check_file(&lib_info("graph"), src);
        assert_eq!(active(&d, "unjustified-allow"), 1);
        // The suppression itself still applies; only the justification is flagged.
        assert_eq!(active(&d, "unwrap-in-lib"), 0);
    }

    #[test]
    fn unknown_rule_in_allow_is_flagged() {
        let src = "// linklens-allow(no-such-rule): because\nfn f() {}";
        let d = check_file(&lib_info("graph"), src);
        assert_eq!(active(&d, "unknown-rule"), 1);
    }

    #[test]
    fn multi_rule_allow_covers_both() {
        let src = "fn f(n: usize, o: Option<u32>) -> u32 {\n  // linklens-allow(truncating-cast, unwrap-in-lib): n bounded by u32 node ids, option checked above\n  o.unwrap() + n as u32\n}";
        let d = check_file(&lib_info("graph"), src);
        assert_eq!(active(&d, "truncating-cast"), 0);
        assert_eq!(active(&d, "unwrap-in-lib"), 0);
    }

    #[test]
    fn string_and_comment_contents_never_fire_any_rule() {
        let src = concat!(
            "fn f() -> String {\n",
            "  // a.partial_cmp(b).unwrap(); x as u32; println!(\"hi\")\n",
            "  /* o.expect(\"msg\") */\n",
            "  format!(\"{} {}\", \"v.partial_cmp(w).unwrap() as u32\", r#\"eprintln!(\"quoted\")\"#)\n",
            "}\n"
        );
        let d = check_file(&lib_info("graph"), src);
        assert!(d.is_empty(), "{d:?}");
    }
}
