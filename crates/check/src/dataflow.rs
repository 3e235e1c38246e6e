//! Phase 2b: dataflow-aware rules over the deterministic surface.
//!
//! Each rule scans the bodies of functions the call graph proved
//! reachable from a deterministic root ([`crate::callgraph`]). The
//! scanned set is over-approximate; each *diagnostic* still requires a
//! concrete hazard at the site:
//!
//! * `unordered-iteration-in-deterministic-path` — iterating a
//!   `HashMap`/`HashSet` in a way that lets the order escape (into a
//!   `Vec`, a `for` body, an `extend`, serialized output). Iterations
//!   that provably cannot carry order out are exempt: order-free chain
//!   terminals (`count`/`any`/`all`/`contains`/`is_empty`/`len`/
//!   `min`/`max`), `collect` into an unordered or self-ordering
//!   container, and a `collect` into a binding that the very next
//!   statement sorts with a plain `sort`/`sort_unstable`. A keyed sort
//!   (`sort_by`, `sort_by_key`, …) is not exempt: entries whose keys tie
//!   keep the unordered order, so it needs a justified allow that says
//!   why its key cannot tie.
//! * `unordered-float-reduction` — `sum`/`product`/`fold`/`reduce`
//!   folded over such an iteration: float addition is not associative,
//!   so the fold order must be pinned even though the result "looks"
//!   order-free.
//! * `nondeterministic-source-in-deterministic-path` — wall clocks,
//!   OS-entropy RNG seeding, thread identity, pointer-to-usize.
//! * `panic-in-deterministic-path` — `panic!`-family macros that are
//!   neither audit-gated (`audit_enabled` in the enclosing body) nor a
//!   structured-error re-raise (`Err(e) => panic!(..)`).
//! * `unscanned-marker` — a `// linklens-deterministic` marker in a file
//!   outside the analyzer's scope, where nothing would check it.
//! * `blocking-in-query-path` — lock acquisitions, blocking I/O, or
//!   snapshot rebuilds inside the `serve` crate's query handlers (the
//!   functions carrying a `// linklens-deterministic` marker): the
//!   bounded-latency serving contract requires handlers to score against
//!   a version-pinned snapshot with no shared mutable state.

use crate::callgraph::{masked, Surface};
use crate::rules::{ident_at, past_matching_paren, punct_at, Diagnostic};
use crate::symbols::{FnSym, ParsedFile};

const ITER_STARTS: &[&str] =
    &["iter", "iter_mut", "into_iter", "keys", "values", "values_mut", "drain"];
const SAFE_TERMINALS: &[&str] =
    &["count", "any", "all", "contains", "contains_key", "is_empty", "len", "min", "max"];
const FLOAT_REDUCERS: &[&str] = &["sum", "product", "fold", "reduce"];
const ORDERED_DESTS: &[&str] = &["HashMap", "HashSet", "BTreeMap", "BTreeSet"];
const PANICS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Runs every dataflow rule over the deterministic-surface functions of
/// one parsed file.
pub(crate) fn check_file(file: &ParsedFile, surf: &Surface, out: &mut Vec<Diagnostic>) {
    let mut diags = Vec::new();
    for f in &file.fns {
        if f.in_test {
            continue;
        }
        let Some(body) = f.body else { continue };
        // Query handlers in the serve crate are identified by their
        // deterministic-surface marker, not by name-reachability: the
        // marker is the serving contract's signature on the handler.
        if file.info.krate == "serve" && f.marked_deterministic {
            blocking_in_query_path(file, f, body, &mut diags);
        }
        let Some(origin) = surf.origin(&f.name) else { continue };
        unordered_iteration(file, body, origin, &mut diags);
        nondeterministic_source(file, body, origin, &mut diags);
        panic_in_path(file, f, body, origin, &mut diags);
    }
    // The for-loop and method-chain scans can both hit one site; a
    // function can also be reached from several files. One finding per
    // (rule, line) is enough.
    diags.dedup_by(|a, b| a.rule == b.rule && a.line == b.line);
    out.extend(diags);
}

/// One parsed method-chain step: the method name and the index just past
/// its argument list.
fn chain_steps(tokens: &[crate::lexer::Token], mut j: usize) -> Vec<(String, usize)> {
    let mut steps = Vec::new();
    while punct_at(tokens, j, '.') {
        let Some(m) = ident_at(tokens, j + 1) else { break };
        let mut k = j + 2;
        // Turbofish: `collect::<Vec<_>>(…)`.
        if punct_at(tokens, k, ':') && punct_at(tokens, k + 1, ':') && punct_at(tokens, k + 2, '<')
        {
            let mut depth = 0i32;
            k += 2;
            while k < tokens.len() {
                match tokens[k].tok {
                    crate::lexer::Tok::Punct('<') => depth += 1,
                    crate::lexer::Tok::Punct('>') => {
                        depth -= 1;
                        if depth == 0 {
                            k += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
        }
        if !punct_at(tokens, k, '(') {
            // Field access or a method reference — the chain as an
            // *iteration* ends here.
            break;
        }
        let past = past_matching_paren(tokens, k);
        steps.push((m.to_string(), past));
        j = past;
    }
    steps
}

/// Turbofish type arguments of the chain step ending at `past` (tokens
/// between the method name and its `(`), as idents.
fn turbofish_idents(tokens: &[crate::lexer::Token], method_idx: usize, past: usize) -> Vec<&str> {
    let mut out = Vec::new();
    for t in method_idx..past {
        if let Some(s) = ident_at(tokens, t) {
            out.push(s);
        }
    }
    out
}

/// Statement start: index of the token *after* the nearest preceding
/// `;`, `{`, or `}`.
fn stmt_start(tokens: &[crate::lexer::Token], from: usize) -> usize {
    let mut i = from;
    while i > 0 {
        if matches!(
            tokens[i - 1].tok,
            crate::lexer::Tok::Punct(';')
                | crate::lexer::Tok::Punct('{')
                | crate::lexer::Tok::Punct('}')
        ) {
            return i;
        }
        i -= 1;
    }
    0
}

/// Index of the `;` ending the statement containing `from` (scanning
/// forward at bracket depth relative to `from`), or `tokens.len()`.
fn stmt_end(tokens: &[crate::lexer::Token], from: usize) -> usize {
    let mut depth = 0i32;
    let mut i = from;
    while i < tokens.len() {
        match tokens[i].tok {
            crate::lexer::Tok::Punct('(')
            | crate::lexer::Tok::Punct('[')
            | crate::lexer::Tok::Punct('{') => depth += 1,
            crate::lexer::Tok::Punct(')')
            | crate::lexer::Tok::Punct(']')
            | crate::lexer::Tok::Punct('}') => {
                if depth == 0 {
                    return i;
                }
                depth -= 1;
            }
            crate::lexer::Tok::Punct(';') if depth == 0 => return i,
            _ => {}
        }
        i += 1;
    }
    i
}

/// If the statement containing `site` is `let [mut] name [: Ty] = …`,
/// returns `(name, ascription idents)`.
fn let_binding(tokens: &[crate::lexer::Token], site: usize) -> Option<(String, Vec<String>)> {
    let s = stmt_start(tokens, site);
    let mut j = s;
    if ident_at(tokens, j) != Some("let") {
        return None;
    }
    j += 1;
    if ident_at(tokens, j) == Some("mut") {
        j += 1;
    }
    let name = ident_at(tokens, j)?.to_string();
    let mut ty = Vec::new();
    if punct_at(tokens, j + 1, ':') {
        let mut k = j + 2;
        while k < tokens.len() && !punct_at(tokens, k, '=') && !punct_at(tokens, k, ';') {
            if let Some(s) = ident_at(tokens, k) {
                ty.push(s.to_string());
            }
            k += 1;
        }
    }
    Some((name, ty))
}

/// True when the statement directly after `end` (a `;`) starts with
/// `name.sort(` or `name.sort_unstable(` — the collect-then-sort idiom
/// that pins the order before anything downstream can observe it. Only a
/// sort on the whole element pins it: a keyed sort leaves entries whose
/// keys tie in the order the unordered iteration produced.
fn next_stmt_sorts(tokens: &[crate::lexer::Token], end: usize, name: &str) -> bool {
    ident_at(tokens, end + 1) == Some(name)
        && punct_at(tokens, end + 2, '.')
        && ident_at(tokens, end + 3).is_some_and(|m| m == "sort" || m == "sort_unstable")
}

fn unordered_iteration(
    file: &ParsedFile,
    body: (usize, usize),
    origin: &str,
    out: &mut Vec<Diagnostic>,
) {
    let tokens = &file.lexed.tokens;
    let (open, end) = body;
    for i in open..end.min(tokens.len()) {
        if masked(file, i) {
            continue;
        }
        let Some(name) = ident_at(tokens, i) else { continue };

        // `for pat in <unordered>` — the loop body observes the order
        // directly, no chain analysis needed.
        if name == "for" {
            let mut j = i + 1;
            while j < end && ident_at(tokens, j) != Some("in") {
                j += 1;
            }
            let mut k = j + 1;
            while punct_at(tokens, k, '&') || ident_at(tokens, k) == Some("mut") {
                k += 1;
            }
            if let Some(recv) = ident_at(tokens, k) {
                if file.is_unordered(recv) {
                    out.push(Diagnostic::new(
                        "unordered-iteration-in-deterministic-path",
                        &file.info.path,
                        tokens[k].line,
                        format!(
                            "`for … in {recv}` iterates a HashMap/HashSet on the deterministic \
                             surface (via {origin}); use a BTreeMap/BTreeSet or iterate a sorted \
                             Vec instead"
                        ),
                    ));
                }
            }
            continue;
        }

        // `<unordered>.iter()…` method chains.
        if !file.is_unordered(name) || !punct_at(tokens, i + 1, '.') {
            continue;
        }
        let steps = chain_steps(tokens, i + 1);
        if !steps.iter().any(|(m, _)| ITER_STARTS.contains(&m.as_str())) {
            continue; // get/insert/len/… — not an iteration
        }
        let line = tokens[i].line;
        // A float (or otherwise order-sensitive) reduction anywhere in
        // the chain dominates: the fold order is the hazard.
        if let Some((m, _)) = steps.iter().find(|(m, _)| FLOAT_REDUCERS.contains(&m.as_str())) {
            out.push(Diagnostic::new(
                "unordered-float-reduction",
                &file.info.path,
                line,
                format!(
                    "`.{m}()` folds over `{name}` in HashMap/HashSet iteration order on the \
                     deterministic surface (via {origin}); collect and sort first, or keep the \
                     data in an ordered container"
                ),
            ));
            continue;
        }
        let (last, last_past) = steps.last().map(|(m, p)| (m.as_str(), *p)).unwrap_or(("", i));
        if SAFE_TERMINALS.contains(&last) {
            continue; // order cannot escape a count/any/all/…
        }
        if last == "collect" {
            // Destination named in the turbofish?
            let step_start = steps.len().checked_sub(2).map_or(i + 1, |k| steps[k].1);
            let tf = turbofish_idents(tokens, step_start, last_past);
            if tf.iter().any(|t| ORDERED_DESTS.contains(t)) {
                continue; // into an unordered or self-ordering container
            }
            // Destination named in the let ascription, or sorted by the
            // next statement?
            if let Some((bind, ty)) = let_binding(tokens, i) {
                if ty.iter().any(|t| ORDERED_DESTS.contains(&t.as_str())) {
                    continue;
                }
                let send = stmt_end(tokens, last_past);
                if next_stmt_sorts(tokens, send, &bind) {
                    continue; // collect-then-sort pins the order
                }
            }
        }
        out.push(Diagnostic::new(
            "unordered-iteration-in-deterministic-path",
            &file.info.path,
            line,
            format!(
                "iteration order of `{name}` (HashMap/HashSet) escapes on the deterministic \
                 surface (via {origin}); collect into an ordered container, sort the collected \
                 Vec in the next statement, or end the chain in an order-free terminal"
            ),
        ));
    }
}

/// Flags every `// linklens-deterministic` marker of a file the dataflow
/// rules do not scan: the marker would otherwise be silently ignored.
pub(crate) fn unscanned_markers(file: &ParsedFile, out: &mut Vec<Diagnostic>) {
    for line in crate::symbols::marker_lines(&file.lexed) {
        out.push(Diagnostic::new(
            "unscanned-marker",
            &file.info.path,
            line,
            format!(
                "`linklens-deterministic` marker in `{}`, which the determinism analysis does not \
                 scan; nothing checks what it marks",
                file.info.path
            ),
        ));
    }
}

fn nondeterministic_source(
    file: &ParsedFile,
    body: (usize, usize),
    origin: &str,
    out: &mut Vec<Diagnostic>,
) {
    let tokens = &file.lexed.tokens;
    let (open, end) = body;
    let path2 = |i: usize, a: &str, b: &str| {
        ident_at(tokens, i) == Some(a)
            && punct_at(tokens, i + 1, ':')
            && punct_at(tokens, i + 2, ':')
            && ident_at(tokens, i + 3) == Some(b)
    };
    for i in open..end.min(tokens.len()) {
        if masked(file, i) {
            continue;
        }
        let hit: Option<&str> = if path2(i, "Instant", "now") {
            Some("Instant::now")
        } else if path2(i, "SystemTime", "now") {
            Some("SystemTime::now")
        } else if ident_at(tokens, i) == Some("UNIX_EPOCH") {
            Some("UNIX_EPOCH")
        } else if ident_at(tokens, i) == Some("thread_rng") && punct_at(tokens, i + 1, '(') {
            Some("thread_rng()")
        } else if ident_at(tokens, i) == Some("from_entropy") && punct_at(tokens, i + 1, '(') {
            Some("from_entropy()")
        } else if path2(i, "thread", "current") {
            Some("thread::current")
        } else if ident_at(tokens, i) == Some("as_ptr")
            && punct_at(tokens, i + 1, '(')
            && (i + 2..stmt_end(tokens, i)).any(|k| {
                ident_at(tokens, k) == Some("as") && ident_at(tokens, k + 1) == Some("usize")
            })
        {
            Some("pointer-to-usize cast")
        } else {
            None
        };
        if let Some(src) = hit {
            out.push(Diagnostic::new(
                "nondeterministic-source-in-deterministic-path",
                &file.info.path,
                tokens[i].line,
                format!(
                    "{src} on the deterministic surface (via {origin}); inject seeds/clocks from \
                     the caller so reruns are bit-identical"
                ),
            ));
        }
    }
}

fn panic_in_path(
    file: &ParsedFile,
    f: &FnSym,
    body: (usize, usize),
    origin: &str,
    out: &mut Vec<Diagnostic>,
) {
    let tokens = &file.lexed.tokens;
    let (open, end) = body;
    // Audit-gated functions may panic: that is the sanctioned
    // InvariantViolation surface from the runtime audit layer.
    let audit_gated =
        (open..end.min(tokens.len())).any(|i| ident_at(tokens, i) == Some("audit_enabled"));
    if audit_gated {
        return;
    }
    for i in open..end.min(tokens.len()) {
        if masked(file, i) {
            continue;
        }
        let Some(name) = ident_at(tokens, i) else { continue };
        if !PANICS.contains(&name) || !punct_at(tokens, i + 1, '!') {
            continue;
        }
        // `Err(e) => panic!(..)` (with or without a block) re-raises a
        // structured error class — sanctioned.
        let mut k = i;
        if k > 0 && punct_at(tokens, k - 1, '{') {
            k -= 1;
        }
        let err_rearm = k >= 6
            && punct_at(tokens, k - 1, '>')
            && punct_at(tokens, k - 2, '=')
            && punct_at(tokens, k - 3, ')')
            && ident_at(tokens, k - 4).is_some()
            && punct_at(tokens, k - 5, '(')
            && ident_at(tokens, k - 6) == Some("Err");
        if err_rearm {
            continue;
        }
        out.push(Diagnostic::new(
            "panic-in-deterministic-path",
            &file.info.path,
            tokens[i].line,
            format!(
                "`{name}!` in `{}` on the deterministic surface (via {origin}) is neither \
                 audit-gated nor an Err re-raise; restructure so the state is unrepresentable \
                 or return a structured error",
                f.name
            ),
        ));
    }
}

/// Hazard classes for `blocking-in-query-path`. Method calls that acquire
/// or could block (`.lock()`, `.read()`, `.write()` cover both Mutex/
/// RwLock acquisition and blocking io::Read/Write), bare constructors of
/// lock types, blocking I/O entry points, output macros, and the offline
/// snapshot-rebuild surface.
const LOCK_METHODS: &[&str] = &["lock", "try_lock", "read", "write"];
const LOCK_TYPES: &[&str] = &["Mutex", "RwLock", "Condvar"];
const IO_CALLS: &[&str] = &["stdin", "stdout", "stderr", "read_to_string", "read_line", "flush"];
const IO_TYPES: &[&str] = &["File"];
const IO_MACROS: &[&str] = &["println", "eprintln", "print", "eprint", "write", "writeln", "dbg"];
const REBUILDS: &[&str] = &["SnapshotBuilder", "from_edges", "advance_to", "load_full", "publish"];

fn blocking_in_query_path(
    file: &ParsedFile,
    f: &FnSym,
    body: (usize, usize),
    out: &mut Vec<Diagnostic>,
) {
    let tokens = &file.lexed.tokens;
    let (open, end) = body;
    for i in open..end.min(tokens.len()) {
        if masked(file, i) {
            continue;
        }
        let Some(name) = ident_at(tokens, i) else { continue };
        let hazard: Option<(&str, String)> = if punct_at(tokens, i + 1, '!') {
            IO_MACROS.contains(&name).then(|| ("I/O", format!("`{name}!` writes to the console")))
        } else if i > 0 && punct_at(tokens, i - 1, '.') && punct_at(tokens, i + 1, '(') {
            if LOCK_METHODS.contains(&name) {
                Some((
                    "a lock acquisition (or blocking read/write)",
                    format!("`.{name}()` can block the handler behind ingest"),
                ))
            } else if IO_CALLS.contains(&name) {
                Some(("I/O", format!("`.{name}()` blocks on I/O")))
            } else if REBUILDS.contains(&name) {
                Some((
                    "a snapshot rebuild",
                    format!("`.{name}()` rebuilds state the versioned swap already provides"),
                ))
            } else {
                None
            }
        } else if LOCK_TYPES.contains(&name) {
            Some(("a lock acquisition", format!("`{name}` state inside the handler")))
        } else if IO_TYPES.contains(&name) || IO_CALLS.contains(&name) {
            Some(("I/O", format!("`{name}` blocks on I/O")))
        } else if (REBUILDS.contains(&name) && punct_at(tokens, i + 1, '('))
            || name == "SnapshotBuilder"
        {
            Some((
                "a snapshot rebuild",
                format!("`{name}` rebuilds state the versioned swap already provides"),
            ))
        } else {
            None
        };
        if let Some((class, detail)) = hazard {
            out.push(Diagnostic::new(
                "blocking-in-query-path",
                &file.info.path,
                tokens[i].line,
                format!(
                    "{detail}: {class} inside serve query handler `{}`; handlers must score \
                     against the version-pinned snapshot with no locks, I/O, or rebuilds \
                     (or justify with linklens-allow)",
                    f.name
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::surface;
    use crate::symbols::parse_file;
    use crate::workspace::{FileInfo, FileKind};

    fn info() -> FileInfo {
        FileInfo {
            path: "crates/metrics/src/fixture.rs".into(),
            krate: "metrics".into(),
            kind: FileKind::Lib,
            is_crate_root: false,
            is_shim: false,
        }
    }

    fn run(src: &str) -> Vec<Diagnostic> {
        let p = parse_file(&info(), src);
        let s = surface(std::slice::from_ref(&p));
        let mut out = Vec::new();
        check_file(&p, &s, &mut out);
        out
    }

    fn count(diags: &[Diagnostic], rule: &str) -> usize {
        diags.iter().filter(|d| d.rule == rule).count()
    }

    #[test]
    fn unordered_collect_into_vec_fires() {
        let d = run(
            "fn score_pairs(set: &HashSet<u32>) -> Vec<u32> {\n  let picked: Vec<u32> = set.iter().copied().collect();\n  picked\n}",
        );
        assert_eq!(count(&d, "unordered-iteration-in-deterministic-path"), 1);
    }

    #[test]
    fn collect_then_sort_is_exempt() {
        let d = run(
            "fn score_pairs(set: &HashSet<u32>) -> Vec<u32> {\n  let mut picked: Vec<u32> = set.iter().copied().collect();\n  picked.sort_unstable();\n  picked\n}",
        );
        assert_eq!(count(&d, "unordered-iteration-in-deterministic-path"), 0);
    }

    #[test]
    fn only_a_plain_sort_exempts_the_collect() {
        let keyed = run(
            "fn score_pairs(m: &HashMap<u32, usize>) -> Vec<u32> {\n  let mut by: Vec<u32> = m.keys().copied().collect();\n  by.sort_unstable_by_key(|u| m[u]);\n  by\n}",
        );
        assert_eq!(count(&keyed, "unordered-iteration-in-deterministic-path"), 1);
        let plain = run(
            "fn score_pairs(m: &HashMap<u32, usize>) -> Vec<u32> {\n  let mut by: Vec<u32> = m.keys().copied().collect();\n  by.sort();\n  by\n}",
        );
        assert_eq!(count(&plain, "unordered-iteration-in-deterministic-path"), 0);
    }

    #[test]
    fn collect_into_ordering_container_and_safe_terminals_exempt() {
        let d = run(
            "fn score_pairs(set: &HashSet<u32>, m: &HashMap<u32, u32>) -> usize {\n  let b: BTreeSet<u32> = set.iter().copied().collect();\n  let c = m.keys().copied().collect::<BTreeSet<u32>>();\n  set.iter().filter(|x| **x > 2).count() + m.values().len()\n}",
        );
        assert_eq!(count(&d, "unordered-iteration-in-deterministic-path"), 0);
    }

    #[test]
    fn for_loop_over_unordered_fires() {
        let d = run(
            "fn score_pairs(m: &HashMap<u32, f64>) {\n  for (k, v) in m {\n    emit(k, v);\n  }\n}\nfn emit(k: &u32, v: &f64) {}",
        );
        assert_eq!(count(&d, "unordered-iteration-in-deterministic-path"), 1);
    }

    #[test]
    fn extend_from_unordered_fires() {
        let d = run(
            "fn score_pairs(set: &HashSet<u32>, out: &mut Vec<u32>) {\n  out.extend(set.iter().copied());\n}",
        );
        assert_eq!(count(&d, "unordered-iteration-in-deterministic-path"), 1);
    }

    #[test]
    fn float_reduction_over_unordered_fires_as_its_own_rule() {
        let d = run(
            "fn score_pairs(w: &HashMap<u32, f64>) -> f64 {\n  let t: f64 = w.values().sum();\n  t\n}",
        );
        assert_eq!(count(&d, "unordered-float-reduction"), 1);
        assert_eq!(count(&d, "unordered-iteration-in-deterministic-path"), 0);
    }

    #[test]
    fn rules_only_apply_on_the_surface() {
        // Same hazards in a non-root, unreached function: nothing fires.
        let d = run(
            "fn helper(set: &HashSet<u32>) -> Vec<u32> {\n  let v: Vec<u32> = set.iter().copied().collect();\n  v\n}",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn reachability_pulls_callees_onto_the_surface() {
        let d = run(
            "fn score_pairs(set: &HashSet<u32>) -> Vec<u32> { helper(set) }\nfn helper(set: &HashSet<u32>) -> Vec<u32> {\n  let v: Vec<u32> = set.iter().copied().collect();\n  v\n}",
        );
        assert_eq!(count(&d, "unordered-iteration-in-deterministic-path"), 1);
    }

    #[test]
    fn nondeterministic_sources_fire() {
        let d = run(
            "fn score_pairs() {\n  let t = Instant::now();\n  let mut rng = StdRng::from_entropy();\n  let id = thread::current();\n}",
        );
        assert_eq!(count(&d, "nondeterministic-source-in-deterministic-path"), 3);
    }

    #[test]
    fn pointer_to_usize_fires_only_when_cast() {
        let d = run(
            "fn score_pairs(v: &[u32]) {\n  let addr = v.as_ptr() as usize;\n  let p = v.as_ptr();\n}",
        );
        assert_eq!(count(&d, "nondeterministic-source-in-deterministic-path"), 1);
    }

    #[test]
    fn bare_panic_fires_but_gated_and_err_rearm_do_not() {
        let d = run(
            "fn score_pairs(x: u32) {\n  match f(x) {\n    Ok(v) => v,\n    Err(e) => panic!(\"{e}\"),\n  };\n  if x > 3 { unreachable!(\"bad\") }\n}\nfn predict_audit(x: u32) {\n  if audit_enabled() { panic!(\"invariant\") }\n}\nfn f(x: u32) -> Result<u32, u32> { Ok(x) }",
        );
        assert_eq!(count(&d, "panic-in-deterministic-path"), 1);
    }

    // --- blocking-in-query-path ----------------------------------------

    fn serve_info() -> FileInfo {
        FileInfo {
            path: "crates/serve/src/query.rs".into(),
            krate: "serve".into(),
            kind: FileKind::Lib,
            is_crate_root: false,
            is_shim: false,
        }
    }

    fn run_serve(src: &str) -> Vec<Diagnostic> {
        let p = parse_file(&serve_info(), src);
        let s = surface(std::slice::from_ref(&p));
        let mut out = Vec::new();
        check_file(&p, &s, &mut out);
        out
    }

    #[test]
    fn lock_held_scoring_in_marked_handler_fires() {
        let d = run_serve(
            "// linklens-deterministic: serving parity handler\npub fn answer_query(&self) -> Vec<f64> {\n  let live = self.live.lock().unwrap();\n  score(&live)\n}\nfn score(s: &S) -> Vec<f64> { vec![] }",
        );
        assert_eq!(count(&d, "blocking-in-query-path"), 1);
        assert_eq!(d.iter().find(|x| x.rule == "blocking-in-query-path").map(|x| x.line), Some(3));
    }

    #[test]
    fn io_and_rebuilds_in_marked_handler_fire() {
        let d = run_serve(
            "// linklens-deterministic: handler\npub fn answer_query(path: &Path) -> Vec<f64> {\n  println!(\"query\");\n  let raw = std::fs::read_to_string(path);\n  let snap = SnapshotBuilder::new(&trace).advance_to(7);\n  vec![]\n}",
        );
        // println! + read_to_string + the rebuild line (SnapshotBuilder
        // and .advance_to() share a line, so they dedup to one finding).
        assert_eq!(count(&d, "blocking-in-query-path"), 3);
    }

    #[test]
    fn unmarked_serve_fns_and_other_crates_are_exempt() {
        // Same hazards outside a marked handler: ingest/publish paths may
        // lock and rebuild freely.
        let d = run_serve(
            "pub fn publish(&self) -> u64 {\n  let mut live = self.live.lock().unwrap();\n  live.version()\n}",
        );
        assert_eq!(count(&d, "blocking-in-query-path"), 0);
        // A marked fn in a non-serve crate is deterministic-surface but
        // not a query handler.
        let p = parse_file(
            &info(),
            "// linklens-deterministic: kernel order\nfn score_seed(&self) { self.state.lock(); }",
        );
        let s = surface(std::slice::from_ref(&p));
        let mut out = Vec::new();
        check_file(&p, &s, &mut out);
        assert_eq!(count(&out, "blocking-in-query-path"), 0);
    }

    #[test]
    fn clean_handler_and_justified_allow_pass() {
        let d = run_serve(
            "// linklens-deterministic: serving parity handler\npub fn candidate_targets(snap: &Snapshot, source: u32) -> Vec<(u32, u32)> {\n  let mut out = Vec::new();\n  for v in snap.neighbors(source) { out.push((source, v)); }\n  out\n}",
        );
        assert_eq!(count(&d, "blocking-in-query-path"), 0);
        // Suppression travels through the shared allow machinery; check
        // via the full single-file path in rules::check_file equivalent:
        // here we only assert the raw finding exists for the suppressor
        // test in rules.rs fixtures.
    }

    #[test]
    fn test_code_inside_serve_handlers_is_exempt() {
        let d = run_serve(
            "#[cfg(test)]\nmod tests {\n  // linklens-deterministic: fixture\n  fn answer_query() { println!(\"x\"); }\n}",
        );
        assert_eq!(count(&d, "blocking-in-query-path"), 0);
    }

    #[test]
    fn test_code_inside_surface_files_is_exempt() {
        let d = run(
            "fn score_pairs(set: &HashSet<u32>) -> usize { set.len() }\n#[cfg(test)]\nmod tests {\n  fn score_helper(set: &HashSet<u32>) -> Vec<u32> { set.iter().copied().collect() }\n}",
        );
        assert!(d.is_empty(), "{d:?}");
    }
}
