//! Phase 1 of the workspace analysis: every file parsed once into a
//! symbol index — `fn` items with their body spans, visibility and
//! enclosing `impl` or `trait` context, `// linklens-deterministic`
//! markers, and the per-file set of bindings whose type is an unordered
//! `HashMap`/`HashSet`.
//!
//! Everything here is an over-approximation built on the token stream
//! from [`crate::lexer`]; there is deliberately no `syn` and no real type
//! inference. The dataflow rules in [`crate::dataflow`] are written so
//! that over-approximation widens the *scanned* set (more functions
//! considered deterministic-surface, more bindings considered unordered)
//! but a diagnostic still requires a concrete hazard pattern at the site.

use crate::lexer::{self, Lexed, Token};
use crate::rules::{ident_at, past_matching_brace, punct_at};
use crate::workspace::FileInfo;

/// One `fn` item.
#[derive(Debug)]
pub(crate) struct FnSym {
    pub(crate) name: String,
    /// Line of the `fn` keyword.
    pub(crate) line: u32,
    /// Declared plain `pub` (not `pub(crate)`, `pub(super)`, …).
    pub(crate) is_pub: bool,
    /// A method of a `trait` block or of an `impl Trait for Type` block:
    /// the trait calls it, so no call site need name it.
    pub(crate) trait_method: bool,
    /// Self type of the enclosing `impl` block, if any (`impl Foo`,
    /// `impl Trait for Foo` → `Foo`).
    pub(crate) impl_ctx: Option<String>,
    /// Token range of the body: `(open_brace, past_close_brace)`.
    /// `None` for bodyless trait declarations.
    pub(crate) body: Option<(usize, usize)>,
    /// Preceded by a `// linklens-deterministic` marker comment.
    pub(crate) marked_deterministic: bool,
    /// Inside a `#[test]` / `#[cfg(test)]` item.
    pub(crate) in_test: bool,
}

/// One binding (or struct field) whose ascribed or constructed type is an
/// unordered `std` hash container.
#[derive(Debug)]
pub(crate) struct UnorderedBinding {
    pub(crate) name: String,
}

/// A file after phase-1 parsing.
#[derive(Debug)]
pub(crate) struct ParsedFile {
    pub(crate) info: FileInfo,
    pub(crate) lexed: Lexed,
    pub(crate) mask: Vec<bool>,
    pub(crate) fns: Vec<FnSym>,
    /// Names whose type somewhere in this file is `HashMap`/`HashSet`.
    /// File-scoped on purpose: a struct field declared unordered makes
    /// every same-named receiver in this file suspect.
    pub(crate) unordered: Vec<UnorderedBinding>,
}

impl ParsedFile {
    pub(crate) fn is_unordered(&self, name: &str) -> bool {
        self.unordered.iter().any(|u| u.name == name)
    }
}

const UNORDERED_TYPES: &[&str] = &["HashMap", "HashSet"];

/// How many lines above a `fn` a `// linklens-deterministic` marker may
/// sit (room for one attribute line between marker and item).
const MARKER_REACH: u32 = 2;

pub(crate) fn parse_file(info: &FileInfo, src: &str) -> ParsedFile {
    let lexed = lexer::lex(src);
    let mask = lexer::test_mask(&lexed.tokens);
    let fns = collect_fns(&lexed, &mask);
    let unordered = collect_unordered(&lexed.tokens);
    ParsedFile { info: info.clone(), lexed, mask, fns, unordered }
}

/// Marker lines: every comment that *is* a `linklens-deterministic`
/// directive (must start the comment, like `linklens-allow`).
pub(crate) fn marker_lines(lexed: &Lexed) -> Vec<u32> {
    lexed
        .comments
        .iter()
        .filter(|c| {
            c.text.trim_start_matches(['/', '!']).trim_start().starts_with("linklens-deterministic")
        })
        .map(|c| c.end_line)
        .collect()
}

fn collect_fns(lexed: &Lexed, mask: &[bool]) -> Vec<FnSym> {
    let tokens = &lexed.tokens;
    let markers = marker_lines(lexed);
    // Enclosing-impl context: token ranges of impl bodies with their self
    // type name. Nested impls don't occur in this workspace; a stack is
    // still kept so they'd resolve to the innermost.
    let impls = collect_impls(tokens);
    let impl_at = |i: usize| impls.iter().rfind(|b| b.open <= i && i < b.end);
    let traits = collect_trait_bodies(tokens);

    let mut fns = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if ident_at(tokens, i) != Some("fn") {
            i += 1;
            continue;
        }
        let Some(name) = ident_at(tokens, i + 1) else {
            i += 1;
            continue;
        };
        let fn_line = tokens[i].line;
        // Find the body `{`, or `;` for a bodyless trait declaration.
        let mut j = i + 2;
        let mut body = None;
        while j < tokens.len() {
            match tokens[j].tok {
                lexer::Tok::Punct('{') => {
                    body = Some((j, past_matching_brace(tokens, j)));
                    break;
                }
                lexer::Tok::Punct(';') => break,
                _ => {}
            }
            j += 1;
        }
        let marked = markers.iter().any(|&m| m <= fn_line && fn_line - m <= MARKER_REACH);
        let in_impl = impl_at(i);
        let in_trait = traits.iter().any(|&(open, end)| open <= i && i < end);
        fns.push(FnSym {
            name: name.to_string(),
            line: fn_line,
            is_pub: plain_pub_before(tokens, i),
            trait_method: in_trait || in_impl.is_some_and(|b| b.of_trait),
            impl_ctx: in_impl.map(|b| b.self_ty.clone()),
            body,
            marked_deterministic: marked,
            in_test: mask.get(i).copied().unwrap_or(false),
        });
        i = match body {
            Some((_, end)) => end,
            None => j + 1,
        };
    }
    fns
}

/// Whether the `fn` keyword at `i` is declared plain `pub`: the token
/// before it, past any `const` / `async` / `unsafe` / `extern "ABI"`
/// qualifiers, is `pub` itself (`pub(crate) fn` ends in `)` there).
fn plain_pub_before(tokens: &[Token], i: usize) -> bool {
    let mut k = i;
    while k > 0 {
        k -= 1;
        let qualifier =
            matches!(ident_at(tokens, k), Some("const" | "async" | "unsafe" | "extern"))
                || matches!(tokens[k].tok, lexer::Tok::Str);
        if !qualifier {
            return ident_at(tokens, k) == Some("pub");
        }
    }
    false
}

/// One `impl` block: its body's token range, its self type, and whether
/// it implements a trait (`impl Trait for Type`).
struct ImplBlock {
    open: usize,
    end: usize,
    self_ty: String,
    of_trait: bool,
}

/// `(body_open, body_end)` of every `trait` block.
fn collect_trait_bodies(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if ident_at(tokens, i) != Some("trait") || ident_at(tokens, i + 1).is_none() {
            continue;
        }
        let mut j = i + 2;
        while j < tokens.len() && !punct_at(tokens, j, '{') && !punct_at(tokens, j, ';') {
            j += 1;
        }
        if punct_at(tokens, j, '{') {
            out.push((j, past_matching_brace(tokens, j)));
        }
    }
    out
}

/// Every `impl` block, in source order.
fn collect_impls(tokens: &[Token]) -> Vec<ImplBlock> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if ident_at(tokens, i) != Some("impl") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        // Skip the generic parameter list, if any.
        if punct_at(tokens, j, '<') {
            let mut depth = 0i32;
            while j < tokens.len() {
                match tokens[j].tok {
                    lexer::Tok::Punct('<') => depth += 1,
                    lexer::Tok::Punct('>') => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        // Scan to the body `{`; remember the first ident after `impl` and
        // the first ident after `for` — `impl Trait for Type` names the
        // self type after `for`, plain `impl Type` right away.
        let mut first_ident: Option<String> = None;
        let mut for_ident: Option<String> = None;
        let mut saw_for = false;
        let mut open = None;
        while j < tokens.len() {
            match &tokens[j].tok {
                lexer::Tok::Punct('{') => {
                    open = Some(j);
                    break;
                }
                lexer::Tok::Punct(';') => break,
                lexer::Tok::Ident(s) if s == "for" => saw_for = true,
                lexer::Tok::Ident(s) if s == "where" => {}
                lexer::Tok::Ident(s) => {
                    if saw_for {
                        if for_ident.is_none() {
                            for_ident = Some(s.clone());
                        }
                    } else if first_ident.is_none() {
                        first_ident = Some(s.clone());
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let Some(open) = open else {
            i = j + 1;
            continue;
        };
        let end = past_matching_brace(tokens, open);
        let of_trait = for_ident.is_some();
        if let Some(self_ty) = for_ident.or(first_ident) {
            out.push(ImplBlock { open, end, self_ty, of_trait });
        }
        i = open + 1; // descend into the body so nothing inside is skipped
    }
    out
}

/// Names bound (or ascribed, including struct fields and fn parameters)
/// to a `HashMap`/`HashSet` anywhere in the file.
fn collect_unordered(tokens: &[Token]) -> Vec<UnorderedBinding> {
    let mut out: Vec<UnorderedBinding> = Vec::new();
    let mut push = |name: &str| {
        if !out.iter().any(|u| u.name == name) {
            out.push(UnorderedBinding { name: name.to_string() });
        }
    };

    for i in 0..tokens.len() {
        // Pattern 1: type ascription `name : [&] [mut] [path ::] Hash{Map,Set}`.
        if punct_at(tokens, i, ':')
            && !punct_at(tokens, i + 1, ':')
            && i > 0
            && !punct_at(tokens, i - 1, ':')
        {
            let Some(name) = ident_at(tokens, i - 1) else { continue };
            let mut j = i + 1;
            // Skip reference/mut/path prefixes: `&`, `mut`, `std`, `::`,
            // `collections`.
            let mut hops = 0;
            while hops < 10 {
                if punct_at(tokens, j, '&')
                    || punct_at(tokens, j, ':')
                    || matches!(ident_at(tokens, j), Some("mut" | "std" | "collections"))
                {
                    j += 1;
                } else {
                    break;
                }
                hops += 1;
            }
            if ident_at(tokens, j).is_some_and(|t| UNORDERED_TYPES.contains(&t)) {
                push(name);
            }
        }
        // Pattern 2: `let [mut] name = … Hash{Map,Set} :: …` within one
        // statement (covers `HashMap::new()`, `HashSet::with_capacity(..)`,
        // and `HashMap::from(..)`).
        if ident_at(tokens, i) == Some("let") {
            let mut j = i + 1;
            if ident_at(tokens, j) == Some("mut") {
                j += 1;
            }
            let Some(name) = ident_at(tokens, j) else { continue };
            if !punct_at(tokens, j + 1, '=') || punct_at(tokens, j + 2, '=') {
                continue; // ascriptions handled above; `==` is not a binding
            }
            let mut k = j + 2;
            while k < tokens.len() && !punct_at(tokens, k, ';') {
                if ident_at(tokens, k).is_some_and(|t| UNORDERED_TYPES.contains(&t))
                    && punct_at(tokens, k + 1, ':')
                    && punct_at(tokens, k + 2, ':')
                {
                    push(name);
                    break;
                }
                k += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::FileKind;

    fn info() -> FileInfo {
        FileInfo {
            path: "crates/metrics/src/fixture.rs".into(),
            krate: "metrics".into(),
            kind: FileKind::Lib,
            is_crate_root: false,
            is_shim: false,
        }
    }

    #[test]
    fn fns_capture_name_body_and_impl_context() {
        let src = "impl Metric for Katz {\n  fn score_pairs(&self) -> Vec<f64> { vec![] }\n}\nfn helper() {}\ntrait T { fn decl(&self); }";
        let p = parse_file(&info(), src);
        let names: Vec<_> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["score_pairs", "helper", "decl"]);
        assert_eq!(p.fns[0].impl_ctx.as_deref(), Some("Katz"));
        assert!(p.fns[0].body.is_some());
        assert_eq!(p.fns[1].impl_ctx, None);
        assert!(p.fns[2].body.is_none());
    }

    #[test]
    fn plain_impl_names_self_type_directly() {
        let src = "impl SnapshotBuilder {\n  fn advance_to(&mut self, t: u32) {}\n}";
        let p = parse_file(&info(), src);
        assert_eq!(p.fns[0].impl_ctx.as_deref(), Some("SnapshotBuilder"));
    }

    #[test]
    fn generic_impls_resolve_past_the_parameter_list() {
        let src = "impl<T: Clone> Wrapper<T> {\n  fn get(&self) -> &T { &self.0 }\n}";
        let p = parse_file(&info(), src);
        assert_eq!(p.fns[0].impl_ctx.as_deref(), Some("Wrapper"));
    }

    #[test]
    fn deterministic_marker_reaches_over_an_attribute() {
        let src = "// linklens-deterministic: feeds classifier training order\n#[inline]\nfn prepare_seeds() {}\n\nfn unmarked() {}";
        let p = parse_file(&info(), src);
        assert!(p.fns[0].marked_deterministic);
        assert!(!p.fns[1].marked_deterministic);
    }

    #[test]
    fn test_fns_are_flagged() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n  fn helper() {}\n}";
        let p = parse_file(&info(), src);
        assert!(!p.fns[0].in_test);
        assert!(p.fns[1].in_test);
    }

    #[test]
    fn unordered_bindings_from_ascription_constructor_and_fields() {
        let src = "struct Cache { ppr_prev: HashMap<u32, Vec<f64>> }\nfn f(ids: &mut std::collections::HashMap<u64, u32>) {\n  let mut seen = HashSet::new();\n  let seen2 = std::collections::HashSet::with_capacity(4);\n  let ordered = BTreeMap::new();\n  let n = seen.len();\n}";
        let p = parse_file(&info(), src);
        assert!(p.is_unordered("ppr_prev"));
        assert!(p.is_unordered("ids"));
        assert!(p.is_unordered("seen"));
        assert!(p.is_unordered("seen2"));
        assert!(!p.is_unordered("ordered"));
        assert!(!p.is_unordered("n"));
    }
}
