//! `linklens-check` — the workspace lint pass.
//!
//! ```text
//! linklens-check [ROOT]
//! linklens-check --explain RULE
//! ```
//!
//! Checks every `.rs` file under ROOT (default: the workspace root this
//! binary was built from, else the current directory) with the two-phase
//! analysis in [`linklens_check`] and prints one `path:line: [rule]
//! message` line per active violation, then a closing tally. Exits 0 when
//! clean, 1 on any active violation, 2 on usage or I/O errors.
//!
//! `--explain RULE` prints the rule's contract, rationale, and a fix
//! example from the same table the checker enforces.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::exit;

const USAGE: &str = "usage: linklens-check [ROOT]\n\
                     \x20      linklens-check --explain RULE";

fn main() {
    let mut explain: Option<String> = None;
    let mut positional: Vec<String> = Vec::new();

    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--explain" => match it.next() {
                Some(rule) => explain = Some(rule),
                None => {
                    eprintln!("--explain needs a value\n{USAGE}");
                    exit(2);
                }
            },
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other}\n{USAGE}");
                exit(2);
            }
            _ => positional.push(arg),
        }
    }

    if let Some(rule) = explain {
        exit(run_explain(&rule));
    }

    if positional.len() > 1 {
        eprintln!("at most one ROOT argument\n{USAGE}");
        exit(2);
    }

    let root = positional.first().map_or_else(default_root, PathBuf::from);
    let run = match linklens_check::check_workspace(&root) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("linklens-check: cannot scan {}: {e}", root.display());
            exit(2);
        }
    };
    print!("{}", linklens_check::report::render_text(&run));
    exit(i32::from(run.has_violations()));
}

/// `--explain RULE`, straight from the rule table the checker enforces.
fn run_explain(rule: &str) -> i32 {
    match linklens_check::rules::spec(rule) {
        Some(r) => {
            println!("{}\n", r.name);
            println!("contract:\n  {}\n", r.contract);
            println!("why:\n  {}\n", r.rationale);
            println!("fix:");
            for line in r.fix.lines() {
                println!("  {line}");
            }
            0
        }
        None => {
            eprintln!("unknown rule `{rule}`; known rules:");
            for r in linklens_check::rules::RULES {
                eprintln!("  {}", r.name);
            }
            2
        }
    }
}

/// The workspace this binary was compiled from (two levels above the
/// crate's manifest), falling back to the current directory when that
/// tree no longer exists (e.g. an installed binary).
fn default_root() -> PathBuf {
    let compiled_from = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    if compiled_from.join("Cargo.toml").exists() {
        compiled_from
    } else {
        PathBuf::from(".")
    }
}
