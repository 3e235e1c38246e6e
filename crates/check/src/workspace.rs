//! Workspace discovery: finds every `.rs` file under the repo root and
//! classifies it so rules can scope themselves (library vs. binary vs.
//! test code, shim vs. first-party crate, crate roots).

use std::path::{Path, PathBuf};

/// What kind of compilation target a file belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code (`src/` of a lib crate, excluding `src/bin/`).
    Lib,
    /// Binary code (`src/bin/*.rs`, `src/main.rs`).
    Bin,
    /// Integration tests (`tests/`).
    Test,
    /// Benchmarks (`benches/`).
    Bench,
    /// Examples (`examples/`).
    Example,
    /// The benchmark harness (`benchmark/src/`), a package outside the
    /// workspace: read only for the production roots of
    /// `unreached-pub-fn`. No rule scans it.
    RootOnly,
}

/// One classified source file.
#[derive(Debug, Clone)]
pub struct FileInfo {
    /// Path relative to the workspace root, with `/` separators.
    pub path: String,
    /// Crate the file belongs to: `"graph"`, `"core"`, …, `"linklens"`
    /// for the root package, `"shims/rand"` for vendored shims.
    pub krate: String,
    pub kind: FileKind,
    /// Whether this file is a crate root (`lib.rs`, `main.rs`, or a
    /// `src/bin/*.rs` file) — the files `#![forbid(unsafe_code)]` must
    /// live in.
    pub is_crate_root: bool,
    /// Vendored dependency shim (reduced rule set applies).
    pub is_shim: bool,
}

/// Classifies one workspace-relative path; `None` for paths no rule cares
/// about (non-Rust files are filtered before this is called).
pub fn classify(rel: &str) -> Option<FileInfo> {
    let parts: Vec<&str> = rel.split('/').collect();
    let file = *parts.last()?;
    let info = |krate: &str, kind: FileKind, is_crate_root: bool, is_shim: bool| {
        Some(FileInfo {
            path: rel.to_string(),
            krate: krate.to_string(),
            kind,
            is_crate_root,
            is_shim,
        })
    };
    match parts.as_slice() {
        ["crates", k, "src", "bin", _] => info(k, FileKind::Bin, true, false),
        ["crates", k, "src", ..] => {
            let root = parts.len() == 4 && (file == "lib.rs" || file == "main.rs");
            let kind =
                if file == "main.rs" && parts.len() == 4 { FileKind::Bin } else { FileKind::Lib };
            info(k, kind, root, false)
        }
        ["crates", k, "tests", ..] => info(k, FileKind::Test, false, false),
        ["crates", k, "benches", ..] => info(k, FileKind::Bench, false, false),
        ["crates", k, "examples", ..] => info(k, FileKind::Example, false, false),
        ["shims", k, "src", ..] => {
            let root = parts.len() == 4 && file == "lib.rs";
            info(&format!("shims/{k}"), FileKind::Lib, root, true)
        }
        ["shims", k, "tests", ..] => info(&format!("shims/{k}"), FileKind::Test, false, true),
        ["src", "bin", _] => info("linklens", FileKind::Bin, true, false),
        ["src", ..] => {
            let root = parts.len() == 2 && (file == "lib.rs" || file == "main.rs");
            info("linklens", FileKind::Lib, root, false)
        }
        ["tests", ..] => info("linklens", FileKind::Test, false, false),
        ["benches", ..] => info("linklens", FileKind::Bench, false, false),
        ["examples", ..] => info("linklens", FileKind::Example, false, false),
        ["benchmark", "src", ..] => info("benchmark", FileKind::RootOnly, false, false),
        _ => None,
    }
}

/// Directories never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", ".github", "results"];

/// Walks `root` and returns every classified `.rs` file, sorted by path
/// for deterministic output.
pub fn collect_files(root: &Path) -> std::io::Result<Vec<FileInfo>> {
    let mut rel_paths = Vec::new();
    walk(root, &mut PathBuf::new(), &mut rel_paths)?;
    rel_paths.sort();
    Ok(rel_paths.iter().filter_map(|p| classify(p)).collect())
}

fn walk(root: &Path, rel: &mut PathBuf, out: &mut Vec<String>) -> std::io::Result<()> {
    let dir = root.join(&*rel);
    let mut entries: Vec<_> = std::fs::read_dir(&dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let ty = entry.file_type()?;
        if ty.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            rel.push(name.as_ref());
            walk(root, rel, out)?;
            rel.pop();
        } else if ty.is_file() && name.ends_with(".rs") {
            let mut p = rel.clone();
            p.push(name.as_ref());
            // Normalize to `/` so diagnostics are stable across platforms.
            out.push(p.to_string_lossy().replace('\\', "/"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matrix() {
        let g = classify("crates/graph/src/snapshot.rs").expect("lib file");
        assert_eq!(g.krate, "graph");
        assert_eq!(g.kind, FileKind::Lib);
        assert!(!g.is_crate_root && !g.is_shim);

        let root = classify("crates/graph/src/lib.rs").expect("crate root");
        assert!(root.is_crate_root);

        let bin = classify("crates/bench/src/bin/scalecheck.rs").expect("bench bin");
        assert_eq!(bin.kind, FileKind::Bin);
        assert!(bin.is_crate_root);

        let t = classify("crates/graph/tests/incremental.rs").expect("test file");
        assert_eq!(t.kind, FileKind::Test);

        let shim = classify("shims/rand/src/lib.rs").expect("shim root");
        assert!(shim.is_shim && shim.is_crate_root);
        assert_eq!(shim.krate, "shims/rand");

        let main_lib = classify("src/lib.rs").expect("root lib");
        assert_eq!(main_lib.krate, "linklens");
        assert!(main_lib.is_crate_root);

        let main_bin = classify("src/bin/linklens.rs").expect("root bin");
        assert_eq!(main_bin.kind, FileKind::Bin);
        assert!(main_bin.is_crate_root);

        let ex = classify("examples/quickstart.rs").expect("example");
        assert_eq!(ex.kind, FileKind::Example);

        let harness = classify("benchmark/src/sweep.rs").expect("benchmark harness");
        assert_eq!(harness.kind, FileKind::RootOnly);
        assert!(!harness.is_crate_root);
        assert!(classify("benchmark/tests/smoke.rs").is_none());

        assert!(classify("README.md").is_none());
        assert!(classify("results/figs/plot.rs").is_none());
    }
}
