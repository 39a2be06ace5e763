//! # wavesched-lint — project-specific static analysis
//!
//! A std-only, dependency-free static analyzer enforcing the invariants
//! this workspace's guarantees rest on: bit-identical output across thread
//! counts, tolerance-aware float decisions in the solver, and panic-free
//! library hot paths. PR 3 made those guarantees; this crate makes them
//! *stay* made.
//!
//! Pipeline: a comment/string/char-literal-aware lexer ([`lexer`]) feeds a
//! rule engine ([`rules`]) with inline
//! `// lint: allow(<rule>, reason = "...")` suppressions. Any finding fails
//! the run: the debt the first sweep found is paid, and an intentional
//! exception is written down, with its reason, where it stands.
//!
//! Run it as `cargo run -p wavesched-lint` (see the binary for flags), or
//! drive the library directly:
//!
//! ```
//! use wavesched_lint::rules::lint_source;
//! let findings = lint_source(
//!     "crates/lp/src/example.rs",
//!     "fn f(x: f64) -> bool { x == 0.5 }",
//! );
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].rule, "float-eq");
//! ```

#![warn(missing_docs)]

pub mod lexer;
pub mod rules;
pub mod tree;

use rules::Finding;
use std::path::{Path, PathBuf};

/// The workspace root, resolved at compile time from this crate's location
/// (`crates/lint` → two levels up). Callers can override with `--root`.
pub fn workspace_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .unwrap_or(manifest)
        .to_path_buf()
}

/// Directory names never descended into. `fixtures` holds the linter's own
/// deliberately-bad test snippets; `vendor` is third-party stand-in code.
const SKIP_DIRS: [&str; 6] = [
    "target",
    "vendor",
    ".git",
    "results",
    "fixtures",
    "node_modules",
];

/// Top-level directories that contain lintable Rust sources.
const TOP_DIRS: [&str; 4] = ["crates", "src", "tests", "examples"];

/// Collects every lintable `.rs` file under `root`, as workspace-relative
/// forward-slash paths, sorted (scan order never affects output).
pub fn collect_files(root: &Path) -> std::io::Result<Vec<String>> {
    let mut out = Vec::new();
    for top in TOP_DIRS {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(root, &dir, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                walk(root, &path, out)?;
            }
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Lints the whole workspace under `root`; findings are sorted by
/// (file, line, rule). I/O errors abort (a skipped file is a silent pass).
pub fn lint_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let files = collect_files(root).map_err(|e| format!("walking {}: {e}", root.display()))?;
    let mut findings = Vec::new();
    for rel in &files {
        let src =
            std::fs::read_to_string(root.join(rel)).map_err(|e| format!("reading {rel}: {e}"))?;
        findings.extend(rules::lint_source(rel, &src));
    }
    findings.sort();
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_root_is_a_cargo_workspace() {
        let root = workspace_root();
        let manifest = std::fs::read_to_string(root.join("Cargo.toml")).unwrap();
        assert!(manifest.contains("[workspace]"), "{}", root.display());
    }

    #[test]
    fn collect_finds_this_crate_but_not_fixtures_or_vendor() {
        let root = workspace_root();
        let files = collect_files(&root).unwrap();
        assert!(files.iter().any(|f| f == "crates/lint/src/lib.rs"));
        assert!(
            files.iter().all(|f| !f.contains("/fixtures/")),
            "fixtures leaked"
        );
        assert!(
            files.iter().all(|f| !f.starts_with("vendor/")),
            "vendor leaked"
        );
        assert!(
            files.iter().all(|f| !f.contains("/target/")),
            "target leaked"
        );
        // Sorted, so runs are reproducible byte for byte.
        let mut sorted = files.clone();
        sorted.sort();
        assert_eq!(files, sorted);
    }
}
