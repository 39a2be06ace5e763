//! The documentation's own rules, checked on the files as committed:
//!
//! * CHANGES.md: every entry (`- PR …` or `- **PR …`) and every note (a
//!   line that starts `FOUND:` or `MENDED`, with its two-space-indented
//!   continuation lines) is at most 25 lines, and no line is longer than
//!   100 characters;
//! * DESIGN.md: at most 800 lines, no `PR <n>` (history lives in
//!   CHANGES.md), and every non-test module file under `crates/*/src` is
//!   named in it as `<crate>/<path under src>`;
//! * every DESIGN.md section cited by name (`DESIGN.md "Section"` or
//!   `"Section" in DESIGN.md`) from `crates/`, `src/`, `examples/`,
//!   `clippy.toml`, `README.md` or `EXPERIMENTS.md` is a DESIGN.md heading;
//! * every EXPERIMENTS.md section cited by name (`EXPERIMENTS.md "X"`, or a
//!   list `EXPERIMENTS.md "A", "B" and "C"`) from DESIGN.md, README.md,
//!   `crates/` or `src/` is an EXPERIMENTS.md heading `X` or `X (…)`.
//!
//! Each checker returns its violations, so the unit cases below can hold it
//! to synthetic text.

use std::fs;
use std::path::{Path, PathBuf};

const MAX_UNIT_LINES: usize = 25;
const MAX_LINE_CHARS: usize = 100;
const MAX_DESIGN_LINES: usize = 800;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    let path = root().join(rel);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The first line of an entry or a note, or `None` for any other line.
fn unit_start(line: &str) -> Option<&str> {
    let starts = ["- PR ", "- **PR ", "FOUND:", "MENDED"];
    starts.iter().any(|s| line.starts_with(s)).then_some(line)
}

/// Violations of CHANGES.md's limits in `text`: a unit over
/// [`MAX_UNIT_LINES`], named by its first line, and a line over
/// [`MAX_LINE_CHARS`] characters.
fn changes_violations(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let lines: Vec<&str> = text.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        let chars = line.chars().count();
        if chars > MAX_LINE_CHARS {
            out.push(format!("line {} has {chars} characters", i + 1));
        }
        if let Some(head) = unit_start(line) {
            let len = 1 + lines[i + 1..]
                .iter()
                .take_while(|l| l.starts_with("  "))
                .count();
            if len > MAX_UNIT_LINES {
                let name: String = head.chars().take(60).collect();
                out.push(format!("line {}: `{name}` runs {len} lines", i + 1));
            }
        }
    }
    out
}

/// Every `.rs` file under `dir`, recursively, sorted.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d).unwrap_or_else(|e| panic!("{}: {e}", d.display())) {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|x| x == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// `<crate>/<path under src>` of every module file that is not a test
/// module (`tests.rs`).
fn module_names() -> Vec<String> {
    let mut out = Vec::new();
    let mut crates: Vec<PathBuf> = fs::read_dir(root().join("crates"))
        .expect("crates/")
        .map(|e| e.expect("directory entry").path())
        .collect();
    crates.sort();
    for krate in crates {
        let src = krate.join("src");
        if !src.is_dir() {
            continue;
        }
        let name = krate.file_name().expect("crate dir").to_string_lossy();
        for file in rust_files(&src) {
            if file.file_name().is_some_and(|f| f == "tests.rs") {
                continue;
            }
            let rel = file.strip_prefix(&src).expect("under src");
            out.push(format!(
                "{name}/{}",
                rel.to_string_lossy().replace('\\', "/")
            ));
        }
    }
    out
}

/// Violations of DESIGN.md's limits in `text`, given the module files it
/// must name.
fn design_violations(text: &str, modules: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    let lines = text.lines().count();
    if lines > MAX_DESIGN_LINES {
        out.push(format!("DESIGN.md runs {lines} lines"));
    }
    for (i, line) in text.lines().enumerate() {
        let mut rest = line;
        while let Some(at) = rest.find("PR ") {
            rest = &rest[at + 3..];
            if rest.starts_with(|c: char| c.is_ascii_digit()) {
                out.push(format!("DESIGN.md:{} names a PR", i + 1));
            }
        }
    }
    for m in modules {
        if !text.contains(m.as_str()) {
            out.push(format!("DESIGN.md does not name `{m}`"));
        }
    }
    out
}

/// `text` on one line: comment markers and line breaks read as spaces, so
/// a citation may wrap.
fn flatten(text: &str) -> String {
    text.lines()
        .map(|l| {
            let l = l.trim_start();
            l.trim_start_matches(['/', '!', '#']).trim()
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// The DESIGN.md section names `text` cites in quotes: `DESIGN.md "X"`
/// (up to a few characters such as `, (` between) and `"X" in DESIGN.md`
/// or `the "X" section of DESIGN.md`.
fn cited_sections(text: &str) -> Vec<String> {
    let flat = flatten(text);
    let mut out = Vec::new();
    for (at, _) in flat.match_indices("DESIGN.md") {
        // Forward: `DESIGN.md "X"`, `DESIGN.md, "X"`, `DESIGN.md ("X")`.
        let after = &flat[at + "DESIGN.md".len()..];
        if let Some(open) = after.find('"') {
            let gap = &after[..open];
            let quoted = &after[open + 1..];
            if gap.chars().count() <= 12 && !gap.contains(['.', ';', ')', ']']) {
                if let Some(close) = quoted.find('"') {
                    out.push(quoted[..close].to_string());
                    continue;
                }
            }
        }
        // Backward: `"X" in DESIGN.md`, `"X" section of DESIGN.md`.
        let before = flat[..at].trim_end_matches(['[', '`', ' ']);
        let before = before
            .strip_suffix(" in")
            .or_else(|| before.strip_suffix(" of"))
            .map(|b| b.trim_end().trim_end_matches(" section"));
        if let Some(b) = before.and_then(|b| b.strip_suffix('"')) {
            if let Some(open) = b.rfind('"') {
                out.push(b[open + 1..].to_string());
            }
        }
    }
    out
}

/// The EXPERIMENTS.md section names `text` cites: `EXPERIMENTS.md "X"`,
/// and every further name of a list it heads, `"A", "B" and "C"`.
fn cited_experiments(text: &str) -> Vec<String> {
    let flat = flatten(text);
    let mut out = Vec::new();
    for (at, _) in flat.match_indices("EXPERIMENTS.md") {
        let mut rest = flat[at + "EXPERIMENTS.md".len()..].trim_start();
        while let Some((name, after)) = rest.strip_prefix('"').and_then(|q| q.split_once('"')) {
            out.push(name.to_string());
            rest = after
                .strip_prefix(", ")
                .or_else(|| after.strip_prefix(" and "))
                .unwrap_or("");
        }
    }
    out
}

/// The names in `cited` that are no heading `X` or `X (…)` of `heads`.
fn missing_experiments(cited: &[String], heads: &[&str]) -> Vec<String> {
    let is_head = |name: &str| {
        heads.iter().any(|h| {
            *h == name
                || h.strip_prefix(name)
                    .is_some_and(|r| r.starts_with(" (") && r.ends_with(')'))
        })
    };
    cited.iter().filter(|n| !is_head(n)).cloned().collect()
}

/// The text of every Markdown heading in `text`.
fn headings(text: &str) -> Vec<&str> {
    text.lines()
        .filter(|l| l.starts_with('#'))
        .map(|l| l.trim_start_matches('#').trim())
        .collect()
}

#[test]
fn changes_entries_and_notes_fit_their_limits() {
    let bad = changes_violations(&read("CHANGES.md"));
    assert!(bad.is_empty(), "CHANGES.md:\n{}", bad.join("\n"));
}

#[test]
fn design_is_short_names_no_pr_and_names_every_module() {
    let modules = module_names();
    assert!(modules.iter().any(|m| m == "lp/revised/engine.rs"));
    assert!(!modules.iter().any(|m| m.ends_with("/tests.rs")));
    let bad = design_violations(&read("DESIGN.md"), &modules);
    assert!(bad.is_empty(), "{}", bad.join("\n"));
}

#[test]
fn every_cited_design_section_is_a_heading() {
    let design = read("DESIGN.md");
    let heads = headings(&design);
    let mut files: Vec<PathBuf> = ["crates", "src", "examples"]
        .iter()
        .flat_map(|d| rust_files(&root().join(d)))
        .collect();
    files.extend(["README.md", "EXPERIMENTS.md", "clippy.toml"].map(|f| root().join(f)));
    let mut cited = 0;
    let mut bad = Vec::new();
    for file in &files {
        let text = fs::read_to_string(file).expect("readable source");
        for name in cited_sections(&text) {
            cited += 1;
            if !heads.contains(&name.as_str()) {
                bad.push(format!("{}: \"{name}\"", file.display()));
            }
        }
    }
    assert!(cited > 0, "no citation found: the scanner is broken");
    assert!(
        bad.is_empty(),
        "not a DESIGN.md heading:\n{}",
        bad.join("\n")
    );
}

#[test]
fn every_cited_experiments_section_is_a_heading() {
    let experiments = read("EXPERIMENTS.md");
    let heads = headings(&experiments);
    let mut files: Vec<PathBuf> = ["crates", "src"]
        .iter()
        .flat_map(|d| rust_files(&root().join(d)))
        .collect();
    files.extend(["DESIGN.md", "README.md"].map(|f| root().join(f)));
    let mut cited = Vec::new();
    let mut bad = Vec::new();
    for file in &files {
        let text = fs::read_to_string(file).expect("readable source");
        let names = cited_experiments(&text);
        for name in missing_experiments(&names, &heads) {
            bad.push(format!("{}: \"{name}\"", file.display()));
        }
        cited.extend(names);
    }
    for name in [
        "One warm rung",
        "Fig. 4 at full scale: wall time",
        "Verdicts by benchmark row",
        "Where a pivot's time goes",
        "Where FTRAN and BTRAN time went",
        "The eta passes read what a pivot reads",
        "Run log by PR",
    ] {
        assert!(cited.iter().any(|c| c == name), "{name:?} not found");
    }
    assert!(
        bad.is_empty(),
        "not an EXPERIMENTS.md heading:\n{}",
        bad.join("\n")
    );
}

#[test]
fn experiments_citations_wrap_head_lists_and_fail_by_name() {
    let text = "see (EXPERIMENTS.md\n\"Run log by PR\"); EXPERIMENTS.md \"Where\n\
                a pivot's time goes\", \"Old name\" and \"One warm rung\". EXPERIMENTS.md has more.";
    let cited = cited_experiments(text);
    assert_eq!(
        cited,
        [
            "Run log by PR",
            "Where a pivot's time goes",
            "Old name",
            "One warm rung"
        ]
    );
    let heads = [
        "Run log by PR",
        "Where a pivot's time goes (2026-10-01)",
        "New name (second run)",
        "One warm rung (measured)",
    ];
    assert_eq!(missing_experiments(&cited, &heads), ["Old name"]);
    assert_eq!(
        missing_experiments(&["One warm".to_string()], &heads),
        ["One warm"]
    );
}

#[test]
fn a_26_line_entry_and_a_101_character_line_fail_by_name() {
    let entry = |n: usize| {
        let mut t = String::from("- PR 7: the entry\n");
        t.push_str(&"  more\n".repeat(n - 1));
        t
    };
    assert!(changes_violations(&entry(25)).is_empty());
    let bad = changes_violations(&entry(26));
    assert_eq!(bad, ["line 1: `- PR 7: the entry` runs 26 lines"]);

    let note = format!(
        "- **PR 8: bold**\n  text\nFOUND: a note\n{}",
        "  x\n".repeat(25)
    );
    let bad = changes_violations(&note);
    assert_eq!(bad, ["line 3: `FOUND: a note` runs 26 lines"]);

    let line = |n: usize| format!("- PR 9: {}\n", "é".repeat(n - 8));
    assert!(changes_violations(&line(100)).is_empty());
    assert_eq!(
        changes_violations(&line(101)),
        ["line 1 has 101 characters"]
    );
}

#[test]
fn design_checker_counts_lines_prs_and_modules() {
    let modules = ["net/dot.rs".to_string()];
    assert!(design_violations("# D\nsee `net/dot.rs`\n", &modules).is_empty());
    let long = "x\n".repeat(801) + "net/dot.rs";
    assert_eq!(
        design_violations(&long, &modules),
        ["DESIGN.md runs 802 lines"]
    );
    assert_eq!(
        design_violations("net/dot.rs, since PR 18\n", &modules),
        ["DESIGN.md:1 names a PR"]
    );
    assert_eq!(
        design_violations("nothing\n", &modules),
        ["DESIGN.md does not name `net/dot.rs`"]
    );
}

#[test]
fn citations_are_found_in_every_form() {
    let text = "//! see DESIGN.md \"Static analysis\" and\n\
                //! DESIGN.md\n//! (\"Path generation\"); also (DESIGN.md, \"Simplex kernels\")\n\
                see \"Parallelism\" in [DESIGN.md](DESIGN.md) and the\n\
                \"Static analysis\" section of `DESIGN.md`. DESIGN.md has more.";
    assert_eq!(
        cited_sections(text),
        [
            "Static analysis",
            "Path generation",
            "Simplex kernels",
            "Parallelism",
            "Static analysis"
        ]
    );
}
