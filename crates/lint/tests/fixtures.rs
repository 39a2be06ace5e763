//! Fixture-driven end-to-end tests: every rule has a known-bad snippet that
//! must fire and a known-good twin that must stay silent, and the workspace
//! itself lints to zero findings.

use std::path::{Path, PathBuf};
use wavesched_lint::rules::{lint_source, RULE_NAMES};

/// Synthetic path each rule's snippets are linted under. `crates/core/src/`
/// is in scope for almost every rule, which makes it the canonical drop
/// target — except `alloc-in-hot-path`, which is deliberately lp-only
/// (core's column-generation `Pricer` methods are literally named `price`
/// and legitimately allocate), so its snippets drop into `crates/lp`.
fn drop_path(rule: &str) -> String {
    let krate = if rule == "alloc-in-hot-path" {
        "lp"
    } else {
        "core"
    };
    format!("crates/{krate}/src/fixture_under_test.rs")
}

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fixture(rule: &str, which: &str) -> String {
    let path = fixture_dir().join(rule).join(format!("{which}.rs"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn rules_hit(rule: &str, src: &str) -> Vec<&'static str> {
    let mut rules: Vec<&'static str> = lint_source(&drop_path(rule), src)
        .iter()
        .map(|f| f.rule)
        .collect();
    rules.dedup();
    rules
}

#[test]
fn every_rule_has_fixtures() {
    for rule in RULE_NAMES {
        for which in ["good", "bad"] {
            let path = fixture_dir().join(rule).join(format!("{which}.rs"));
            assert!(path.is_file(), "missing fixture {}", path.display());
        }
    }
}

#[test]
fn known_bad_fixtures_fire_their_rule() {
    for rule in RULE_NAMES {
        let hits = rules_hit(rule, &fixture(rule, "bad"));
        assert!(
            hits.contains(&rule),
            "bad fixture for {rule} fired {hits:?}, expected it to include {rule}"
        );
    }
}

#[test]
fn known_good_fixtures_are_clean() {
    for rule in RULE_NAMES {
        let findings = lint_source(&drop_path(rule), &fixture(rule, "good"));
        assert!(
            findings.is_empty(),
            "good fixture for {rule} produced findings: {findings:?}"
        );
    }
}

#[test]
fn workspace_is_clean_and_a_dropped_in_bad_snippet_is_not() {
    // The CI gate: the repo itself has no finding, so any finding fails
    // the run.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let findings = wavesched_lint::lint_workspace(root).unwrap();
    assert!(findings.is_empty(), "findings: {findings:#?}");

    // And the gate has teeth: one bad snippet dropped into a scratch tree
    // is found by the same walk.
    let scratch = std::env::temp_dir().join(format!("wavesched-lint-drop-{}", std::process::id()));
    let dst = scratch.join("crates/core/src");
    std::fs::create_dir_all(&dst).unwrap();
    std::fs::write(dst.join("dropped.rs"), fixture("float-eq", "bad")).unwrap();
    let findings = wavesched_lint::lint_workspace(&scratch).unwrap();
    std::fs::remove_dir_all(&scratch).ok();
    assert!(
        findings.iter().any(|f| f.rule == "float-eq"),
        "a dropped-in bad snippet must produce a finding: {findings:#?}"
    );
}

#[test]
fn pr7_zero_sign_pattern_is_caught() {
    // Regression guard for the PR 7 hazard the rule exists for: the bad
    // fixture carries the literal `f64::max(-0.0, 0.0)` pattern and
    // `zero-sign-clamp` must flag that exact line.
    let src = fixture("zero-sign-clamp", "bad");
    assert!(
        src.contains("f64::max(-0.0, 0.0)"),
        "fixture lost the literal PR 7 pattern"
    );
    let findings = lint_source(&drop_path("zero-sign-clamp"), &src);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "zero-sign-clamp" && f.snippet.contains("f64::max(-0.0, 0.0)")),
        "zero-sign-clamp missed the PR 7 pattern: {findings:#?}"
    );
}
