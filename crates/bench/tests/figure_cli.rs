//! `claims <figure>`: every figure holds its claims at its smallest scale,
//! and takes only the flags it reads. A flag it would ignore exits 2 with
//! one line on stderr and prints no results, before any solve — an ignored
//! knob would run one experiment under the name of another. A flag it takes
//! acts at every scale: `--jobs` is a sweep's largest point under `--smoke`
//! too.

use std::process::{Command, Output, Stdio};

fn claims(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_claims"))
        .args(args)
        .output()
        .expect("claims runs")
}

#[test]
fn every_figure_holds_its_claims_at_its_smallest_scale() {
    // (arguments, claims checked at every scale)
    let cases: [(&[&str], usize); 10] = [
        (&["fig1", "--smoke"], 3),
        (&["fig2", "--smoke"], 4),
        (&["fig3", "--smoke"], 0),
        (&["fig4", "--smoke"], 3),
        (&["fig4", "--smoke", "--colgen"], 2),
        (&["jobs_finished", "--smoke"], 3),
        (&["ablation_order", "--smoke"], 0),
        (&["ablation_alpha", "--smoke"], 2),
        (&["ablation_paths", "--smoke"], 1),
        (&["ablation_exact"], 2),
    ];
    for (args, checked) in cases {
        let out = claims(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(!stderr.contains("FAILED"), "{args:?}: {stderr}");
        let prefix = format!("claim {} ", args[0]);
        assert!(
            stderr.lines().all(|l| l.starts_with(&prefix)),
            "{args:?}: {stderr}"
        );
        assert_eq!(
            stderr.matches(": ok\n").count(),
            checked,
            "{args:?}: {stderr}"
        );
        assert!(!out.stdout.is_empty(), "{args:?} printed no CSV");
    }
}

#[test]
fn flags_a_figure_does_not_read_are_one_line_usage_errors() {
    // (arguments, what the message must name)
    let cases: [(&[&str], &str); 9] = [
        (&["fig3", "--smoke", "--colgen"], "--colgen"),
        (&["fig3", "--smoke", "--seeds", "2"], "--seeds"),
        (&["jobs_finished", "--smoke", "--paths", "9"], "--paths"),
        (&["jobs_finished", "--smoke", "--size-gb", "3"], "--size-gb"),
        (&["jobs_finished", "--smoke", "--jobs", "5"], "--jobs"),
        (&["fig1", "--smoke", "--colgen"], "--colgen"),
        (&["ablation_exact", "--smoke"], "--smoke"),
        (&["fig4", "--smoke", "--paths", "3"], "--colgen"),
        (&["fig4", "--smoke", "--size-gb", "3"], "--colgen"),
    ];
    for (args, want) in cases {
        assert_usage_error(args, want);
    }
}

#[test]
fn zero_counts_are_one_line_usage_errors() {
    // Each once ran: a panic in the solver (`--paths 0`, `--size-gb 0`), a
    // table of NaN rows (`--seeds 0`) or an empty table (`--jobs 0`).
    let cases: [(&[&str], &str); 4] = [
        (&["fig4", "--smoke", "--colgen", "--paths", "0"], "--paths"),
        (
            &["fig4", "--smoke", "--colgen", "--size-gb", "0"],
            "--size-gb",
        ),
        (&["fig1", "--smoke", "--seeds", "0"], "--seeds"),
        (&["fig3", "--smoke", "--jobs", "0"], "--jobs"),
    ];
    for (args, want) in cases {
        assert_usage_error(args, want);
    }
}

#[test]
fn an_unknown_or_missing_figure_is_a_one_line_usage_error() {
    assert_usage_error(&["fig9", "--smoke"], "unknown figure \"fig9\"");
    assert_usage_error(&[], "usage: claims <figure>");
}

fn assert_usage_error(args: &[&str], want: &str) {
    let out = claims(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(stderr.contains(want), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed results");
}

#[test]
fn a_reader_that_goes_away_ends_the_run_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_claims"))
        .args(["ablation_exact"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("claims runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for claims");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}

/// The job counts of a figure CSV's data rows: its first column, below the
/// header line that starts with `jobs,`. The run must finish its figure; a
/// claim may fail away from the scales the paper studies (`fig4 --smoke
/// --jobs 8`: on an empty network the LP's average end falls from 1.750 at
/// 4 jobs to 1.625 at 8), which is exit 1 with every stderr line a claim.
fn swept_jobs(args: &[&str]) -> Vec<usize> {
    let out = claims(args);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        matches!(out.status.code(), Some(0 | 1)),
        "{args:?}: {stderr}"
    );
    assert!(
        stderr.lines().all(|l| l.starts_with("claim ")),
        "{args:?}: {stderr}"
    );
    stdout
        .lines()
        .skip_while(|l| !l.starts_with("jobs,"))
        .skip(1)
        .map(|l| l.split(',').next().unwrap().parse().unwrap())
        .collect()
}

/// `claims <figure> --smoke` plus `extra` sweeps `default`; with `--jobs 8`
/// it sweeps `at_8`, ending at 8.
fn assert_smoke_sweep(figure: &str, extra: &[&str], default: &[usize], at_8: &[usize]) {
    let smoke = [&[figure, "--smoke"], extra].concat();
    assert_eq!(swept_jobs(&smoke), default, "{smoke:?}");
    let with_jobs = [&smoke[..], &["--jobs", "8"]].concat();
    assert_eq!(swept_jobs(&with_jobs), at_8, "{with_jobs:?}");
}

#[test]
fn smoke_sweeps_end_at_the_jobs_asked_for() {
    assert_smoke_sweep("fig3", &[], &[20, 40], &[4, 8]);
    assert_smoke_sweep("fig4", &[], &[10, 20], &[4, 8]);
    assert_smoke_sweep("fig4", &["--colgen"], &[20, 50], &[3, 8]);
}
