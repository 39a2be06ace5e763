//! The figure binaries' flags: each binary takes only the flags it reads.
//! A flag it would ignore exits 2 with one line on stderr and prints no
//! results, before any solve — an ignored knob would run one experiment
//! under the name of another. A flag it takes acts at every scale:
//! `--jobs` is a sweep's largest point under `--smoke` too.

use std::process::Command;

#[test]
fn flags_a_figure_binary_does_not_read_are_one_line_usage_errors() {
    // (binary, arguments, what the message must name)
    let cases: [(&str, &[&str], &str); 9] = [
        (
            env!("CARGO_BIN_EXE_fig3"),
            &["--smoke", "--colgen"],
            "--colgen",
        ),
        (
            env!("CARGO_BIN_EXE_fig3"),
            &["--smoke", "--seeds", "2"],
            "--seeds",
        ),
        (
            env!("CARGO_BIN_EXE_jobs_finished"),
            &["--smoke", "--paths", "9"],
            "--paths",
        ),
        (
            env!("CARGO_BIN_EXE_jobs_finished"),
            &["--smoke", "--size-gb", "3"],
            "--size-gb",
        ),
        (
            env!("CARGO_BIN_EXE_jobs_finished"),
            &["--smoke", "--jobs", "5"],
            "--jobs",
        ),
        (
            env!("CARGO_BIN_EXE_fig1"),
            &["--smoke", "--colgen"],
            "--colgen",
        ),
        (
            env!("CARGO_BIN_EXE_ablation_exact"),
            &["--smoke"],
            "--smoke",
        ),
        (
            env!("CARGO_BIN_EXE_fig4"),
            &["--smoke", "--paths", "3"],
            "--colgen",
        ),
        (
            env!("CARGO_BIN_EXE_fig4"),
            &["--smoke", "--size-gb", "3"],
            "--colgen",
        ),
    ];
    for (bin, args, want) in cases {
        let out = Command::new(bin)
            .args(args)
            .output()
            .expect("figure binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{bin} {args:?}: {stderr}");
        assert!(stderr.contains(want), "{bin} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} printed results");
    }
}

/// The job counts of a figure CSV's data rows: its first column, below the
/// header line that starts with `jobs,`.
fn swept_jobs(bin: &str, args: &[&str]) -> Vec<usize> {
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("figure binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{bin} {args:?}: {stdout}");
    stdout
        .lines()
        .skip_while(|l| !l.starts_with("jobs,"))
        .skip(1)
        .map(|l| l.split(',').next().unwrap().parse().unwrap())
        .collect()
}

/// `bin --smoke` plus `extra` sweeps `default`; with `--jobs 8` it sweeps
/// `at_8`, ending at 8.
fn assert_smoke_sweep(bin: &str, extra: &[&str], default: &[usize], at_8: &[usize]) {
    let smoke = [&["--smoke"], extra].concat();
    assert_eq!(swept_jobs(bin, &smoke), default, "{bin} {smoke:?}");
    let with_jobs = [&smoke[..], &["--jobs", "8"]].concat();
    assert_eq!(swept_jobs(bin, &with_jobs), at_8, "{bin} {with_jobs:?}");
}

#[test]
fn smoke_sweeps_end_at_the_jobs_asked_for() {
    assert_smoke_sweep(env!("CARGO_BIN_EXE_fig3"), &[], &[20, 40], &[4, 8]);
    assert_smoke_sweep(env!("CARGO_BIN_EXE_fig4"), &[], &[10, 20], &[4, 8]);
    let colgen = ["--colgen"];
    assert_smoke_sweep(env!("CARGO_BIN_EXE_fig4"), &colgen, &[20, 50], &[3, 8]);
}
