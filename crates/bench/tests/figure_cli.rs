//! The figure binaries' flags: each binary takes only the flags it reads.
//! A flag it would ignore exits 2 with one line on stderr and prints no
//! results, before any solve — an ignored knob would run one experiment
//! under the name of another.

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
