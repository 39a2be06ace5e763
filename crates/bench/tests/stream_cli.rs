//! The `stream` replay binary's flags: a bad value exits 2 with one line on
//! stderr — never a panic, and never a silently truncated count — and
//! `--preload` changes memory, never a decision.

use std::process::Command;

#[test]
fn bad_stream_flags_are_one_line_usage_errors() {
    // (arguments, what the message must name)
    let cases: [(&[&str], &str); 15] = [
        (&["--wavelengths", "0"], "--wavelengths"),
        (&["--wavelengths", "-3"], "--wavelengths"),
        (&["--wavelengths", "2.5"], "--wavelengths"),
        (&["--paths", "0"], "--paths"),
        (&["--rate", "0"], "--rate"),
        (&["--rate", "-1"], "--rate"),
        (&["--rate", "nan"], "--rate"),
        (&["--rate", "inf"], "--rate"),
        (&["--rate", "fast"], "--rate"),
        (&["--jobs", "2.5"], "--jobs"),
        (&["--jobs", "-1"], "--jobs"),
        (&["--tau", "0"], "--tau"),
        (&["--seed", "1e3"], "--seed"),
        (&["--jobs"], "--jobs needs a value"),
        (&["--wavelenghts", "2"], "unknown argument"),
    ];
    for (args, want) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_stream"))
            .args(args)
            .output()
            .expect("stream binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains(want), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed results");
    }
}

/// Runs the `stream` replay binary with a decision log, returning
/// (scheduling rows of stdout, decision log bytes). The `mem_*` stdout
/// rows are allocation telemetry — machine-dependent by design — so they
/// are stripped before comparison; the decision log contains scheduling
/// outcomes only and is compared whole.
fn run_stream(label: &str, extra_args: &[&str]) -> (String, Vec<u8>) {
    let log_path =
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("stream_cli_{label}.log"));
    let out = Command::new(env!("CARGO_BIN_EXE_stream"))
        .args(["--jobs", "600", "--log"])
        .arg(&log_path)
        .args(extra_args)
        .output()
        .expect("stream binary runs");
    assert!(
        out.status.success(),
        "stream failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 csv");
    let sched: String = stdout
        .lines()
        .filter(|l| !l.starts_with("mem_"))
        .collect::<Vec<_>>()
        .join("\n");
    let log = std::fs::read(&log_path).expect("decision log written");
    assert!(!log.is_empty(), "decision log must not be empty");
    (sched, log)
}

#[test]
fn streamed_replay_log_is_bit_identical_to_preloaded() {
    // Feeding the controller from the lazy stream versus from a fully
    // materialized trace must be observationally equivalent: same
    // decisions, same bytes. Only memory differs.
    let (csv_s, log_s) = run_stream("streamed", &[]);
    let (csv_p, log_p) = run_stream("preloaded", &["--preload"]);
    assert_eq!(
        log_s, log_p,
        "streamed and preloaded replays must produce identical decision logs"
    );
    assert_eq!(csv_s, csv_p);
}
