//! Determinism regression: the bench harness's `WS_THREADS` sweep pool
//! must never change results — only wall-clock. The fig4 and jobs_finished
//! binaries are pinned end-to-end bit-identical at 1 vs 4 threads
//! (subprocess, `WS_THREADS` env path): the whole CSV, including the
//! solver-work counter columns, byte for byte. Wall-clock is deliberately
//! *not* compared. The `stream` replay reads no thread knob; it is pinned
//! streamed against preloaded.

use std::process::Command;

/// Runs a bench binary with `--smoke` under a given `WS_THREADS`, returning
/// its stdout.
fn run_smoke(bin: &str, threads: &str) -> String {
    run_smoke_args(bin, threads, &[])
}

/// [`run_smoke`] with extra CLI arguments (e.g. `--colgen`).
fn run_smoke_args(bin: &str, threads: &str, extra_args: &[&str]) -> String {
    let out = Command::new(bin)
        .arg("--smoke")
        .args(extra_args)
        .env("WS_THREADS", threads)
        .output()
        .expect("bench binary runs");
    assert!(
        out.status.success(),
        "{bin} failed under WS_THREADS={threads}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 csv")
}

#[test]
fn fig4_smoke_csv_is_bit_identical_across_thread_counts() {
    let bin = env!("CARGO_BIN_EXE_fig4");
    let serial = run_smoke(bin, "1");
    let pooled = run_smoke(bin, "4");
    // Every column — b̂, end times, LP solves, simplex iterations, warm
    // starts, cold fallbacks — must survive sweep-level parallelism
    // unchanged.
    assert_eq!(serial, pooled, "fig4 CSV must not depend on WS_THREADS");
    assert!(serial.lines().count() > 4, "fig4 produced no data rows");
}

#[test]
fn fig4_colgen_smoke_csv_is_bit_identical_across_thread_counts() {
    // Column generation is serial by construction (one evolving master
    // session, BTreeMap duals, tie-broken Dijkstra), so every results
    // column — pool size, census, ratio, CG round/column counters, the
    // monolithic cross-check gap — must be identical at any WS_THREADS.
    // Only the two trailing wall-clock columns (solve_secs, census_secs)
    // may differ; mask them before comparing.
    let strip_wallclock = |csv: &str| -> String {
        csv.lines()
            .map(|line| {
                if line.starts_with('#') || line.starts_with("jobs,") {
                    line.to_string()
                } else {
                    let fields: Vec<&str> = line.split(',').collect();
                    fields[..fields.len().saturating_sub(2)].join(",")
                }
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    let bin = env!("CARGO_BIN_EXE_fig4");
    let serial = strip_wallclock(&run_smoke_args(bin, "1", &["--colgen"]));
    let pooled = strip_wallclock(&run_smoke_args(bin, "4", &["--colgen"]));
    assert_eq!(
        serial, pooled,
        "fig4 --colgen CSV must not depend on WS_THREADS"
    );
    assert!(serial.lines().count() > 4, "fig4 --colgen produced no rows");
}

#[test]
fn jobs_finished_smoke_csv_is_bit_identical_across_thread_counts() {
    let bin = env!("CARGO_BIN_EXE_jobs_finished");
    let serial = run_smoke(bin, "1");
    let pooled = run_smoke(bin, "4");
    assert_eq!(
        serial, pooled,
        "jobs_finished CSV must not depend on WS_THREADS"
    );
}

/// Runs the `stream` replay binary with a decision log, returning
/// (scheduling rows of stdout, decision log bytes). The `mem_*` stdout
/// rows are allocation telemetry — machine-dependent by design — so they
/// are stripped before comparison; the decision log contains scheduling
/// outcomes only and is compared whole.
fn run_stream(label: &str, extra_args: &[&str]) -> (String, Vec<u8>) {
    let log_path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("stream_determinism_{label}.log"));
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
