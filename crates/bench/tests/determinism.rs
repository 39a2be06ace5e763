//! Determinism regression: the bench harness's `WS_THREADS` sweep pool
//! must never change results — only wall-clock. Two layers are pinned
//! bit-identical at 1 vs 4 threads:
//!
//! * the fig4 and jobs_finished binaries end-to-end (subprocess,
//!   `WS_THREADS` env path): the whole CSV, including the solver-work
//!   counter columns, byte for byte;
//! * RET directly (`RetConfig::threads`): b̂, schedules, and the full
//!   [`SolveStats`] despite speculative probing.
//!
//! Thread-dependent observables (wall-clock, `ret.speculative_probes`,
//! `lp.*` counters folded in from mis-speculated probes) are deliberately
//! *not* compared. The `stream` replay reads no thread knob; it is pinned
//! streamed against preloaded.

use std::process::Command;
use wavesched_core::instance::InstanceConfig;
use wavesched_core::ret::{solve_ret, RetConfig};
use wavesched_net::abilene14;
use wavesched_workload::{WorkloadConfig, WorkloadGenerator};

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

#[test]
fn ret_search_is_bit_identical_across_probe_widths() {
    // The fig4 shape at test-friendly size: overloaded Abilene so the
    // bisection actually speculates (b_lp > 0).
    let (g, _) = abilene14(2);
    let jobs = WorkloadGenerator::new(WorkloadConfig {
        num_jobs: 12,
        seed: 3000,
        size_gb: (100.0, 400.0),
        window: (2.0, 4.0),
        ..Default::default()
    })
    .generate(&g);
    let cfg = InstanceConfig::paper(2);
    let ret_at = |threads: usize| RetConfig {
        bsearch_tol: 0.05,
        b_max: 10.0,
        max_delta_steps: 120,
        threads,
        ..RetConfig::default()
    };

    let serial = solve_ret(&g, &jobs, &cfg, &ret_at(1))
        .expect("ret")
        .expect("workload must be overloaded but extensible");
    assert!(serial.b_lp > 0.0, "bisection must do real work");
    let pooled = solve_ret(&g, &jobs, &cfg, &ret_at(4))
        .expect("ret")
        .expect("workload must be overloaded but extensible");

    assert_eq!(serial.b_lp.to_bits(), pooled.b_lp.to_bits());
    assert_eq!(serial.b_final.to_bits(), pooled.b_final.to_bits());
    assert_eq!(serial.lp, pooled.lp);
    assert_eq!(serial.lpd, pooled.lpd);
    assert_eq!(serial.lpdar, pooled.lpdar);
    // Full stats: solves, iterations, phase-1 iterations, warm starts —
    // the fixed-round speculation realizes the same probes in the same
    // order at every width.
    assert_eq!(serial.stats, pooled.stats);
}
