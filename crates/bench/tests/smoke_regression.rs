//! Default-config smoke CSV regression: `claims fig3`, `fig4` and
//! `jobs_finished` `--smoke` output is pinned byte-for-byte against
//! recorded fixtures in `results/`, so structural refactors (like the
//! column-generation restructure of the solve layers) cannot silently
//! change the default pipeline's results. The figures run as they run by
//! default — fig4 and jobs_finished across the sweep pool at the machine's
//! width — so the fixtures also pin that the pool changes no answer.
//! Wall-clock columns are masked before comparison — they are the only
//! columns allowed to differ run to run. fig4's answer columns and its
//! solver-work columns are compared apart, so a change that moves only the
//! work re-pins only the work.
//!
//! Refresh a fixture after an *intentional* result change with:
//!
//! ```text
//! cargo run --release -p wavesched-bench --bin claims -- fig3 --smoke \
//!   > results/fig3_smoke.csv     # likewise fig4, jobs_finished
//! ```

use std::process::Command;

fn fixture(name: &str) -> String {
    let path = format!("{}/../../results/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read fixture {path}: {e}"))
}

/// Runs `claims <figure> --smoke`.
fn run_smoke(figure: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_claims"))
        .args([figure, "--smoke"])
        .output()
        .expect("claims runs");
    assert!(
        out.status.success(),
        "claims {figure} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 csv")
}

/// Keeps only the comma-separated fields at `keep` on data rows (comment
/// and header lines pass through untouched) — used to strip wall-clock
/// columns, which legitimately vary run to run.
fn project_columns(csv: &str, keep: &[usize]) -> String {
    csv.lines()
        .map(|line| {
            if line.starts_with('#') || line.chars().next().is_none_or(|c| !c.is_ascii_digit()) {
                line.to_string()
            } else {
                let fields: Vec<&str> = line.split(',').collect();
                keep.iter()
                    .map(|&i| fields[i])
                    .collect::<Vec<_>>()
                    .join(",")
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn fig4_smoke_csv_matches_recorded_fixture() {
    // Every fig4 column is deterministic, but they pin two different
    // things. Columns 1-6 (jobs, b̂, b_final, end times, LPD's share) are
    // the answers: a change that only moves solver work never refreshes
    // them. Columns 7-11 (LP solves, iterations, phase-1 iterations, warm
    // starts, fallbacks) count that work, and are re-pinned when it moves.
    const ANSWERS: &[usize] = &[0, 1, 2, 3, 4, 5];
    const COUNTERS: &[usize] = &[0, 6, 7, 8, 9, 10];
    let (actual, expected) = (run_smoke("fig4"), fixture("fig4_smoke.csv"));
    assert_eq!(
        project_columns(&actual, ANSWERS),
        project_columns(&expected, ANSWERS),
        "fig4 --smoke answers drifted from results/fig4_smoke.csv: b̂, b_final \
         or a schedule moved"
    );
    assert_eq!(
        project_columns(&actual, COUNTERS),
        project_columns(&expected, COUNTERS),
        "fig4 --smoke solver-work columns drifted from results/fig4_smoke.csv; \
         if the change is intentional, refresh the fixture's columns 7-11"
    );
}

#[test]
fn fig3_smoke_deterministic_columns_match_recorded_fixture() {
    // fig3 reports stage timings — wall-clock — so only the jobs column
    // and the solver-work counters (iters, phase1_iters, warm_accepted)
    // are pinned.
    const KEEP: &[usize] = &[0, 7, 8, 9];
    let actual = project_columns(&run_smoke("fig3"), KEEP);
    let expected = project_columns(&fixture("fig3_smoke.csv"), KEEP);
    assert_eq!(
        actual, expected,
        "fig3 --smoke solver-work columns drifted from results/fig3_smoke.csv; \
         if the change is intentional, refresh the fixture"
    );
}

#[test]
fn jobs_finished_smoke_csv_matches_recorded_fixture() {
    // Every column is an answer (b̂, b_final and the three finished
    // shares), so the whole CSV is pinned.
    assert_eq!(
        run_smoke("jobs_finished"),
        fixture("jobs_finished_smoke.csv"),
        "jobs_finished --smoke drifted from results/jobs_finished_smoke.csv"
    );
}
