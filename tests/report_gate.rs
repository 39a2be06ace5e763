//! `wavesched check-report`, the one report gate: it reads a report once,
//! validates it, holds it to an expectation file whose every counter is an
//! upper bound, and requires each `--require-nonzero` counter to be
//! positive. Each failure exits non-zero and names what failed.

use std::path::PathBuf;
use std::process::Command;
use wavesched::obs::{self, Metric};

fn counter(name: &str, value: u64) -> Metric {
    Metric::Counter {
        name: name.into(),
        value,
    }
}

/// Writes `metrics` as a report named `name` and returns its path.
fn report(name: &str, metrics: &[Metric]) -> String {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("report_gate_{name}"));
    std::fs::write(&path, obs::to_json_lines(metrics)).unwrap();
    path.to_str().unwrap().to_string()
}

/// Runs `wavesched check-report` with `args`: its exit status and its
/// stdout and stderr together.
fn gate(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_wavesched"))
        .arg("check-report")
        .args(args)
        .output()
        .unwrap();
    let text =
        String::from_utf8_lossy(&out.stdout).into_owned() + &String::from_utf8_lossy(&out.stderr);
    (out.status.success(), text)
}

/// A report as a solver run writes it: counters, a histogram and a span.
fn run_report() -> Vec<Metric> {
    vec![
        counter("lp.iterations", 100),
        counter("lp.refactorizations", 7),
        counter("lp.warm_starts_accepted", 3),
        counter("lp.lu_reuse_hits", 0),
        Metric::Histogram {
            name: "lp.eta_len".into(),
            count: 2,
            sum: 5,
            min: 2,
            max: 3,
            buckets: vec![(2, 2)],
        },
        Metric::Span {
            path: "pipeline/stage1".into(),
            count: 1,
            total_ns: 1_000,
            min_ns: 1_000,
            max_ns: 1_000,
        },
    ]
}

#[test]
fn a_valid_report_passes_with_and_without_an_expectation() {
    let run = report("valid.jsonl", &run_report());
    let (ok, out) = gate(&[&run]);
    assert!(ok, "{out}");
    let expected = report(
        "valid_expected.jsonl",
        &[
            counter("lp.iterations", 120),
            counter("lp.refactorizations", 7),
        ],
    );
    let (ok, out) = gate(&[
        &run,
        &expected,
        "--require-nonzero",
        "lp.warm_starts_accepted",
    ]);
    assert!(ok, "{out}");
    assert!(
        out.contains("lp.iterations: improved (100 < expected 120)"),
        "{out}"
    );
}

#[test]
fn a_counter_above_or_missing_from_its_expectation_fails_by_name() {
    let run = report("above.jsonl", &run_report());
    let expected = report(
        "above_expected.jsonl",
        &[
            counter("lp.iterations", 99),
            counter("lp.refactorizations", 7),
        ],
    );
    let (ok, out) = gate(&[&run, &expected]);
    assert!(!ok, "{out}");
    assert!(out.contains("lp.iterations: 100 > expected 99"), "{out}");
    assert!(!out.contains("lp.refactorizations"), "{out}");

    let expected = report(
        "missing_expected.jsonl",
        &[counter("lp.iterations", 100), counter("lp.bound_flips", 0)],
    );
    let (ok, out) = gate(&[&run, &expected]);
    assert!(!ok, "{out}");
    assert!(
        out.contains("lp.bound_flips: missing (expected 0)"),
        "{out}"
    );
}

#[test]
fn a_required_counter_that_is_zero_or_absent_fails_by_name() {
    let run = report("required.jsonl", &run_report());
    let (ok, out) = gate(&[&run, "--require-nonzero", "lp.lu_reuse_hits"]);
    assert!(!ok, "{out}");
    assert!(
        out.contains("lp.lu_reuse_hits: required nonzero but is 0"),
        "{out}"
    );

    let (ok, out) = gate(&[&run, "--require-nonzero", "lp.verifications_skipped"]);
    assert!(!ok, "{out}");
    assert!(
        out.contains("lp.verifications_skipped: required nonzero but missing"),
        "{out}"
    );
}

#[test]
fn a_partial_counter_family_fails_by_name() {
    let mut metrics = run_report();
    metrics.extend(
        [
            "cg.rounds",
            "cg.columns_added",
            "cg.pricer_calls",
            "cg.pricing_ns",
            "cg.yen_paths",
        ]
        .map(|n| counter(n, 1)),
    );
    let (ok, out) = gate(&[&report("partial_cg.jsonl", &metrics)]);
    assert!(!ok, "{out}");
    assert!(out.contains("cg.master_lu_reuse_hits: missing"), "{out}");

    metrics.push(counter("cg.master_lu_reuse_hits", 1));
    let (ok, out) = gate(&[&report("full_cg.jsonl", &metrics)]);
    assert!(ok, "{out}");

    metrics.push(counter("mem.bytes_freed", 1));
    let (ok, out) = gate(&[&report("partial_mem.jsonl", &metrics)]);
    assert!(!ok, "{out}");
    assert!(out.contains("mem.bytes_allocated: missing"), "{out}");
}

#[test]
fn a_line_the_writer_could_not_write_fails_with_its_line_number() {
    let text = obs::to_json_lines(&run_report()).replacen("\"value\":7", "\"value\": 7", 1);
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("report_gate_space.jsonl");
    std::fs::write(&path, text).unwrap();
    let (ok, out) = gate(&[path.to_str().unwrap()]);
    assert!(!ok, "{out}");
    assert!(out.contains("invalid report: line 2:"), "{out}");
}

#[test]
fn every_committed_expectation_reads_back_byte_for_byte() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.to_string_lossy().ends_with("_expected.jsonl"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 4, "{files:?}");
    for file in files {
        let text = std::fs::read_to_string(&file).unwrap();
        let metrics =
            obs::parse_json_lines(&text).unwrap_or_else(|e| panic!("{}: {e}", file.display()));
        assert!(!metrics.is_empty(), "{}", file.display());
        assert_eq!(obs::to_json_lines(&metrics), text, "{}", file.display());
    }
}
