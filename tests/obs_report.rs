//! Observability-layer integration tests.
//!
//! The `wavesched::obs` enable flag and registry are per thread, and each
//! test runs on its own thread, so neither test can see the other's
//! recordings.

use wavesched::core::instance::{Instance, InstanceConfig};
use wavesched::core::pipeline::max_throughput_pipeline;
use wavesched::net::{waxman_network, PathSet, WaxmanConfig};
use wavesched::obs;
use wavesched::workload::{WorkloadConfig, WorkloadGenerator};

fn run_small_pipeline() {
    let w = 2;
    let g = waxman_network(&WaxmanConfig {
        nodes: 20,
        link_pairs: 40,
        wavelengths: w,
        alpha: 0.15,
        seed: 11,
    });
    let jobs = WorkloadGenerator::new(WorkloadConfig {
        num_jobs: 15,
        seed: 5,
        window: (4.0, 10.0),
        ..Default::default()
    })
    .generate(&g);
    let cfg = InstanceConfig::paper(w);
    let mut ps = PathSet::new(cfg.paths_per_job);
    let inst = Instance::build(&g, &jobs, &cfg, &mut ps);
    max_throughput_pipeline(&inst, 0.1).expect("pipeline solves");
}

/// The whole instrumentation layer must be a single cold branch when
/// disabled: a full pipeline run may not touch the registry at all.
/// `obs::recordings()` counts every recorded event and survives `reset()`,
/// so a zero delta proves the disabled path never crossed the branch.
#[test]
fn instrumentation_is_inert_when_disabled() {
    assert!(!obs::enabled(), "obs must start disabled");
    let before = obs::recordings();
    run_small_pipeline();
    let after = obs::recordings();
    assert_eq!(
        after - before,
        0,
        "disabled obs layer recorded {} events during a pipeline run",
        after - before
    );
    assert!(obs::snapshot().is_empty(), "registry must stay empty");
}

/// `--report` output must parse back to exactly the snapshot it was written
/// from: enable obs, run the pipeline, then round-trip through the
/// JSON-lines writer/parser.
#[test]
fn report_schema_round_trips_from_live_run() {
    obs::set_enabled(true);
    run_small_pipeline();
    obs::set_enabled(false);

    let snap = obs::snapshot();
    assert!(
        !snap.is_empty(),
        "an instrumented pipeline run must produce metrics"
    );
    // A real run exercises all three metric kinds.
    let has = |f: fn(&obs::Metric) -> bool| snap.iter().any(f);
    assert!(has(|m| matches!(m, obs::Metric::Counter { .. })));
    assert!(has(|m| matches!(m, obs::Metric::Histogram { .. })));
    assert!(has(|m| matches!(m, obs::Metric::Span { .. })));
    // Key instruments from each layer are present.
    let counter_names: Vec<&str> = snap
        .iter()
        .filter_map(|m| match m {
            obs::Metric::Counter { name, .. } => Some(name.as_str()),
            _ => None,
        })
        .collect();
    assert!(counter_names.contains(&"lp.solves"));
    assert!(counter_names.contains(&"lp.iterations"));
    let span_paths: Vec<&str> = snap
        .iter()
        .filter_map(|m| match m {
            obs::Metric::Span { path, .. } => Some(path.as_str()),
            _ => None,
        })
        .collect();
    assert!(span_paths.contains(&"pipeline"));
    assert!(span_paths.iter().any(|p| p.starts_with("pipeline/")));

    let text = obs::to_json_lines(&snap);
    let parsed = obs::parse_json_lines(&text).expect("report parses back");
    assert_eq!(parsed, snap, "JSON-lines round trip must be lossless");

    obs::reset();
    assert!(obs::snapshot().is_empty());
}
