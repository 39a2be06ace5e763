//! Pool ↔ observability integration: spans opened inside pool tasks must
//! aggregate under the spawning span's path, for every pool width, so
//! `--report` span trees look the same whether the work ran serial or
//! parallel. Lives in its own integration binary, as one test function,
//! because it toggles the process-wide obs registry.

use wavesched_obs as obs;

#[test]
fn pool_tasks_nest_under_spawning_span() {
    obs::set_enabled(true);
    for width in [1usize, 4] {
        obs::reset();
        {
            let _sweep = obs::span("sweep");
            let out = wavesched_par::par_map_indexed_with(width, 8, |i| {
                let _point = obs::span("point");
                i * 3
            });
            assert_eq!(out, (0..8).map(|i| i * 3).collect::<Vec<_>>());
        }
        let snap = obs::snapshot();
        let count = |want: &str| {
            snap.iter().find_map(|m| match m {
                obs::Metric::Span { path, count, .. } if path == want => Some(*count),
                _ => None,
            })
        };
        assert_eq!(count("sweep"), Some(1), "width {width}");
        assert_eq!(
            count("sweep/point"),
            Some(8),
            "width {width}: task spans must fold under the spawning span"
        );
        assert!(
            !snap
                .iter()
                .any(|m| matches!(m, obs::Metric::Span { path, .. } if path == "point")),
            "width {width}: no orphan root-level task spans"
        );
    }

    obs::set_enabled(false);
    obs::reset();
}
