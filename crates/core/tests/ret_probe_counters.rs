//! The `ret.probes` counter must report the serial trajectory's probe count
//! at every pool width; mis-speculated work lands in
//! `ret.speculative_probes` only, and only when a round's three candidate
//! probes fit the pool. Lives in its own single-test integration
//! binary because it toggles the process-wide obs registry.

use wavesched_core::instance::InstanceConfig;
use wavesched_core::ret::{solve_ret, RetConfig};
use wavesched_net::abilene14;
use wavesched_obs as obs;
use wavesched_workload::{WorkloadConfig, WorkloadGenerator};

#[test]
fn speculation_counts_only_realized_probes() {
    // Fig. 4-shaped overload: heavy transfers in short windows, so the
    // fractional SUB-RET is infeasible at `b = 0` and the bisection runs.
    let (g, _) = abilene14(2);
    let jobs = WorkloadGenerator::new(WorkloadConfig {
        num_jobs: 10,
        seed: 3000,
        size_gb: (100.0, 400.0),
        window: (2.0, 4.0),
        ..Default::default()
    })
    .generate(&g);
    let cfg = InstanceConfig::paper(2);
    let probes_at = |threads: usize| {
        obs::set_enabled(true);
        obs::reset();
        let ret_cfg = RetConfig {
            threads,
            bsearch_tol: 0.05,
            b_max: 10.0,
            max_delta_steps: 120,
            ..RetConfig::default()
        };
        solve_ret(&g, &jobs, &cfg, &ret_cfg).unwrap().unwrap();
        let snap = obs::snapshot();
        obs::set_enabled(false);
        obs::reset();
        let get = |name: &str| {
            snap.iter().find_map(|m| match m {
                obs::Metric::Counter { name: n, value } if n == name => Some(*value),
                _ => None,
            })
        };
        (get("ret.probes"), get("ret.speculative_probes"))
    };
    let (serial_probes, serial_spec) = probes_at(1);
    assert!(serial_probes.is_some());
    assert_eq!(serial_spec, None, "serial path never speculates");
    // Two workers cannot hold a round's three candidates: three probes on
    // two workers cost what the lazy walk's two realized probes do, so a
    // width-2 pool walks lazily too.
    let (narrow_probes, narrow_spec) = probes_at(2);
    assert_eq!(
        narrow_probes, serial_probes,
        "width 2: realized probe count"
    );
    assert_eq!(narrow_spec, None, "width 2 never speculates");
    let (par_probes, par_spec) = probes_at(4);
    assert_eq!(par_probes, serial_probes, "realized probe count");
    let spec = par_spec.expect("width 4 speculates");
    assert!(
        spec >= par_probes.unwrap() - 2,
        "speculation covers at least the realized midpoints: {spec}"
    );
}
