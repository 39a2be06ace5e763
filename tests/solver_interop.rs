//! Interop paths around the solver: the CLI-facing trace format pins
//! workloads exactly.

use wavesched::core::instance::{Instance, InstanceConfig};
use wavesched::core::stage1::solve_stage1;
use wavesched::net::{abilene14, PathSet};
use wavesched::workload::{parse_trace, write_trace, WorkloadConfig, WorkloadGenerator};

#[test]
fn trace_pins_workloads_across_networks() {
    let (g, _) = abilene14(4);
    let jobs = WorkloadGenerator::new(WorkloadConfig {
        num_jobs: 30,
        seed: 99,
        ..Default::default()
    })
    .generate(&g);
    let text = write_trace(&jobs);
    let back = parse_trace(&text, &g).unwrap();
    assert_eq!(jobs, back);
    // Scheduling the parsed trace gives bit-identical Z*.
    let cfg = InstanceConfig::paper(4);
    let mut ps1 = PathSet::new(cfg.paths_per_job);
    let mut ps2 = PathSet::new(cfg.paths_per_job);
    let a = solve_stage1(&Instance::build(&g, &jobs, &cfg, &mut ps1)).unwrap();
    let b = solve_stage1(&Instance::build(&g, &back, &cfg, &mut ps2)).unwrap();
    assert_eq!(a.z_star.to_bits(), b.z_star.to_bits());
}
