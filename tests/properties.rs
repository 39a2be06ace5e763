//! Property-based tests of the scheduling invariants on randomized
//! instances (proptest drives the instance shape; the workload and
//! topology generators provide the determinism under each seed).

use proptest::prelude::*;
use wavesched::core::instance::{Instance, InstanceConfig};
use wavesched::core::lpdar::{adjust_rates, adjust_rates_capped, lpdar, truncate, AdjustOrder};
use wavesched::core::stage1::solve_stage1;
use wavesched::core::stage2::solve_stage2;
use wavesched::net::{waxman_network, PathSet, WaxmanConfig};
use wavesched::workload::{WorkloadConfig, WorkloadGenerator};

/// A random small instance driven by proptest parameters.
fn build_instance(net_seed: u64, job_seed: u64, n_jobs: usize, w: u32, paths: usize) -> Instance {
    let g = waxman_network(&WaxmanConfig {
        nodes: 15,
        link_pairs: 25,
        wavelengths: w,
        alpha: 0.15,
        seed: net_seed,
    });
    let jobs = WorkloadGenerator::new(WorkloadConfig {
        num_jobs: n_jobs,
        seed: job_seed,
        size_gb: (10.0, 150.0),
        window: (2.0, 8.0),
        ..Default::default()
    })
    .generate(&g);
    let cfg = InstanceConfig {
        paths_per_job: paths,
        ..InstanceConfig::paper(w)
    };
    let mut ps = PathSet::new(paths);
    Instance::build(&g, &jobs, &cfg, &mut ps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The full heuristic chain preserves feasibility and the paper's
    /// throughput ordering LPD <= LPDAR, with LP as an upper bound for LPD.
    #[test]
    fn heuristic_chain_invariants(
        net_seed in 0u64..500,
        job_seed in 0u64..500,
        n_jobs in 3usize..12,
        w in 2u32..9,
    ) {
        let inst = build_instance(net_seed, job_seed, n_jobs, w, 3);
        let s1 = solve_stage1(&inst).expect("stage1");
        prop_assert!(s1.z_star >= -1e-9);
        let s2 = solve_stage2(&inst, s1.z_star, 0.1).expect("stage2");
        let lp = s2.schedule;

        let lpd = truncate(&inst, &lp);
        prop_assert!(lpd.is_integral(1e-9));
        prop_assert!(lpd.max_capacity_violation(&inst) < 1e-9);
        // Truncation never increases any assignment.
        for (a, b) in lpd.x.iter().zip(&lp.x) {
            prop_assert!(*a <= b + 1e-6);
        }

        let adj = adjust_rates(&inst, &lpd, AdjustOrder::Paper);
        prop_assert!(adj.is_integral(1e-9));
        prop_assert!(adj.max_capacity_violation(&inst) < 1e-9);
        // Adjustment never decreases any assignment.
        for (a, b) in adj.x.iter().zip(&lpd.x) {
            prop_assert!(*a >= b - 1e-9);
        }
        prop_assert!(lpd.weighted_throughput(&inst) <= adj.weighted_throughput(&inst) + 1e-9);
        prop_assert!(lpd.weighted_throughput(&inst) <= lp.weighted_throughput(&inst) + 1e-6);
    }

    /// The capped adjustment never overshoots demands it could avoid
    /// overshooting, never violates capacity, and always delivers at least
    /// as much per job as the plain truncation.
    #[test]
    fn capped_adjustment_invariants(
        net_seed in 0u64..500,
        job_seed in 0u64..500,
        n_jobs in 3usize..12,
    ) {
        let inst = build_instance(net_seed, job_seed, n_jobs, 2, 3);
        let s1 = solve_stage1(&inst).expect("stage1");
        let s2 = solve_stage2(&inst, s1.z_star, 0.1).expect("stage2");
        let lpd = truncate(&inst, &s2.schedule);
        let capped = adjust_rates_capped(&inst, &lpd, AdjustOrder::Paper);
        prop_assert!(capped.is_integral(1e-9));
        prop_assert!(capped.max_capacity_violation(&inst) < 1e-9);
        for i in 0..inst.num_jobs() {
            let got = capped.transferred(&inst, i);
            let base = lpd.transferred(&inst, i);
            prop_assert!(got >= base - 1e-9);
            // Overshoot is bounded by one unit slice: the final grant takes
            // at most ceil(deficit) wavelengths, so it exceeds the deficit
            // by less than one (unless the base already overshot, hence
            // the max with `base`).
            let over = got - inst.demands[i].max(base);
            prop_assert!(over <= 1.0 + 1e-9, "job {i} overshot by {over}");
        }
    }

    /// Trimming an over-delivering schedule keeps completion and
    /// integrality and never increases any assignment.
    #[test]
    fn trim_to_demand_properties(
        net_seed in 0u64..500,
        job_seed in 0u64..500,
        n_jobs in 3usize..10,
    ) {
        let inst = build_instance(net_seed, job_seed, n_jobs, 4, 3);
        let s1 = solve_stage1(&inst).expect("stage1");
        let s2 = solve_stage2(&inst, s1.z_star, 0.1).expect("stage2");
        let full = lpdar(&inst, &s2.schedule, AdjustOrder::Paper);
        let trimmed = full.trim_to_demand(&inst);
        prop_assert!(trimmed.is_integral(1e-9));
        prop_assert!(trimmed.max_capacity_violation(&inst) < 1e-9);
        for (t, f) in trimmed.x.iter().zip(&full.x) {
            prop_assert!(*t <= f + 1e-12);
            prop_assert!(*t >= -1e-12);
        }
        for i in 0..inst.num_jobs() {
            // Completion status is preserved.
            if full.completes(&inst, i, 1e-6) {
                prop_assert!(trimmed.completes(&inst, i, 1e-6), "job {i} lost completion");
            }
        }
    }

    /// Stage-1 Z* does not increase when jobs are added (monotonicity that
    /// the admission binary search relies on).
    #[test]
    fn z_star_monotone_in_jobs(
        net_seed in 0u64..300,
        job_seed in 0u64..300,
    ) {
        let inst_small = build_instance(net_seed, job_seed, 4, 4, 3);
        // Same generator stream: the first 4 jobs of the 8-job workload are
        // exactly the 4-job workload.
        let inst_large = build_instance(net_seed, job_seed, 8, 4, 3);
        let z_small = solve_stage1(&inst_small).expect("s1").z_star;
        let z_large = solve_stage1(&inst_large).expect("s1").z_star;
        prop_assert!(z_large <= z_small + 1e-6,
            "adding jobs increased Z*: {z_small} -> {z_large}");
    }
}
