//! Stage 1: the maximum concurrent throughput LP (paper eqs. 1–5).
//!
//! Pretending bandwidth is infinitely divisible, find the largest `Z` such
//! that every job can move `Z · D_i` within its window under the link
//! capacities. `Z* < 1` means the network is overloaded; `Z* >= 1` means
//! every deadline can be met (and demands could even be scaled up by `Z*`).

use crate::builders::{Form, HeldLp};
use crate::instance::Instance;
use crate::schedule::Schedule;
use wavesched_lp::{Basis, SimplexConfig, SolveError, SolveStats};
use wavesched_obs as obs;

/// Result of the Stage-1 solve.
#[derive(Debug, Clone)]
pub struct Stage1Result {
    /// The maximum concurrent throughput `Z*`.
    pub z_star: f64,
    /// The fractional assignment achieving `Z*`.
    pub schedule: Schedule,
    /// The optimal simplex basis, from which Stage 2 over the same instance
    /// enters (see
    /// [`stage2_basis_from_stage1`](crate::stage2::stage2_basis_from_stage1)).
    /// `None` for empty instances.
    pub basis: Option<Basis>,
    /// Solver work counters.
    pub stats: SolveStats,
}

/// Solves the Stage-1 MCF.
pub fn solve_stage1(inst: &Instance) -> Result<Stage1Result, SolveError> {
    open_stage1(inst).map(|(_, s1)| s1)
}

/// Builds the Stage-1 LP without solving it. Exposed for the kernel
/// benchmarks, which probe the raw pivot loop on the paper-scale model.
#[doc(hidden)]
pub use crate::builders::build_stage1_problem;

/// Opens the held LP of `inst` and solves Stage 1 on it cold. The LP comes
/// back with the result: Stage 2 is a form installed on it, not a second
/// build.
pub(crate) fn open_stage1(inst: &Instance) -> Result<(HeldLp, Stage1Result), SolveError> {
    let _span = obs::span("stage1");
    let mut lp = HeldLp::open(inst, &SimplexConfig::default())?;
    let sol = lp.solve(inst, &Form::Stage1, None, "stage 1")?;
    let s1 = Stage1Result {
        z_star: sol.objective,
        schedule: Schedule::from_values(inst, sol.x[..inst.vars.len()].to_vec()),
        basis: sol.basis,
        stats: sol.stats,
    };
    Ok((lp, s1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceConfig;
    use wavesched_net::{abilene14, Graph, PathSet};
    use wavesched_workload::{Job, JobId, WorkloadConfig, WorkloadGenerator};

    fn build(graph: &Graph, jobs: &[Job], w: u32) -> Instance {
        let cfg = InstanceConfig::paper(w);
        let mut ps = PathSet::new(cfg.paths_per_job);
        Instance::build(graph, jobs, &cfg, &mut ps)
    }

    #[test]
    fn single_job_exact_fit() {
        // Two nodes, one link pair with 1 wavelength; demand exactly fills
        // the window => Z* = 1.
        let mut g = Graph::new();
        let ns = g.add_nodes(2);
        g.add_link_pair(ns[0], ns[1], 1);
        // 4 slices, demand 4 units: 4 slices * 1 wavelength = 4.
        // With paper(1): 20 Gbps per lambda, 60 s slices => 150 GB/unit.
        let job = Job::new(JobId(0), 0.0, ns[0], ns[1], 600.0, 0.0, 4.0);
        let inst = build(&g, &[job], 1);
        assert!((inst.demands[0] - 4.0).abs() < 1e-9);
        let r = solve_stage1(&inst).unwrap();
        assert!((r.z_star - 1.0).abs() < 1e-6, "Z* = {}", r.z_star);
        // The schedule must actually move Z* * D.
        assert!((r.schedule.transferred(&inst, 0) - 4.0).abs() < 1e-6);
        assert_eq!(r.schedule.max_capacity_violation(&inst), 0.0);
    }

    #[test]
    fn overload_gives_z_below_one() {
        let mut g = Graph::new();
        let ns = g.add_nodes(2);
        g.add_link_pair(ns[0], ns[1], 1);
        // Demand 8 units in a 4-slice window on a 1-wavelength link: Z*=0.5.
        let job = Job::new(JobId(0), 0.0, ns[0], ns[1], 1200.0, 0.0, 4.0);
        let inst = build(&g, &[job], 1);
        let r = solve_stage1(&inst).unwrap();
        assert!((r.z_star - 0.5).abs() < 1e-6, "Z* = {}", r.z_star);
    }

    #[test]
    fn fairness_is_common_factor() {
        // Two jobs share one link; capacity 2, window 2 slices each.
        let mut g = Graph::new();
        let ns = g.add_nodes(2);
        g.add_link_pair(ns[0], ns[1], 2);
        // paper(2): 10 Gbps per lambda, 75 GB per unit.
        // Job sizes 150 GB (2 units) and 300 GB (4 units); capacity over
        // 2 slices is 4 wavelength-slices => Z* = 4 / 6.
        let j1 = Job::new(JobId(0), 0.0, ns[0], ns[1], 150.0, 0.0, 2.0);
        let j2 = Job::new(JobId(1), 0.0, ns[0], ns[1], 300.0, 0.0, 2.0);
        let inst = build(&g, &[j1, j2], 2);
        let r = solve_stage1(&inst).unwrap();
        assert!((r.z_star - 4.0 / 6.0).abs() < 1e-6, "Z* = {}", r.z_star);
        // Both jobs get exactly Z* of their demand.
        for i in 0..2 {
            assert!((r.schedule.throughput(&inst, i) - r.z_star).abs() < 1e-6);
        }
    }

    #[test]
    fn multipath_improves_throughput() {
        // Diamond: 0 -> {1,2} -> 3, each link 1 wavelength. A single job
        // 0->3 can use both 2-hop paths => Z* doubles vs single path.
        let mut g = Graph::new();
        let ns = g.add_nodes(4);
        g.add_link_pair(ns[0], ns[1], 1);
        g.add_link_pair(ns[1], ns[3], 1);
        g.add_link_pair(ns[0], ns[2], 1);
        g.add_link_pair(ns[2], ns[3], 1);
        // Demand 4 units over 2 slices. One path: 2 units max (Z = 0.5);
        // two paths: 4 units (Z = 1).
        let job = Job::new(JobId(0), 0.0, ns[0], ns[3], 600.0, 0.0, 2.0);
        let cfg = InstanceConfig {
            paths_per_job: 4,
            ..InstanceConfig::paper(1)
        };
        let mut ps = PathSet::new(cfg.paths_per_job);
        let inst = Instance::build(&g, &[job], &cfg, &mut ps);
        assert!((inst.demands[0] - 4.0).abs() < 1e-9);
        let r = solve_stage1(&inst).unwrap();
        assert!((r.z_star - 1.0).abs() < 1e-6, "Z* = {}", r.z_star);

        let cfg1 = InstanceConfig {
            paths_per_job: 1,
            ..cfg
        };
        let mut ps1 = PathSet::new(1);
        let inst1 = Instance::build(&g, &[inst.jobs[0].clone()], &cfg1, &mut ps1);
        let r1 = solve_stage1(&inst1).unwrap();
        assert!((r1.z_star - 0.5).abs() < 1e-6, "Z* = {}", r1.z_star);
    }

    #[test]
    fn abilene_random_workload_sane() {
        let (g, _) = abilene14(4);
        let jobs = WorkloadGenerator::new(WorkloadConfig {
            num_jobs: 12,
            seed: 3,
            ..Default::default()
        })
        .generate(&g);
        let inst = build(&g, &jobs, 4);
        let r = solve_stage1(&inst).unwrap();
        assert!(r.z_star > 0.0);
        assert!(r.schedule.max_capacity_violation(&inst) < 1e-6);
        // Every job moved exactly Z* of its demand.
        for i in 0..inst.num_jobs() {
            assert!(
                (r.schedule.throughput(&inst, i) - r.z_star).abs() < 1e-5,
                "job {i}: {} vs Z*={}",
                r.schedule.throughput(&inst, i),
                r.z_star
            );
        }
    }

    #[test]
    fn empty_instance() {
        let (g, _) = abilene14(4);
        let inst = build(&g, &[], 4);
        let r = solve_stage1(&inst).unwrap();
        assert!(r.z_star.is_infinite());
    }

    #[test]
    fn unschedulable_job_forces_zero() {
        let (g, nodes) = abilene14(4);
        // Window too short for a full slice: no variables => Z* = 0.
        let job = Job::new(JobId(0), 0.0, nodes[0], nodes[1], 10.0, 0.2, 0.8);
        let inst = build(&g, &[job], 4);
        let r = solve_stage1(&inst).unwrap();
        assert!(r.z_star.abs() < 1e-9);
    }
}
