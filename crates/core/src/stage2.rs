//! Stage 2: weighted throughput with the fairness constraint (paper
//! eqs. 7–10), solved as its LP relaxation.
//!
//! The integer program maximizes `sum_i Z_i D_i / sum_i D_i` subject to
//! `Z_i >= (1 - alpha) Z*` and integral wavelength assignments. Following
//! the paper's heuristic, this module solves the *relaxation*; LPD/LPDAR
//! (see [`mod@crate::lpdar`]) then produce the integer solution. Substituting
//! eq. 8 eliminates the `Z_i` variables: the objective becomes total
//! transferred volume over total demand, and the fairness constraint a
//! per-job lower bound on transferred volume.

use crate::builders::{Form, HeldLp};
use crate::instance::Instance;
use crate::schedule::Schedule;
use wavesched_lp::{Basis, SimplexConfig, SolveError, SolveStats};

/// The job weights `w_i` in the Stage-2 objective `sum_i w_i Z_i / sum_i w_i`.
///
/// The paper weighs jobs by their (normalized) sizes, "giving preference to
/// larger jobs" (eq. 7), and that is the only weighting solved. The type is
/// kept for the one signature that still spells it,
/// [`solve_stage2_weighted_with_start`].
#[derive(Debug, Clone, PartialEq)]
pub enum WeightPolicy {
    /// `w_i = D_i` — the paper's eq. 7.
    DemandProportional,
}

/// Result of the Stage-2 relaxation.
#[derive(Debug, Clone)]
pub struct Stage2Result {
    /// Fractional optimal assignment (the paper's "LP").
    pub schedule: Schedule,
    /// Weighted throughput (eq. 7) of the fractional solution.
    pub objective: f64,
    /// The optimal simplex basis. `None` for empty instances.
    pub basis: Option<Basis>,
    /// Solver work counters.
    pub stats: SolveStats,
}

/// Maps a Stage-1 optimal basis onto the Stage-2 problem over the same
/// instance.
///
/// The two stages share their variable space exactly — one column per
/// assignment variable in [`Instance::vars`] order plus a trailing `Z`
/// column — and their row layout (one row per job, then one per capacity
/// group in sorted key order). Only bounds and costs differ, which warm
/// starting absorbs: the Stage-1 optimal vertex `(x*, Z*)` is feasible for
/// Stage 2 as-is, so the basis transfers verbatim. Returns `None` when the
/// shape doesn't match (`num_vars` is the assignment-variable count,
/// `inst.vars.len()`); callers then simply solve cold. Exposed for the
/// kernel benchmarks.
#[doc(hidden)]
pub fn stage2_basis_from_stage1(stage1: &Basis, num_vars: usize) -> Option<Basis> {
    if stage1.cols.len() != num_vars + 1 {
        return None;
    }
    Some(stage1.clone())
}

/// Solves the Stage-2 relaxation with default simplex settings.
///
/// `z_star` is the Stage-1 maximum concurrent throughput; `alpha` the
/// fairness slack (0.1 in the paper's evaluation).
pub fn solve_stage2(inst: &Instance, z_star: f64, alpha: f64) -> Result<Stage2Result, SolveError> {
    solve_stage2_weighted_with_start(
        inst,
        z_star,
        alpha,
        &WeightPolicy::DemandProportional,
        &SimplexConfig::default(),
        None,
    )
}

/// Solves the Stage-2 relaxation under `cfg`, warm-starting from `start`
/// when given. `_weights` names the one weighting there is.
///
/// With `w_i = D_i`, the objective `sum_i w_i Z_i / sum_i w_i` becomes,
/// after substituting eq. 8, a per-variable cost of `1 / sum_i D_i` (every slice is a unit).
///
/// The natural start is the Stage-1 optimum over the same instance, mapped
/// via [`stage2_basis_from_stage1`]: Stage 2 explores the same polytope from
/// a vertex that already satisfies the capacity rows and sits on the fairness
/// floors. A mismatched basis degrades to a cold solve. Exposed for the
/// kernel benchmarks, which time Stage 2 alone under their own
/// [`SimplexConfig`].
#[doc(hidden)]
pub fn solve_stage2_weighted_with_start(
    inst: &Instance,
    z_star: f64,
    alpha: f64,
    _weights: &WeightPolicy,
    cfg: &SimplexConfig,
    start: Option<&Basis>,
) -> Result<Stage2Result, SolveError> {
    let mut lp = HeldLp::open(inst, cfg)?;
    solve_stage2_on(&mut lp, inst, z_star, alpha, start)
}

/// Stage 2 as a form installed on `lp`, the held LP of `inst` — freshly
/// opened, or the one Stage 1 was just solved on.
pub(crate) fn solve_stage2_on(
    lp: &mut HeldLp,
    inst: &Instance,
    z_star: f64,
    alpha: f64,
    start: Option<&Basis>,
) -> Result<Stage2Result, SolveError> {
    let form = Form::stage2(&inst.demands, z_star, alpha);
    let sol = lp.solve(inst, &form, start, "stage 2")?;
    Ok(Stage2Result {
        schedule: Schedule::from_values(inst, sol.x[..inst.vars.len()].to_vec()),
        objective: sol.objective,
        basis: sol.basis,
        stats: sol.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceConfig;
    use crate::stage1::solve_stage1;
    use wavesched_net::{abilene14, Graph, PathSet};
    use wavesched_workload::{Job, JobId, WorkloadConfig, WorkloadGenerator};

    fn build(graph: &Graph, jobs: &[Job], w: u32) -> Instance {
        let cfg = InstanceConfig::paper(w);
        let mut ps = PathSet::new(cfg.paths_per_job);
        Instance::build(graph, jobs, &cfg, &mut ps)
    }

    #[test]
    fn stage2_at_least_z_star() {
        // Weighted throughput can only improve on the concurrent optimum.
        let (g, _) = abilene14(4);
        let jobs = WorkloadGenerator::new(WorkloadConfig {
            num_jobs: 15,
            seed: 11,
            ..Default::default()
        })
        .generate(&g);
        let inst = build(&g, &jobs, 4);
        let s1 = solve_stage1(&inst).unwrap();
        let s2 = solve_stage2(&inst, s1.z_star, 0.1).unwrap();
        assert!(
            s2.objective >= s1.z_star * (1.0 - 1e-6),
            "stage2 {} < z* {}",
            s2.objective,
            s1.z_star
        );
        // Fairness floors hold.
        for i in 0..inst.num_jobs() {
            assert!(
                s2.schedule.throughput(&inst, i) >= 0.9 * s1.z_star - 1e-6,
                "job {i} throughput {} below fairness floor",
                s2.schedule.throughput(&inst, i)
            );
        }
        assert!(s2.schedule.max_capacity_violation(&inst) < 1e-6);
        // Objective matches the schedule's weighted throughput.
        assert!((s2.schedule.weighted_throughput(&inst) - s2.objective).abs() < 1e-6);
    }

    #[test]
    fn favors_larger_jobs_under_overload() {
        // One link, capacity 1, 2 slices; small job (1 unit) and large job
        // (4 units). Weighted objective prefers the large job beyond the
        // fairness floor.
        let mut g = Graph::new();
        let ns = g.add_nodes(2);
        g.add_link_pair(ns[0], ns[1], 1);
        // paper(1): 150 GB per unit.
        let small = Job::new(JobId(0), 0.0, ns[0], ns[1], 150.0, 0.0, 2.0);
        let large = Job::new(JobId(1), 0.0, ns[0], ns[1], 600.0, 0.0, 2.0);
        let inst = build(&g, &[small, large], 1);
        let s1 = solve_stage1(&inst).unwrap();
        // Z* = 2 / 5.
        assert!((s1.z_star - 0.4).abs() < 1e-6);
        let s2 = solve_stage2(&inst, s1.z_star, 0.1).unwrap();
        let z_small = s2.schedule.throughput(&inst, 0);
        let z_large = s2.schedule.throughput(&inst, 1);
        // Both meet the floor 0.9 * 0.4 = 0.36.
        assert!(z_small >= 0.36 - 1e-6);
        assert!(z_large >= 0.36 - 1e-6);
        // Weighted throughput is at least Z* and capacity is saturated:
        // total moved = 2 units => objective = 2/5.
        assert!((s2.objective - 0.4).abs() < 1e-6);
    }

    #[test]
    fn alpha_zero_pins_fairness() {
        let (g, _) = abilene14(4);
        let jobs = WorkloadGenerator::new(WorkloadConfig {
            num_jobs: 8,
            seed: 4,
            ..Default::default()
        })
        .generate(&g);
        let inst = build(&g, &jobs, 4);
        let s1 = solve_stage1(&inst).unwrap();
        let s2 = solve_stage2(&inst, s1.z_star, 0.0).unwrap();
        for i in 0..inst.num_jobs() {
            assert!(s2.schedule.throughput(&inst, i) >= s1.z_star - 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn alpha_out_of_range_panics() {
        let (g, _) = abilene14(4);
        let inst = build(&g, &[], 4);
        let _ = solve_stage2(&inst, 1.0, 1.5);
    }

    #[test]
    fn warm_start_from_stage1_matches_cold() {
        let (g, _) = abilene14(4);
        let jobs = WorkloadGenerator::new(WorkloadConfig {
            num_jobs: 15,
            seed: 11,
            ..Default::default()
        })
        .generate(&g);
        let inst = build(&g, &jobs, 4);
        let cfg = SimplexConfig::default();
        let s1 = solve_stage1(&inst).unwrap();
        let start = stage2_basis_from_stage1(s1.basis.as_ref().unwrap(), inst.vars.len())
            .expect("stage1/stage2 shapes match by construction");

        let cold = solve_stage2(&inst, s1.z_star, 0.1).unwrap();
        let warm = solve_stage2_weighted_with_start(
            &inst,
            s1.z_star,
            0.1,
            &WeightPolicy::DemandProportional,
            &cfg,
            Some(&start),
        )
        .unwrap();

        assert!(
            (warm.objective - cold.objective).abs() < 1e-9,
            "warm {} vs cold {}",
            warm.objective,
            cold.objective
        );
        assert_eq!(warm.stats.warm_starts_accepted, 1, "warm start rejected");
        assert!(
            warm.stats.iterations <= cold.stats.iterations,
            "warm start did more work: {} vs {}",
            warm.stats.iterations,
            cold.stats.iterations
        );
        assert!(warm.schedule.max_capacity_violation(&inst) < 1e-6);
    }

    #[test]
    fn mismatched_stage1_shape_gives_no_stage2_basis() {
        let b = Basis {
            cols: vec![wavesched_lp::BasisStatus::AtLower; 5],
            rows: vec![],
        };
        assert!(stage2_basis_from_stage1(&b, 5).is_none());
        assert!(stage2_basis_from_stage1(&b, 4).is_some());
    }
}
