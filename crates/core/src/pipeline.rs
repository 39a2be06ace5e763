//! The end-to-end "maximizing throughput with end-time guarantee" pipeline
//! (paper Section II-B), with the per-stage timings reported in Fig. 3.
//!
//! Runs Stage 1 (maximum concurrent throughput `Z*`), Stage 2 (weighted
//! throughput LP with the fairness floor), then LPD and LPDAR. The paper's
//! timing convention is followed: the reported LPD time includes the LP
//! solve it discretizes, and the LPDAR time includes both.

use crate::arena::BuildArena;
use crate::builders::{Form, HeldLp};
use crate::colgen::{CgMaster, CgStats};
use crate::instance::{Instance, InstanceConfig};
use crate::lpdar::{adjust_rates, truncate, AdjustOrder};
use crate::schedule::Schedule;
use crate::stage1::{open_stage1, Stage1Result};
use crate::stage2::{solve_stage2_on, WeightPolicy};
use std::time::{Duration, Instant};
use wavesched_lp::{Basis, SolveError, SolveStats};
use wavesched_net::Graph;
use wavesched_obs as obs;
use wavesched_workload::Job;

/// Everything the Fig. 1–3 experiments need from one pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// Stage-1 maximum concurrent throughput.
    pub z_star: f64,
    /// Fractional Stage-2 schedule (the paper's "LP").
    pub lp: Schedule,
    /// Truncated schedule (the paper's "LPD").
    pub lpd: Schedule,
    /// Adjusted schedule (the paper's "LPDAR").
    pub lpdar: Schedule,
    /// Weighted throughput (eq. 7) of LP.
    pub lp_throughput: f64,
    /// Weighted throughput of LPD.
    pub lpd_throughput: f64,
    /// Weighted throughput of LPDAR.
    pub lpdar_throughput: f64,
    /// Time to solve Stage 1.
    pub stage1_time: Duration,
    /// Cumulative time to produce LP (stage 1 + stage 2 solves).
    pub lp_time: Duration,
    /// Cumulative time to produce LPD (LP + truncation).
    pub lpd_time: Duration,
    /// Cumulative time to produce LPDAR (LPD + Algorithm 1).
    pub lpdar_time: Duration,
    /// Stage-1 optimal basis, for warm-starting the next structurally
    /// identical pipeline run (e.g. the following controller period).
    pub stage1_basis: Option<Basis>,
    /// Aggregated solver work counters across both stages.
    pub stats: SolveStats,
}

impl PipelineResult {
    /// LPD throughput normalized by LP's (the paper's Fig. 1/2 y-axis).
    ///
    /// When `lp_throughput` is zero (nothing schedulable, so LP, LPD and
    /// LPDAR all moved nothing) the ratio is reported as 1.0 — the
    /// discretization lost nothing — rather than the NaN a literal `0/0`
    /// would give.
    pub fn lpd_normalized(&self) -> f64 {
        // Exact-zero guard against a literal 0/0: any nonzero throughput,
        // however small, is a meaningful denominator.
        if self.lp_throughput == 0.0 {
            return 1.0;
        }
        self.lpd_throughput / self.lp_throughput
    }

    /// LPDAR throughput normalized by LP's.
    ///
    /// Reports 1.0 when `lp_throughput` is zero; see [`lpd_normalized`].
    ///
    /// [`lpd_normalized`]: PipelineResult::lpd_normalized
    pub fn lpdar_normalized(&self) -> f64 {
        // Exact-zero guard against a literal 0/0: any nonzero throughput,
        // however small, is a meaningful denominator.
        if self.lp_throughput == 0.0 {
            return 1.0;
        }
        self.lpdar_throughput / self.lp_throughput
    }
}

/// Runs the two-stage pipeline with the paper's visit order on **one held
/// LP**: opened once, solved in Stage-1 form, then handed to
/// `pipeline_from_stage1`.
pub fn max_throughput_pipeline(inst: &Instance, alpha: f64) -> Result<PipelineResult, SolveError> {
    let _pipeline_span = obs::span("pipeline");
    #[expect(
        clippy::disallowed_methods,
        reason = "stage timings are reporting-only fields of PipelineResult; no scheduling decision reads them"
    )]
    let t0 = Instant::now();
    let (mut lp, s1) = open_stage1(inst, None, &mut BuildArena::new())?;
    pipeline_from_stage1(inst, &mut lp, s1, alpha, t0)
}

/// The pipeline after its first stage: installs Stage 2 on `lp` — the held
/// LP of `inst`, on which `s1` was just solved — and discretizes. The
/// controller enters here, because its overload test *is* that Stage-1
/// solve. `t0` is when the run started, for the cumulative timings.
pub(crate) fn pipeline_from_stage1(
    inst: &Instance,
    lp: &mut HeldLp,
    s1: Stage1Result,
    alpha: f64,
    t0: Instant,
) -> Result<PipelineResult, SolveError> {
    let stage1_time = t0.elapsed();
    let s2 = {
        let _s = obs::span("stage2");
        // The Stage-1 optimum is offered as a snapshot (install + refactor),
        // the entry a one-shot Stage 2 takes, although the session still
        // holds that very basis factored: entering on the carried factors
        // reaches the same optimum through another vertex, and every answer
        // pin downstream is a function of the vertex. Switching rungs is
        // ROADMAP item 1 (c) and waits for that item's vertex contract.
        solve_stage2_on(
            lp,
            inst,
            s1.z_star,
            alpha,
            &WeightPolicy::DemandProportional,
            s1.basis.as_ref(),
        )?
    };

    let mut stats = s1.stats;
    stats.merge(&s2.stats);
    let mut r = discretize(inst, t0, s1.z_star, stage1_time, s2.schedule, stats);
    r.stage1_basis = s1.basis;
    Ok(r)
}

/// The tail both pipelines share: discretizes the fractional `lp` (LPD,
/// then LPDAR in the paper's visit order) and assembles the result with the
/// cumulative timings off `t0`. `stage1_basis` is left `None` for the
/// caller to fill.
fn discretize(
    inst: &Instance,
    t0: Instant,
    z_star: f64,
    stage1_time: Duration,
    lp: Schedule,
    stats: SolveStats,
) -> PipelineResult {
    let lp_time = t0.elapsed();

    let lpd = {
        let _s = obs::span("lpd");
        truncate(inst, &lp)
    };
    let lpd_time = t0.elapsed();

    let adj = {
        let _s = obs::span("lpdar");
        adjust_rates(inst, &lpd, AdjustOrder::Paper)
    };
    let lpdar_time = t0.elapsed();

    PipelineResult {
        z_star,
        lp_throughput: lp.weighted_throughput(inst),
        lpd_throughput: lpd.weighted_throughput(inst),
        lpdar_throughput: adj.weighted_throughput(inst),
        lp,
        lpd,
        lpdar: adj,
        stage1_time,
        lp_time,
        lpd_time,
        lpdar_time,
        stage1_basis: None,
        stats,
    }
}

/// Runs the two-stage pipeline under delayed column generation.
///
/// Instead of materializing every Yen column up front, a single restricted
/// master is seeded with each job's shortest path, driven over the same
/// `icfg.paths_per_job` Yen paths [`max_throughput_pipeline`] solves over to
/// the Stage-1 optimum by the price–resolve loop, switched to Stage-2 form
/// in place (pool, capacity rows and basis all carry over), and priced out
/// again. The converged pool then materializes into a standard
/// [`Instance`] — typically a small fraction of the exhaustive column
/// count — on which LPD/LPDAR run unchanged.
///
/// Returns the pipeline result, the materialized instance (callers need it
/// for schedule metrics), and the column-generation work counters.
/// `stage1_basis` is `None`: the basis lives inside the master's solver
/// session, which this function consumes.
pub fn max_throughput_pipeline_colgen(
    graph: &Graph,
    jobs: &[Job],
    icfg: &InstanceConfig,
    alpha: f64,
) -> Result<(PipelineResult, Instance, CgStats), SolveError> {
    if jobs.is_empty() {
        // Nothing to price: the monolithic pipeline's answer over no jobs.
        let inst = Instance::build_with_paths(graph, &[], Vec::new(), icfg, Vec::new());
        let r = max_throughput_pipeline(&inst, alpha)?;
        return Ok((r, inst, CgStats::default()));
    }
    let _pipeline_span = obs::span("pipeline");
    #[expect(
        clippy::disallowed_methods,
        reason = "stage timings are reporting-only fields of PipelineResult; no scheduling decision reads them"
    )]
    let t0 = Instant::now();

    let demands: Vec<f64> = jobs.iter().map(|j| icfg.demand_units(j.size_gb)).collect();
    let mut master = CgMaster::build(graph, jobs, demands, icfg)?;

    let z_star = {
        let _s = obs::span("stage1");
        master.solve_form(Form::Stage1)?.objective
    };
    let stage1_time = t0.elapsed();

    // Stage 2 on the master Stage 1 converged on: only costs and bounds
    // change, so the pool, the capacity rows and the optimal basis carry
    // over and pricing adds only what the weighted objective makes
    // attractive.
    let sol = {
        let _s = obs::span("stage2");
        let weights = WeightPolicy::DemandProportional;
        let form = Form::stage2(master.demands(), z_star, alpha, &weights);
        master.solve_form(form)?
    };

    let inst = master.materialize();
    let lp = Schedule::from_values(&inst, master.values_on(&inst, &sol.x));
    let r = discretize(&inst, t0, z_star, stage1_time, lp, master.session_stats());
    Ok((r, inst, master.stats()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceConfig;
    use wavesched_net::{abilene14, PathSet};
    use wavesched_workload::{WorkloadConfig, WorkloadGenerator};

    fn abilene_instance(n_jobs: usize, w: u32, seed: u64) -> Instance {
        let (g, _) = abilene14(w);
        let jobs = WorkloadGenerator::new(WorkloadConfig {
            num_jobs: n_jobs,
            seed,
            ..Default::default()
        })
        .generate(&g);
        let cfg = InstanceConfig::paper(w);
        let mut ps = PathSet::new(cfg.paths_per_job);
        Instance::build(&g, &jobs, &cfg, &mut ps)
    }

    #[test]
    fn pipeline_orderings_hold() {
        let inst = abilene_instance(12, 2, 21);
        let r = max_throughput_pipeline(&inst, 0.1).unwrap();
        assert!(r.lpd_throughput <= r.lpdar_throughput + 1e-9);
        assert!(r.lpd_normalized() <= 1.0 + 1e-9);
        // Timing accumulates monotonically.
        assert!(r.stage1_time <= r.lp_time);
        assert!(r.lp_time <= r.lpd_time);
        assert!(r.lpd_time <= r.lpdar_time);
        // Outputs are consistent with the schedules.
        assert!((r.lp.weighted_throughput(&inst) - r.lp_throughput).abs() < 1e-12);
        assert!(r.lpdar.is_integral(1e-9));
        assert!(r.lpdar.max_capacity_violation(&inst) < 1e-9);
    }

    #[test]
    fn lpdar_recovers_most_of_lp_on_abilene() {
        // The paper's headline: LPDAR ~ LP on Abilene even at 2 wavelengths.
        let inst = abilene_instance(10, 2, 33);
        let r = max_throughput_pipeline(&inst, 0.1).unwrap();
        assert!(
            r.lpdar_normalized() > 0.8,
            "LPDAR only reached {} of LP",
            r.lpdar_normalized()
        );
        // And LPD should be visibly worse or equal.
        assert!(r.lpd_normalized() <= r.lpdar_normalized() + 1e-9);
    }

    #[test]
    fn normalized_ratios_defined_when_nothing_schedulable() {
        // A job whose window can't fit a single slice produces an LP
        // throughput of exactly zero; the normalized ratios must report a
        // lossless 1.0, not NaN.
        use wavesched_net::abilene14;
        use wavesched_workload::{Job, JobId};
        let (g, nodes) = abilene14(2);
        let job = Job::new(JobId(0), 0.0, nodes[0], nodes[1], 10.0, 0.2, 0.8);
        let cfg = InstanceConfig::paper(2);
        let mut ps = PathSet::new(cfg.paths_per_job);
        let inst = Instance::build(&g, &[job], &cfg, &mut ps);
        let r = max_throughput_pipeline(&inst, 0.1).unwrap();
        assert_eq!(r.lp_throughput, 0.0);
        assert_eq!(r.lpd_normalized(), 1.0);
        assert_eq!(r.lpdar_normalized(), 1.0);
    }

    #[test]
    fn warmed_pipeline_matches_cold_and_saves_work() {
        // Re-running the pipeline on the same instance, warm-started from
        // the previous run's Stage-1 basis, must reproduce the same optima
        // with both warm starts accepted.
        let inst = abilene_instance(12, 2, 21);
        let mut arena = BuildArena::new();
        // The controller's sequence: Stage 1 from the carried basis on a
        // freshly opened LP, then the rest of the pipeline on that LP.
        let mut run = |start: Option<&Basis>| {
            #[expect(
                clippy::disallowed_methods,
                reason = "the stage timings need a start; the test asserts on optima and counters, never on a timing"
            )]
            let t0 = Instant::now();
            let (mut lp, s1) = open_stage1(&inst, start, &mut arena).unwrap();
            pipeline_from_stage1(&inst, &mut lp, s1, 0.1, t0).unwrap()
        };
        let cold = run(None);
        let warm = run(cold.stage1_basis.as_ref());
        assert!((warm.z_star - cold.z_star).abs() < 1e-9);
        assert!((warm.lp_throughput - cold.lp_throughput).abs() < 1e-9);
        // Stage 1 re-solve and Stage 2 both start from optimal bases.
        assert_eq!(warm.stats.warm_starts_accepted, 2);
        assert!(warm.stats.iterations <= cold.stats.iterations);
    }

    #[test]
    fn discretization_gap_shrinks_with_wavelengths() {
        // More wavelengths => truncation loses proportionally less.
        let gap = |w: u32| {
            let inst = abilene_instance(10, w, 50);
            let r = max_throughput_pipeline(&inst, 0.1).unwrap();
            1.0 - r.lpd_normalized()
        };
        let g2 = gap(2);
        let g16 = gap(16);
        assert!(
            g16 <= g2 + 0.05,
            "LPD gap did not shrink: w=2 gap {g2}, w=16 gap {g16}"
        );
    }
}
