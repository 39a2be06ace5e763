//! Differential testing: delayed column generation against the monolithic
//! full-materialization solves, on randomized instances.
//!
//! The two paths share the simplex engine but nothing of the model build:
//! the monolithic side enumerates every `(job, path, slice)` Yen column up
//! front, the column-generation side grows a restricted master one priced
//! column at a time. Agreement on objectives is therefore strong evidence
//! that the pricing loop's optimality certificate (no out-of-pool column
//! with positive reduced cost) is implemented correctly.
//!
//! Both sides are driven through the crate's entry points only —
//! [`max_throughput_pipeline_colgen`] against [`solve_stage1`] /
//! [`solve_stage2`], [`solve_ret_colgen`] against [`solve_ret`] — so the
//! master and its pool stay the crate's internals.
//!
//! Both sides route each job over the same Yen paths, so Stage-1 `Z*`, the
//! Stage-2 weighted objective, and RET's `b̂` must all match the monolithic
//! results to tolerance, over no more columns.

use proptest::prelude::*;
use wavesched_core::colgen::ColGenConfig;
use wavesched_core::instance::{Instance, InstanceConfig};
use wavesched_core::pipeline::{max_throughput_pipeline_colgen, PipelineResult};
use wavesched_core::ret::{solve_ret, solve_ret_colgen, RetConfig};
use wavesched_core::stage1::solve_stage1;
use wavesched_core::stage2::solve_stage2;
use wavesched_net::{abilene14, waxman_network, Graph, PathSet, WaxmanConfig};
use wavesched_workload::{Job, WorkloadConfig, WorkloadGenerator};

const TOL: f64 = 1e-6;

fn workload(g: &Graph, n_jobs: usize, seed: u64) -> Vec<Job> {
    WorkloadGenerator::new(WorkloadConfig {
        num_jobs: n_jobs,
        seed,
        ..Default::default()
    })
    .generate(g)
}

fn monolithic(g: &Graph, jobs: &[Job], cfg: &InstanceConfig) -> Instance {
    let mut ps = PathSet::new(cfg.paths_per_job);
    Instance::build(g, jobs, cfg, &mut ps)
}

/// The column-generated pipeline, with the instance its converged pool
/// materialized into.
fn cg_pipeline(g: &Graph, jobs: &[Job], cfg: &InstanceConfig) -> (PipelineResult, Instance) {
    let (r, inst, _) = max_throughput_pipeline_colgen(g, jobs, cfg, 0.1).expect("cg pipeline");
    (r, inst)
}

/// Stage-1 + Stage-2 agreement on one instance: column generation must
/// match the monolithic objectives.
fn check_pipeline_agreement(g: &Graph, jobs: &[Job], cfg: &InstanceConfig, label: &str) {
    let inst = monolithic(g, jobs, cfg);
    let mono1 = solve_stage1(&inst).expect("monolithic stage 1");
    let mono2 = solve_stage2(&inst, mono1.z_star, 0.1).expect("monolithic stage 2");

    let (cg, cg_inst) = cg_pipeline(g, jobs, cfg);
    assert!(
        (cg.z_star - mono1.z_star).abs() <= TOL * (1.0 + mono1.z_star.abs()),
        "{label}: stage-1 mismatch cg={} monolithic={}",
        cg.z_star,
        mono1.z_star
    );
    assert!(
        (cg.lp_throughput - mono2.objective).abs() <= 1e-5 * (1.0 + mono2.objective.abs()),
        "{label}: stage-2 mismatch cg={} monolithic={}",
        cg.lp_throughput,
        mono2.objective
    );

    // The restricted master held a subset of the monolithic columns.
    assert!(
        cg_inst.vars.len() <= inst.vars.len(),
        "{label}: pool {} exceeds monolithic {}",
        cg_inst.vars.len(),
        inst.vars.len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random Waxman topologies and workloads: column generation agrees
    /// with full materialization on both pipeline stages.
    #[test]
    fn waxman_pipeline_agrees(
        nodes in 8usize..16,
        seed in 0u64..1_000,
        n_jobs in 1usize..8,
        wavelengths in 1u32..4,
    ) {
        let g = waxman_network(&WaxmanConfig {
            nodes,
            link_pairs: nodes * 2,
            wavelengths,
            alpha: 0.3,
            seed,
        });
        let jobs = workload(&g, n_jobs, seed.wrapping_mul(31).wrapping_add(7));
        let cfg = InstanceConfig::paper(wavelengths);
        check_pipeline_agreement(&g, &jobs, &cfg, &format!("waxman n={nodes} seed={seed}"));
    }

    /// The Abilene reference topology under random workloads.
    #[test]
    fn abilene_pipeline_agrees(seed in 0u64..1_000, n_jobs in 1usize..10) {
        let (g, _) = abilene14(4);
        let jobs = workload(&g, n_jobs, seed);
        let cfg = InstanceConfig::paper(4);
        check_pipeline_agreement(&g, &jobs, &cfg, &format!("abilene seed={seed}"));
    }

    /// RET differential: the column-generation bisection lands on the same
    /// fractional extension `b̂` as the monolithic search (identical probe
    /// sequence over the same Yen universe), and the final extension
    /// completes every job in both.
    #[test]
    fn ret_bisection_agrees(seed in 0u64..500, n_jobs in 2usize..7) {
        let (g, _) = abilene14(2);
        let jobs = WorkloadGenerator::new(WorkloadConfig {
            num_jobs: n_jobs,
            seed,
            size_gb: (50.0, 200.0),
            window: (2.0, 5.0),
            ..Default::default()
        })
        .generate(&g);
        let cfg = InstanceConfig::paper(2);
        let ret_cfg = RetConfig::default();
        let mono = solve_ret(&g, &jobs, &cfg, &ret_cfg).expect("monolithic ret");
        let colgen = solve_ret_colgen(&g, &jobs, &cfg, &ret_cfg, &ColGenConfig::default())
            .expect("cg ret");
        match (&mono, &colgen) {
            (None, None) => {}
            (Some(m), Some((c, _))) => {
                prop_assert!(
                    (m.b_lp - c.b_lp).abs() <= 1e-9,
                    "b_lp mismatch: monolithic {} cg {}", m.b_lp, c.b_lp
                );
            }
            // Growth is capped at the b_max envelope on the CG side while
            // the monolithic path may take one final step past it (a
            // documented difference), so "monolithic completes, CG
            // doesn't" is possible only in that overhang; the reverse
            // direction would be a bug.
            (Some(m), None) => {
                prop_assert!(
                    m.b_final > ret_cfg.b_max,
                    "cg found nothing but monolithic finished at b={} <= b_max", m.b_final
                );
            }
            (None, Some((c, _))) => {
                prop_assert!(false, "monolithic found nothing but cg finished at b={}", c.b_final);
            }
        }
    }
}
