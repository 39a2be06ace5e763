//! A column's key names the same column in every period: the ceiling of a
//! Stage-1 basis carried from one controller period to the next.
//!
//! [`VarMap::key`] is `(job id, Yen rank of the path, absolute slice)`.
//! This test replays the `stream --smoke` workload shape (Abilene at four
//! wavelengths, two paths a job, τ = 4, Poisson arrivals at 20 a slice in
//! 4–8-slice windows) through a [`Controller`], executing each schedule
//! for its period as the simulator does. Each period's Stage-1 optimal
//! basis is mapped onto the next period's instance key by key, and every
//! column that maps must be the same job on the same path in the same
//! slice on both sides. The share of basic columns that map at all is what
//! any carry of a Stage-1 basis across periods could reuse; it is printed
//! and recorded in EXPERIMENTS.md.

use std::collections::BTreeMap;

use wavesched_core::controller::{Controller, ControllerConfig};
use wavesched_core::instance::Instance;
use wavesched_core::stage1::solve_stage1;
use wavesched_lp::BasisStatus;
use wavesched_net::abilene14;
use wavesched_workload::{ArrivalModel, Job, WorkloadConfig, WorkloadGenerator};

/// Periods replayed: 60 slices, about 1 200 arrivals.
const PERIODS: usize = 15;

#[test]
fn stage1_optimum_maps_onto_the_next_period_by_key() {
    let (g, _) = abilene14(4);
    let mut cfg = ControllerConfig::paper(4);
    cfg.tau = 4;
    cfg.instance.paths_per_job = 2;
    let tau = cfg.tau;
    let arrivals = WorkloadGenerator::new(WorkloadConfig {
        num_jobs: 2_000,
        seed: 2009,
        arrival: ArrivalModel::Poisson { rate: 20.0 },
        window: (4.0, 8.0),
        ..Default::default()
    })
    .generate(&g);
    let mut c = Controller::new(g, cfg);

    let mut next_arrival = 0;
    let mut previous: Option<(Instance, Vec<usize>)> = None;
    let (mut basic, mut mapped, mut carried_periods) = (0usize, 0usize, 0usize);
    for period in 0..PERIODS {
        let now = (period * tau) as f64;
        let start = next_arrival;
        while next_arrival < arrivals.len() && arrivals[next_arrival].arrival <= now {
            next_arrival += 1;
        }
        let batch: Vec<Job> = arrivals[start..next_arrival].to_vec();
        let res = c.invoke(now, &batch).expect("invocation must solve");
        let inst = res.instance;

        if let Some((prev, prev_basic)) = previous.take() {
            let by_key: BTreeMap<_, _> = (0..inst.vars.len())
                .map(|var| (inst.vars.key(var), var))
                .collect();
            carried_periods += usize::from(!prev_basic.is_empty());
            for &var in &prev_basic {
                basic += 1;
                let key = prev.vars.key(var);
                let Some(&next) = by_key.get(&key) else {
                    continue;
                };
                mapped += 1;
                let (i, p, slice) = prev.vars.triple(var);
                let (ni, np, nslice) = inst.vars.triple(next);
                assert_eq!(
                    prev.jobs[i].id, inst.jobs[ni].id,
                    "period {period}: {key:?}"
                );
                assert_eq!(prev.jobs[i].id, key.0);
                assert_eq!(
                    prev.paths[i][p], inst.paths[ni][np],
                    "period {period}: {key:?}"
                );
                assert_eq!((slice, nslice), (key.2, key.2), "period {period}");
            }
        }

        // The controller's Stage 1 is a cold solve of this instance; solved
        // again, it lands on the same basis.
        let s1 = solve_stage1(&inst).expect("stage 1 solves");
        assert_eq!(s1.z_star.to_bits(), res.z_star.to_bits(), "period {period}");
        let basic_vars: Vec<usize> = s1.basis.map_or_else(Vec::new, |b| {
            (0..inst.vars.len())
                .filter(|&var| b.cols[var] == BasisStatus::Basic)
                .collect()
        });

        for slice in now as usize..now as usize + tau {
            for (i, job) in inst.jobs.iter().enumerate() {
                if inst.vars.window(i).contains(&slice) {
                    let moved: f64 = (0..inst.vars.paths_of(i))
                        .map(|p| res.schedule.x[inst.vars.var(i, p, slice)])
                        .sum();
                    c.record_transfer(job.id, moved);
                }
            }
        }
        previous = Some((inst, basic_vars));
    }

    let share = mapped as f64 / basic as f64;
    eprintln!(
        "{mapped} of {basic} basic columns ({:.1} %) over {carried_periods} periods map onto the next period's instance",
        100.0 * share
    );
    assert!(
        carried_periods >= PERIODS - 2,
        "{carried_periods} periods carried a basis"
    );
    assert!(mapped > 0 && mapped < basic, "{mapped} of {basic}");
}
