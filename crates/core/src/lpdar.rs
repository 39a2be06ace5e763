//! LPD and LPDAR — the paper's heuristic for integral wavelength
//! assignments (Section II-B and Algorithm 1).
//!
//! * **LPD** (*Linear Programming — Discretized*): truncate every fractional
//!   assignment down to the nearest integer. Cheap but wasteful: at small
//!   wavelength counts truncation discards a large share of the LP volume
//!   (the paper measures ~50% at 2 wavelengths per link).
//! * **LPDAR** (*LPD with Adjusted Rates*): after truncation, walk every
//!   (slice, job, path) and hand the path its bottleneck residual
//!   capacity — Algorithm 1 verbatim. This reclaims most of the truncated
//!   volume (≥ 90% of LP at 2 wavelengths in the paper).
//!
//! The paper fixes the visit order only implicitly ("for each time slice,
//! for each job, for each path"); [`AdjustOrder`] exposes that choice for
//! the `ablation_order` bench.
//!
//! **Caveat (not stated in the paper):** LPDAR does not guarantee the
//! Stage-2 fairness constraint (eq. 9). Truncation can leave a job below
//! its `(1-alpha) Z*` floor and the greedy adjustment may hand the
//! reclaimed capacity to other jobs. Consequently LPDAR's weighted
//! throughput can even exceed the *fairness-constrained* integer optimum;
//! the honest optimality reference is the capacity-only integer program
//! (see `tests/milp_crosscheck.rs` and the `ablation_exact` bench).

use crate::instance::Instance;
use crate::schedule::Schedule;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Job visit order used by the greedy adjustment within each time slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdjustOrder {
    /// The paper's implicit order: jobs as listed, paths as enumerated.
    Paper,
    /// Largest normalized demand first (mirrors the Stage-2 preference for
    /// large jobs).
    LargestJobFirst,
    /// Smallest normalized demand first.
    SmallestJobFirst,
    /// Deterministically shuffled with the given seed.
    Random(u64),
}

/// LPD: floor every assignment to an integer (paper step 2).
pub fn truncate(inst: &Instance, lp: &Schedule) -> Schedule {
    let x =
        lp.x.iter()
            .map(|&v| {
                // Guard against values sitting a hair under an integer due to
                // LP tolerance: 2.9999999995 truncates to 3, not 2.
                wavesched_lp::pos_or_zero((v + 1e-9).floor())
            })
            .collect();
    Schedule::from_values(inst, x)
}

/// Algorithm 1 verbatim: greedy bandwidth adjustment. Takes an *integral*
/// schedule and hands each (job, path) the full bottleneck residual of its
/// edges, slice by slice. Used by the throughput-maximization pipeline,
/// where over-delivery still counts toward the weighted objective
/// (`Z_i > 1` is allowed, paper Remark 2).
pub fn adjust_rates(inst: &Instance, base: &Schedule, order: AdjustOrder) -> Schedule {
    adjust_impl(inst, base, order, false)
}

/// Demand-aware Algorithm 1: like [`adjust_rates`] but a job stops taking
/// bandwidth once its full demand is met. This is the variant the RET loop
/// (Algorithm 2) needs: under SUB-RET, capacity handed to an
/// already-complete job is wasted, and the verbatim winner-takes-all greedy
/// can starve later jobs indefinitely, preventing Algorithm 2 from ever
/// terminating.
pub fn adjust_rates_capped(inst: &Instance, base: &Schedule, order: AdjustOrder) -> Schedule {
    adjust_impl(inst, base, order, true)
}

fn adjust_impl(inst: &Instance, base: &Schedule, order: AdjustOrder, capped: bool) -> Schedule {
    debug_assert!(base.is_integral(1e-6), "adjust_rates needs integral input");
    let mut sched = base.clone();
    let nedges = inst.graph.num_edges();
    let mut rb = vec![0i64; nedges];

    let job_order = job_order(inst, order);
    // Remaining deficit per job (demand units), used only when capped.
    let mut deficit: Vec<f64> = (0..inst.num_jobs())
        .map(|i| inst.demands[i] - sched.transferred(inst, i))
        .collect();

    for slice in inst.grid.first_slice()..inst.grid.num_slices() {
        // Residual wavelengths per edge at this slice.
        #[expect(
            clippy::needless_range_loop,
            reason = "e is an edge id, not a slice index"
        )]
        for e in 0..nedges {
            rb[e] = inst.graph.wavelengths(wavesched_net::EdgeId(e as u32)) as i64;
        }
        for (var, job, path, s) in inst.vars.iter() {
            if s == slice {
                let used = sched.x[var] as i64;
                if used != 0 {
                    for &e in inst.paths[job][path].edges() {
                        rb[e.index()] -= used;
                    }
                }
            }
        }
        debug_assert!(rb.iter().all(|&v| v >= 0), "over-capacity input schedule");

        // Greedy fill in the configured order (paper eqs. 11–13).
        for &job in &job_order {
            if capped && deficit[job] <= 1e-9 {
                continue;
            }
            let w = inst.vars.window(job);
            if !w.contains(&slice) {
                continue;
            }
            for path in 0..inst.vars.paths_of(job) {
                let mut take = inst.paths[job][path]
                    .edges()
                    .iter()
                    .map(|&e| rb[e.index()])
                    .min()
                    .unwrap_or(0);
                if capped {
                    take = take.min(deficit[job].ceil() as i64);
                }
                if take > 0 {
                    sched.x[inst.vars.var(job, path, slice)] += take as f64;
                    deficit[job] -= take as f64;
                    for &e in inst.paths[job][path].edges() {
                        rb[e.index()] -= take;
                    }
                    if capped && deficit[job] <= 1e-9 {
                        break;
                    }
                }
            }
        }
    }
    sched
}

/// LPDAR: truncation followed by the verbatim greedy adjustment.
pub fn lpdar(inst: &Instance, lp: &Schedule, order: AdjustOrder) -> Schedule {
    adjust_rates(inst, &truncate(inst, lp), order)
}

fn job_order(inst: &Instance, order: AdjustOrder) -> Vec<usize> {
    let mut jobs: Vec<usize> = (0..inst.num_jobs()).collect();
    match order {
        AdjustOrder::Paper => {}
        AdjustOrder::LargestJobFirst => {
            jobs.sort_by(|&a, &b| inst.demands[b].total_cmp(&inst.demands[a]));
        }
        AdjustOrder::SmallestJobFirst => {
            jobs.sort_by(|&a, &b| inst.demands[a].total_cmp(&inst.demands[b]));
        }
        AdjustOrder::Random(seed) => {
            let mut rng = StdRng::seed_from_u64(seed);
            for i in (1..jobs.len()).rev() {
                let j = rng.random_range(0..=i);
                jobs.swap(i, j);
            }
        }
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceConfig;
    use crate::stage1::solve_stage1;
    use crate::stage2::solve_stage2;
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

    fn lp_schedule(inst: &Instance) -> Schedule {
        let s1 = solve_stage1(inst).unwrap();
        solve_stage2(inst, s1.z_star, 0.1).unwrap().schedule
    }

    #[test]
    fn truncate_floors() {
        let inst = abilene_instance(6, 2, 5);
        let lp = lp_schedule(&inst);
        let lpd = truncate(&inst, &lp);
        assert!(lpd.is_integral(1e-9));
        for (a, b) in lpd.x.iter().zip(&lp.x) {
            assert!(*a <= b + 1e-6, "truncation increased a value");
            assert!(b - a < 1.0, "truncated by a full unit or more");
        }
    }

    #[test]
    fn lpd_le_lpdar_le_lp() {
        // The paper's ordering of the three solutions, per objective (7).
        for seed in [1, 2, 3, 4] {
            let inst = abilene_instance(10, 2, seed);
            let lp = lp_schedule(&inst);
            let lpd = truncate(&inst, &lp);
            let adj = adjust_rates(&inst, &lpd, AdjustOrder::Paper);
            let t_lp = lp.weighted_throughput(&inst);
            let t_lpd = lpd.weighted_throughput(&inst);
            let t_adj = adj.weighted_throughput(&inst);
            assert!(t_lpd <= t_adj + 1e-9, "seed {seed}: LPD > LPDAR");
            assert!(t_lpd <= t_lp + 1e-9, "seed {seed}: LPD > LP");
        }
    }

    #[test]
    fn lpdar_is_integral_and_feasible() {
        for seed in [7, 8] {
            let inst = abilene_instance(12, 4, seed);
            let lp = lp_schedule(&inst);
            let s = lpdar(&inst, &lp, AdjustOrder::Paper);
            assert!(s.is_integral(1e-9));
            assert!(
                s.max_capacity_violation(&inst) < 1e-9,
                "seed {seed}: capacity violated by {}",
                s.max_capacity_violation(&inst)
            );
        }
    }

    #[test]
    fn adjustment_saturates_bottlenecks() {
        // After Algorithm 1, no path within a window can have all-positive
        // residual on every edge (otherwise the greedy would have taken it).
        let inst = abilene_instance(8, 2, 9);
        let lp = lp_schedule(&inst);
        let s = lpdar(&inst, &lp, AdjustOrder::Paper);
        let nedges = inst.graph.num_edges();
        for slice in 0..inst.grid.num_slices() {
            let mut rb = vec![0i64; nedges];
            #[expect(clippy::needless_range_loop, reason = "e is an edge id")]
            for e in 0..nedges {
                rb[e] = inst.graph.wavelengths(wavesched_net::EdgeId(e as u32)) as i64;
            }
            for (var, job, path, s_) in inst.vars.iter() {
                if s_ == slice {
                    for &e in inst.paths[job][path].edges() {
                        rb[e.index()] -= s.x[var] as i64;
                    }
                }
            }
            for (_, job, path, s_) in inst.vars.iter() {
                if s_ == slice {
                    let min_rb = inst.paths[job][path]
                        .edges()
                        .iter()
                        .map(|&e| rb[e.index()])
                        .min()
                        .unwrap();
                    assert!(
                        min_rb <= 0,
                        "slice {slice}: residual {min_rb} left on a usable path"
                    );
                }
            }
        }
    }

    #[test]
    fn orders_permute_jobs() {
        let inst = abilene_instance(10, 2, 3);
        for order in [
            AdjustOrder::Paper,
            AdjustOrder::LargestJobFirst,
            AdjustOrder::SmallestJobFirst,
            AdjustOrder::Random(42),
        ] {
            let mut o = job_order(&inst, order);
            o.sort();
            assert_eq!(o, (0..inst.num_jobs()).collect::<Vec<_>>());
        }
        // Largest-first really sorts by demand.
        let o = job_order(&inst, AdjustOrder::LargestJobFirst);
        for w in o.windows(2) {
            assert!(inst.demands[w[0]] >= inst.demands[w[1]]);
        }
    }

    #[test]
    fn adjustment_on_zero_schedule_fills_network() {
        // Starting from zero, Algorithm 1 degenerates to pure greedy fill;
        // every job with a window must get something on a quiet network.
        let inst = abilene_instance(3, 4, 1);
        let z = Schedule::zero(&inst);
        let s = adjust_rates(&inst, &z, AdjustOrder::Paper);
        for i in 0..inst.num_jobs() {
            if !inst.vars.window(i).is_empty() {
                assert!(s.transferred(&inst, i) > 0.0, "job {i} got nothing");
            }
        }
        assert!(s.max_capacity_violation(&inst) < 1e-9);
    }
}
