//! **Ablation A4** — LPDAR versus the exact integer optimum, on instances
//! small enough for branch-and-bound. The paper could not run this
//! comparison ("practically impossible to get the optimal integer
//! solutions"); our own MILP solver makes it possible at toy scale and
//! quantifies LPDAR's true optimality gap.
//!
//! ```text
//! cargo run --release -p wavesched-bench --bin ablation_exact
//! ```

use wavesched_bench::par_seeds;
use wavesched_core::instance::{Instance, InstanceConfig};
use wavesched_core::lpdar::{lpdar, AdjustOrder};
use wavesched_core::stage1::solve_stage1;
use wavesched_core::stage2::solve_stage2;
use wavesched_lp::{solve_milp, MilpConfig, MilpStatus, Objective, Problem};
use wavesched_net::{Graph, PathSet};
use wavesched_workload::{WorkloadConfig, WorkloadGenerator};

/// Builds the Stage-2 *integer* program for a small instance. `fairness =
/// None` drops eq. 9 (LPDAR does not guarantee it, so the unconstrained
/// ILP is the honest upper bound; see tests/milp_crosscheck.rs).
fn stage2_milp(inst: &Instance, fairness: Option<(f64, f64)>) -> Problem {
    let total = inst.total_demand();
    let mut p = Problem::new(Objective::Maximize);
    let mut cols = Vec::new();
    for (_, job, path, _) in inst.vars.iter() {
        let bn = inst.paths[job][path].bottleneck_wavelengths(&inst.graph) as f64;
        let c = p.add_int_col(0.0, bn, 1.0 / total);
        cols.push(c);
    }
    if let Some((z_star, alpha)) = fairness {
        for i in 0..inst.num_jobs() {
            let coeffs: Vec<_> = inst.vars.job_range(i).map(|v| (cols[v], 1.0)).collect();
            p.add_row(
                (1.0 - alpha) * z_star * inst.demands[i],
                f64::INFINITY,
                &coeffs,
            );
        }
    }
    for ((e, _), vars) in inst.capacity_groups.iter() {
        let cap = inst.graph.wavelengths(wavesched_net::EdgeId(e)) as f64;
        let coeffs: Vec<_> = vars.iter().map(|&v| (cols[v as usize], 1.0)).collect();
        p.add_row(f64::NEG_INFINITY, cap, &coeffs);
    }
    p
}

fn main() {
    let opts = wavesched_bench::bench_opts("--seeds --report");
    let trials = opts.seeds.unwrap_or(5);
    println!("# Ablation A4: LPDAR vs exact ILP (tiny ring networks, W=2)");
    println!(
        "trial,jobs,lp_obj,ilp_obj,ilp_fair_obj,lpdar_obj,lpdar_over_ilp,nodes_explored,\
         ilp_fair_status,ilp_fair_nodes"
    );
    // Trials run across the sweep pool; each branch-and-bound is serial.
    let trial_ids: Vec<u64> = (0..trials as u64).collect();
    let rows = par_seeds(&trial_ids, |trial| {
        // A 6-node ring with 2 wavelengths per link; 6 jobs, tiny windows.
        let mut g = Graph::new();
        let ns = g.add_nodes(6);
        for i in 0..6 {
            g.add_link_pair(ns[i], ns[(i + 1) % 6], 2);
        }
        let jobs = WorkloadGenerator::new(WorkloadConfig {
            num_jobs: 6,
            seed: 100 + trial,
            size_gb: (40.0, 160.0),
            window: (2.0, 5.0),
            ..Default::default()
        })
        .generate(&g);
        let cfg = InstanceConfig::paper(2);
        let mut ps = PathSet::new(3);
        let inst = Instance::build(
            &g,
            &jobs,
            &InstanceConfig {
                paths_per_job: 3,
                ..cfg
            },
            &mut ps,
        );

        let s1 = solve_stage1(&inst).expect("stage1");
        let s2 = solve_stage2(&inst, s1.z_star, 0.1).expect("stage2");
        let lp_obj = s2.schedule.weighted_throughput(&inst);
        let heur = lpdar(&inst, &s2.schedule, AdjustOrder::Paper);
        let heur_obj = heur.weighted_throughput(&inst);

        let cfg_milp = MilpConfig { max_nodes: 200_000 };
        let sol = solve_milp(&stage2_milp(&inst, None), &cfg_milp).expect("milp");
        let (ilp_obj, nodes) = match sol.status {
            MilpStatus::Optimal => (sol.objective, sol.nodes),
            _ => (f64::NAN, sol.nodes),
        };
        let fair =
            solve_milp(&stage2_milp(&inst, Some((s1.z_star, 0.1))), &cfg_milp).expect("milp");
        // `ilp_fair_obj` is NaN both when eq. 9 leaves no integer point and
        // when the search gave up; the status column tells them apart.
        let (fair_obj, fair_status) = match fair.status {
            MilpStatus::Optimal => (fair.objective, "optimal"),
            MilpStatus::Infeasible => (f64::NAN, "infeasible"),
            MilpStatus::NodeLimit => (f64::NAN, "node_limit"),
            MilpStatus::Unbounded => (f64::NAN, "unbounded"),
        };
        format!(
            "{trial},{},{lp_obj:.4},{ilp_obj:.4},{fair_obj:.4},{heur_obj:.4},{:.4},{nodes},\
             {fair_status},{}",
            inst.num_jobs(),
            heur_obj / ilp_obj,
            fair.nodes
        )
    });
    for row in rows {
        println!("{row}");
    }

    wavesched_bench::write_report(opts.report.as_deref());
}
