//! **§III-B.1 (table in text)** — Fraction of jobs finished under
//! Algorithm 2's end-time extension, for LP, LPD and LPDAR, across
//! scenarios on the random network and Abilene.
//!
//! Paper's result: at the final extension `b̂`, LP and LPDAR finish 100% of
//! the jobs (by construction of Algorithm 2) while LPD finishes "a very
//! small fraction (typically zero)"; LPDAR's `b̂` equals or slightly
//! exceeds the minimum `b` for which the LP can finish everything.
//!
//! ```text
//! cargo run --release -p wavesched-bench --bin jobs_finished
//! ```

use wavesched_bench::{paper_random_network, par_seeds};
use wavesched_core::instance::InstanceConfig;
use wavesched_core::ret::{solve_ret, RetConfig};
use wavesched_net::abilene20;
use wavesched_workload::{WorkloadConfig, WorkloadGenerator};

fn main() {
    let opts = wavesched_bench::bench_opts("--smoke --seeds --report");
    let seeds = opts.seeds.unwrap_or(if opts.smoke { 1 } else { 3 });
    println!("# §III-B.1: fraction of jobs finished at the final RET extension");
    println!("network,seed,jobs,b_lp,b_final,lp_frac,lpd_frac,lpdar_frac");

    let ret_cfg = RetConfig {
        bsearch_tol: 0.05,
        ..RetConfig::default()
    };

    // Seed replications run across the sweep pool; each seed returns
    // its two scenario rows as strings, printed afterwards in seed order.
    let seed_list: Vec<u64> = (0..seeds as u64).collect();
    let row_fmt =
        |net: &str, seed: u64, n: usize, r: Option<&wavesched_core::ret::RetResult>| match r {
            Some(r) => format!(
                "{net},{seed},{n},{:.3},{:.3},{:.3},{:.3},{:.3}",
                r.b_lp,
                r.b_final,
                r.lp_fraction_finished(),
                r.lpd_fraction_finished(),
                r.lpdar_fraction_finished()
            ),
            None => format!("{net},{seed},{n},NA,NA,NA,NA,NA"),
        };
    let lines = par_seeds(&seed_list, |seed| {
        // Random network scenario.
        let w = 2;
        let n = if opts.smoke { 15 } else { 50 };
        let g = paper_random_network(w, 42 + seed, opts.smoke);
        let jobs = WorkloadGenerator::new(WorkloadConfig {
            num_jobs: n,
            seed: 4000 + seed,
            size_gb: (100.0, 400.0),
            window: (2.0, 4.0),
            ..Default::default()
        })
        .generate(&g);
        let cfg = InstanceConfig::paper(w);
        let r = solve_ret(&g, &jobs, &cfg, &ret_cfg).expect("ret");
        let random_row = row_fmt("random100", seed, n, r.as_ref());

        // Abilene scenario.
        let (ga, _) = abilene20(w);
        let na = if opts.smoke { 10 } else { 30 };
        let jobs_a = WorkloadGenerator::new(WorkloadConfig {
            num_jobs: na,
            seed: 5000 + seed,
            size_gb: (100.0, 400.0),
            window: (2.0, 4.0),
            ..Default::default()
        })
        .generate(&ga);
        let ra = solve_ret(&ga, &jobs_a, &cfg, &ret_cfg).expect("ret");
        [random_row, row_fmt("abilene20", seed, na, ra.as_ref())]
    });
    for [random_row, abilene_row] in lines {
        println!("{random_row}");
        println!("{abilene_row}");
    }

    wavesched_bench::write_report(opts.report.as_deref());
}
