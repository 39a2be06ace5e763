//! **Ablation A1** — LPDAR visit order. The paper fixes the greedy
//! adjustment's visit order only implicitly ("for each time slice, for each
//! job, for each path"). How much does the order matter?
//!
//! ```text
//! cargo run --release -p wavesched-bench --bin ablation_order
//! ```

use wavesched_bench::{build_instance, fig_workload, paper_random_network, par_points};
use wavesched_core::lpdar::{adjust_rates, truncate, AdjustOrder};
use wavesched_core::stage1::solve_stage1;
use wavesched_core::stage2::solve_stage2;

fn main() {
    let opts = wavesched_bench::bench_opts("--smoke --jobs --report");
    let jobs_n = opts.jobs.unwrap_or(if opts.smoke { 30 } else { 150 });
    let w = 2;
    let g = paper_random_network(w, 42, opts.smoke);
    let jobs = fig_workload(&g, jobs_n, 1000);
    let inst = build_instance(&g, &jobs, w, 4);

    let s1 = solve_stage1(&inst).expect("stage1");
    let s2 = solve_stage2(&inst, s1.z_star, 0.1).expect("stage2");
    let lp_thru = s2.schedule.weighted_throughput(&inst);
    let lpd = truncate(&inst, &s2.schedule);

    println!("# Ablation A1: LPDAR visit order (random network, W={w}, jobs={jobs_n})");
    println!("# lp_throughput={lp_thru:.3}");
    println!("order,lpdar_norm,min_job_throughput");
    // Each visit order re-adjusts the same truncated schedule; the five
    // variants are independent, so they run across the sweep pool.
    let orders = [
        ("paper", AdjustOrder::Paper),
        ("largest_first", AdjustOrder::LargestJobFirst),
        ("smallest_first", AdjustOrder::SmallestJobFirst),
        ("random_a", AdjustOrder::Random(1)),
        ("random_b", AdjustOrder::Random(2)),
    ];
    let rows = par_points(&orders, |&(name, order)| {
        let s = adjust_rates(&inst, &lpd, order);
        let norm = s.weighted_throughput(&inst) / lp_thru;
        let min_z = (0..inst.num_jobs())
            .map(|i| s.throughput(&inst, i))
            .fold(f64::INFINITY, f64::min);
        format!("{name},{norm:.4},{min_z:.4}")
    });
    for row in rows {
        println!("{row}");
    }

    wavesched_bench::write_report(opts.report.as_deref());
}
