//! **Fig. 3** — Computation time of LP, LPD and LPDAR versus the number of
//! jobs on the 100-node random network.
//!
//! Paper's result: the three curves nearly coincide — the LP solve
//! dominates, truncation and the greedy adjustment add negligible time.
//! Absolute values differ from the paper (our own simplex vs CPLEX on
//! 2009 hardware); the claim is the *relative* shape.
//!
//! ```text
//! cargo run --release -p wavesched-bench --bin fig3
//! ```

use wavesched_bench::{build_instance, fig_workload, paper_random_network, secs};
use wavesched_core::pipeline::max_throughput_pipeline;

fn main() {
    let opts = wavesched_bench::bench_opts("--smoke --jobs --report");
    // `--jobs` is the sweep's largest point, at either scale.
    let (max, points) = if opts.smoke { (40, 2) } else { (250, 5) };
    let max = opts.jobs.unwrap_or(max);
    let job_counts: Vec<usize> = (1..=points)
        .map(|k| k * max / points)
        .filter(|&n| n > 0)
        .collect();
    let w = 4;

    println!("# Fig. 3: computation time vs number of jobs (random network, W={w})");
    println!("# times in seconds; lpX_time includes every stage up to X (paper convention)");
    println!("# solver-work columns: simplex iterations (phase 1 of those) and warm starts");
    println!("# accepted across the two stages (Stage 2 warm-starts from Stage 1's basis)");
    println!("jobs,stage1_s,lp_s,lpd_s,lpdar_s,lpd_extra_s,lpdar_extra_s,iters,phase1_iters,warm_accepted");
    // The time columns are the figure: the sweep points run one after
    // another on this thread, so no point shares the cores.
    for n in job_counts {
        let g = paper_random_network(w, 42, opts.smoke);
        let jobs = fig_workload(&g, n, 1000);
        let inst = build_instance(&g, &jobs, w, 4);
        let r = max_throughput_pipeline(&inst, 0.1).expect("pipeline");
        println!(
            "{n},{},{},{},{},{},{},{},{},{}",
            secs(r.stage1_time),
            secs(r.lp_time),
            secs(r.lpd_time),
            secs(r.lpdar_time),
            secs(r.lpd_time - r.lp_time),
            secs(r.lpdar_time - r.lpd_time),
            r.stats.iterations,
            r.stats.phase1_iterations,
            r.stats.warm_starts_accepted,
        );
    }

    wavesched_bench::write_report(opts.report.as_deref());
}
