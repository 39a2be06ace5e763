//! **Ablation A3** — allowed paths per job. The paper reports that 4–8
//! paths per job capture most of the attainable performance.
//!
//! ```text
//! cargo run --release -p wavesched-bench --bin ablation_paths
//! ```

use std::time::Instant;
use wavesched_bench::{build_instance, fig_workload, paper_random_network, secs};
use wavesched_core::pipeline::max_throughput_pipeline;

fn main() {
    let opts = wavesched_bench::bench_opts("--smoke --jobs --report");
    let jobs_n = opts.jobs.unwrap_or(if opts.smoke { 25 } else { 100 });
    let w = 4;
    let g = paper_random_network(w, 42, opts.smoke);
    let jobs = fig_workload(&g, jobs_n, 1000);

    println!("# Ablation A3: paths per job (random network, W={w}, jobs={jobs_n})");
    println!("paths_per_job,z_star,lp_throughput,lpdar_norm,lp_time_s");
    // The lp_time_s column is wall-clock: the path-budget points run one
    // after another on this thread, so no point shares the cores.
    for k in [1usize, 2, 4, 8] {
        let inst = build_instance(&g, &jobs, w, k);
        #[expect(
            clippy::disallowed_methods,
            reason = "bench wall-clock column; results columns stay deterministic"
        )]
        let t = Instant::now();
        let r = max_throughput_pipeline(&inst, 0.1).expect("pipeline");
        println!(
            "{k},{:.3},{:.3},{:.4},{}",
            r.z_star,
            r.lp_throughput,
            r.lpdar_normalized(),
            secs(t.elapsed())
        );
    }

    wavesched_bench::write_report(opts.report.as_deref());
}
