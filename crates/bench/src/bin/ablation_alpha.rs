//! **Ablation A2** — the fairness slack α (paper Remark 1: a larger α
//! leaves more room for integral solutions and raises total throughput at
//! the cost of per-job fairness).
//!
//! ```text
//! cargo run --release -p wavesched-bench --bin ablation_alpha
//! ```

use wavesched_bench::par_points;
use wavesched_core::instance::{Instance, InstanceConfig};
use wavesched_core::pipeline::max_throughput_pipeline;
use wavesched_net::{abilene20, PathSet};
use wavesched_workload::{WorkloadConfig, WorkloadGenerator};

fn main() {
    let opts = wavesched_bench::bench_opts("--smoke --jobs --report");
    let jobs_n = opts.jobs.unwrap_or(if opts.smoke { 20 } else { 120 });
    let w = 2;
    let (g, _) = abilene20(w);
    let jobs = WorkloadGenerator::new(WorkloadConfig {
        num_jobs: jobs_n,
        seed: 2000,
        size_gb: (1.0, 100.0),
        window: (3.0, 8.0),
        ..Default::default()
    })
    .generate(&g);
    let cfg = InstanceConfig::paper(w);
    let mut ps = PathSet::new(cfg.paths_per_job);
    let inst = Instance::build(&g, &jobs, &cfg, &mut ps);

    println!("# Ablation A2: fairness slack alpha (Abilene-20, W={w}, jobs={jobs_n})");
    println!("alpha,z_star,lp_throughput,lpdar_norm,lp_min_job_z,lpdar_min_job_z");
    // Alpha sweep points share the (read-only) instance and run across the
    // sweep pool; rows print afterwards in sweep order.
    let alphas = [0.0, 0.05, 0.1, 0.2, 0.4, 0.8];
    let rows = par_points(&alphas, |&alpha| {
        let r = max_throughput_pipeline(&inst, alpha).expect("pipeline");
        let min_lpdar = (0..inst.num_jobs())
            .map(|i| r.lpdar.throughput(&inst, i))
            .fold(f64::INFINITY, f64::min);
        let min_lp = (0..inst.num_jobs())
            .map(|i| r.lp.throughput(&inst, i))
            .fold(f64::INFINITY, f64::min);
        format!(
            "{alpha},{:.3},{:.3},{:.4},{:.4},{:.4}",
            r.z_star,
            r.lp_throughput,
            r.lpdar_normalized(),
            min_lp,
            min_lpdar
        )
    });
    for row in rows {
        println!("{row}");
    }

    wavesched_bench::write_report(opts.report.as_deref());
}
