//! **Fig. 2** — Throughput of LP, LPD and LPDAR (normalized to LP) versus
//! wavelengths per link on the Abilene backbone (11 nodes, 20 link pairs
//! in the paper's instance; see DESIGN.md for the 20-pair variant).
//!
//! Paper's result: LPD ≈ 0.6·LP at 2 wavelengths; LPDAR nearly identical
//! to LP at every wavelength count.
//!
//! ```text
//! cargo run --release -p wavesched-bench --bin fig2
//! ```

use wavesched_bench::{mean, par_points};
use wavesched_core::instance::{Instance, InstanceConfig};
use wavesched_core::pipeline::max_throughput_pipeline;
use wavesched_net::{abilene20, PathSet};
use wavesched_workload::{WorkloadConfig, WorkloadGenerator};

fn main() {
    let opts = wavesched_bench::bench_opts("--smoke --jobs --seeds --report");
    let jobs_n = opts.jobs.unwrap_or(if opts.smoke { 20 } else { 150 });
    let seeds = opts.seeds.unwrap_or(if opts.smoke { 1 } else { 3 });
    let wavelengths: &[u32] = if opts.smoke {
        &[2, 8, 32]
    } else {
        &[2, 4, 8, 16, 32]
    };

    println!("# Fig. 2: throughput vs wavelengths per link (Abilene, 11 nodes / 20 link pairs)");
    println!("# jobs={jobs_n} seeds={seeds} alpha=0.1 paths/job=4");
    println!("wavelengths,lp_norm,lpd_norm,lpdar_norm,z_star,lp_throughput");
    // Flatten the (wavelength, seed) grid across the sweep pool and
    // fold per wavelength in input order (same pattern as fig1) — every
    // mean and CSV row is bit-identical to the serial double loop.
    let grid: Vec<(u32, u64)> = wavelengths
        .iter()
        .flat_map(|&w| (0..seeds as u64).map(move |seed| (w, seed)))
        .collect();
    let cells = par_points(&grid, |&(w, seed)| {
        let (g, _) = abilene20(w);
        let jobs = WorkloadGenerator::new(WorkloadConfig {
            num_jobs: jobs_n,
            seed: 2000 + seed,
            size_gb: (1.0, 100.0),
            window: (3.0, 8.0),
            ..Default::default()
        })
        .generate(&g);
        let cfg = InstanceConfig::paper(w);
        let mut ps = PathSet::new(cfg.paths_per_job);
        let inst = Instance::build(&g, &jobs, &cfg, &mut ps);
        let r = max_throughput_pipeline(&inst, 0.1).expect("pipeline");
        (
            r.lpd_normalized(),
            r.lpdar_normalized(),
            r.z_star,
            r.lp_throughput,
        )
    });
    for (wi, &w) in wavelengths.iter().enumerate() {
        let rows = &cells[wi * seeds..(wi + 1) * seeds];
        let col = |f: fn(&(f64, f64, f64, f64)) -> f64| rows.iter().map(f).collect::<Vec<_>>();
        println!(
            "{w},1.000,{:.3},{:.3},{:.3},{:.3}",
            mean(&col(|r| r.0)),
            mean(&col(|r| r.1)),
            mean(&col(|r| r.2)),
            mean(&col(|r| r.3))
        );
    }

    wavesched_bench::write_report(opts.report.as_deref());
}
