//! **Fig. 1** — Throughput of LP, LPD and LPDAR (normalized to LP) versus
//! the number of wavelengths per link, capacity held constant at 20 Gbps.
//! Random Waxman network with 100 nodes and 200 link pairs.
//!
//! Paper's result: LPD ≈ 0.5·LP at 2 wavelengths, improving with more
//! wavelengths; LPDAR ≈ 0.9·LP at 2 wavelengths and ≥ 0.95 from 4 up.
//!
//! ```text
//! cargo run --release -p wavesched-bench --bin fig1
//! ```

use wavesched_bench::{build_instance, fig_workload, mean, paper_random_network, par_points};
use wavesched_core::pipeline::max_throughput_pipeline;

fn main() {
    let opts = wavesched_bench::bench_opts("--smoke --jobs --seeds --report");
    let jobs_n = opts.jobs.unwrap_or(if opts.smoke { 40 } else { 250 });
    let seeds = opts.seeds.unwrap_or(if opts.smoke { 1 } else { 2 });
    let wavelengths: &[u32] = if opts.smoke {
        &[2, 8, 32]
    } else {
        &[2, 4, 8, 16, 32]
    };

    println!("# Fig. 1: throughput vs wavelengths per link (random network)");
    println!("# jobs={jobs_n} seeds={seeds} alpha=0.1 paths/job=4");
    println!("wavelengths,lp_norm,lpd_norm,lpdar_norm,z_star,lp_throughput");
    // Every (wavelength, seed) cell is independent: flatten the grid across
    // the sweep pool, then fold per wavelength in input order — means
    // and rows are bit-identical to the serial double loop.
    let grid: Vec<(u32, u64)> = wavelengths
        .iter()
        .flat_map(|&w| (0..seeds as u64).map(move |seed| (w, seed)))
        .collect();
    let cells = par_points(&grid, |&(w, seed)| {
        let g = paper_random_network(w, 42 + seed, opts.smoke);
        let jobs = fig_workload(&g, jobs_n, 1000 + seed);
        let inst = build_instance(&g, &jobs, w, 4);
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
