//! **Fig. 4** — RET: average end time (in slices) of the LP and LPDAR
//! solutions versus the number of jobs, on the random network, with the
//! Quick-Finish objective.
//!
//! Paper's result: LP has slightly smaller average end times (no
//! integrality constraint); LPDAR is nearly as good; both increase with
//! the number of jobs (the network is fixed). LPD is omitted in the paper
//! because it finishes almost no job; we report its fraction finished
//! instead.
//!
//! ```text
//! cargo run --release -p wavesched-bench --bin fig4
//! ```
//!
//! With `--colgen` the binary instead runs the delayed-column-generation
//! scaling sweep (`results/fig4_colgen.csv`): the two-stage pipeline on a
//! 1000-node Waxman network, reporting the restricted master's column
//! count against the exhaustive Yen column census it avoided
//! materializing.

use wavesched_bench::{paper_random_network, par_points, secs, BenchOpts};
use wavesched_core::colgen::ColGenConfig;
use wavesched_core::instance::InstanceConfig;
use wavesched_core::ret::{solve_ret, solve_ret_colgen, RetConfig};
use wavesched_net::{waxman_network, PathSet, WaxmanConfig};
use wavesched_workload::{WorkloadConfig, WorkloadGenerator};

/// Column-generation scaling sweep (`--colgen`): the fig. 4 RET search at
/// the ROADMAP's 1000-node scale, never materializing the exhaustive
/// `(job, path, slice)` variable grid — the restricted master starts from
/// one shortest path per job and prices the rest in. The
/// `exhaustive_cols` column is a census (Yen paths x window slices at the
/// final deadline extension) computed without building that LP, so the
/// ratio measures exactly what the refactor avoids. The master prices over
/// each job's Yen paths, entering only columns that pass the exact
/// reduced-cost test, so pool and census draw from the same path set; the
/// `--paths` budget is deliberately generous (default 16) — the regime the
/// monolithic build cannot afford. At sweep
/// points small enough to afford the monolithic build (`jobs <= 100`) the
/// `b_gap` column cross-checks the CG fractional extension against
/// [`solve_ret`]; elsewhere it is `NA` (that infeasibility is the point —
/// the differential suite covers objective agreement at paper scale).
fn colgen_sweep(opts: &BenchOpts) {
    let (nodes, pairs) = if opts.smoke { (100, 200) } else { (1000, 2000) };
    // `--jobs` is the sweep's largest point, at either scale.
    let max = opts.jobs.unwrap_or(if opts.smoke { 50 } else { 10_000 });
    let job_counts: Vec<usize> = if opts.smoke {
        vec![2 * max / 5, max]
    } else {
        (1..=4).map(|k| k * max / 4).collect()
    };
    let job_counts: Vec<usize> = job_counts.into_iter().filter(|&n| n > 0).collect();
    let paths_per_job = opts.paths.unwrap_or(16);
    let size_hi = opts.size_gb.unwrap_or(100) as f64;
    let w = 2;

    println!(
        "# Fig. 4 --colgen: RET under delayed column generation \
         ({nodes}-node Waxman, W={w}, jobs 1-{size_hi} GB)"
    );
    println!("# pool_cols: (path, slice) variables the restricted master ended with;");
    println!("# exhaustive_cols: what the monolithic build would materialize (Yen census);");
    println!("# b_gap: CG b_lp minus monolithic b_lp (NA when the monolithic build is too big)");
    println!(
        "jobs,b_lp,b_final,lp_avg_end,lpdar_avg_end,pool_cols,exhaustive_cols,col_ratio,\
         cg_rounds,cg_cols_added,cg_pricer_calls,b_gap,solve_secs,census_secs"
    );
    let point = |n: usize| {
        let g = waxman_network(&WaxmanConfig {
            nodes,
            link_pairs: pairs,
            wavelengths: w,
            alpha: 0.15,
            seed: 42,
        });
        // The figs. 1-2 workload shape (4-10 slice windows), with the job
        // size ceiling on a knob (`--size-gb`, default the standard
        // 100 GB). The dedicated fig. 4 overload workload (100-400 GB,
        // 2-4 slices) deliberately saturates the network, and certifying
        // an *infeasible* bisection probe prices in most of the path
        // universe — correct, but it measures overload certification, not
        // scaling. The network is fixed across the sweep, so at the
        // 10k-job scale points even 1-100 GB jobs bury it; the recorded
        // sweep sets `--size-gb 8` so aggregate demand stays in the
        // contended-but-extensible regime where the RET search exercises
        // every master form instead of grinding out one giant
        // infeasibility certificate per probe.
        let jobs = WorkloadGenerator::new(WorkloadConfig {
            num_jobs: n,
            seed: 3000,
            size_gb: (1.0, size_hi),
            window: (4.0, 10.0),
            ..Default::default()
        })
        .generate(&g);
        let cfg = InstanceConfig {
            paths_per_job,
            ..InstanceConfig::paper(w)
        };
        let ret_cfg = RetConfig {
            bsearch_tol: 0.05,
            b_max: 10.0,
            max_delta_steps: 120,
            ..RetConfig::default()
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "bench wall-clock column; results columns stay deterministic"
        )]
        let t0 = std::time::Instant::now();
        let out = solve_ret_colgen(&g, &jobs, &cfg, &ret_cfg, &ColGenConfig::default())
            .expect("ret colgen");
        let solve = t0.elapsed();
        let Some((r, cg_stats)) = out else {
            return format!("{n},NA,NA,NA,NA,NA,NA,NA,NA,NA,NA,NA,{},NA", secs(solve));
        };
        // The census the restricted master never paid for: every Yen path
        // times every window slice at the final extension.
        #[expect(
            clippy::disallowed_methods,
            reason = "bench wall-clock column; results columns stay deterministic"
        )]
        let t1 = std::time::Instant::now();
        let mut ps = PathSet::new(cfg.paths_per_job);
        let exhaustive: usize = jobs
            .iter()
            .enumerate()
            .map(|(i, j)| ps.paths(&g, j.src, j.dst).len() * r.instance.vars.window(i).len())
            .sum();
        let census = t1.elapsed();
        let pool = r.instance.vars.len();
        let b_gap = if n <= 100 {
            match solve_ret(&g, &jobs, &cfg, &ret_cfg).expect("ret monolithic") {
                Some(mono) => format!("{:.4}", r.b_lp - mono.b_lp),
                None => "NA".to_string(),
            }
        } else {
            "NA".to_string()
        };
        format!(
            "{n},{:.3},{:.3},{:.3},{:.3},{pool},{exhaustive},{:.4},{},{},{},{b_gap},{},{}",
            r.b_lp,
            r.b_final,
            r.lp_avg_end_time().unwrap_or(f64::NAN),
            r.lpdar_avg_end_time().unwrap_or(f64::NAN),
            pool as f64 / exhaustive as f64,
            cg_stats.rounds,
            cg_stats.columns_added,
            cg_stats.pricer_calls,
            secs(solve),
            secs(census),
        )
    };
    // solve_secs and census_secs are wall-clock: the points run one after
    // another on this thread, each row printing as its point finishes.
    for n in job_counts {
        println!("{}", point(n));
    }

    wavesched_bench::write_report(opts.report.as_deref());
}

fn main() {
    let opts = wavesched_bench::bench_opts("--smoke --colgen --jobs --paths --size-gb --report");
    if opts.colgen {
        colgen_sweep(&opts);
        return;
    }
    if opts.paths.is_some() || opts.size_gb.is_some() {
        eprintln!("--paths and --size-gb are options of fig4 --colgen only");
        std::process::exit(2);
    }
    // `--jobs` is the sweep's largest point, at either scale.
    let (max, points) = if opts.smoke { (20, 2) } else { (100, 4) };
    let max = opts.jobs.unwrap_or(max);
    let job_counts: Vec<usize> = (1..=points)
        .map(|k| k * max / points)
        .filter(|&n| n > 0)
        .collect();
    let w = 2;

    println!(
        "# Fig. 4: RET average end time vs number of jobs (random network, W={w}, QF objective)"
    );
    println!("# solver-work columns: total LP solves, simplex iterations (phase 1 of those),");
    println!("# warm starts accepted, and cold fallbacks across the bisection and delta growth");
    println!("jobs,b_lp,b_final,lp_avg_end,lpdar_avg_end,lpd_frac_finished,lp_solves,iters,phase1_iters,warm_accepted,cold_fallbacks");
    // Job-count sweep points run across the sweep pool; each point's RET
    // search is one serial chain of probes. Every column — including the
    // solver-work counters — is bit-identical to the serial loop.
    let rows = par_points(&job_counts, |&n| {
        let g = paper_random_network(w, 42, opts.smoke);
        let jobs = WorkloadGenerator::new(WorkloadConfig {
            num_jobs: n,
            seed: 3000,
            size_gb: (100.0, 400.0),
            window: (2.0, 4.0),
            ..Default::default()
        })
        .generate(&g);
        let cfg = InstanceConfig::paper(w);
        let ret_cfg = RetConfig {
            bsearch_tol: 0.05,
            b_max: 10.0,
            max_delta_steps: 120,
            ..RetConfig::default()
        };
        match solve_ret(&g, &jobs, &cfg, &ret_cfg).expect("ret") {
            Some(r) => format!(
                "{n},{:.3},{:.3},{:.3},{:.3},{:.3},{},{},{},{},{}",
                r.b_lp,
                r.b_final,
                r.lp_avg_end_time().unwrap_or(f64::NAN),
                r.lpdar_avg_end_time().unwrap_or(f64::NAN),
                r.lpd_fraction_finished(),
                r.lp_solves(),
                r.stats.iterations,
                r.stats.phase1_iterations,
                r.stats.warm_starts_accepted,
                r.stats.warm_start_fallbacks,
            ),
            None => format!("{n},NA,NA,NA,NA,NA,NA,NA,NA,NA,NA"),
        }
    });
    for row in rows {
        println!("{row}");
    }

    wavesched_bench::write_report(opts.report.as_deref());
}
