//! `claims <figure> [flags]` — the paper's evaluation (Section III) and the
//! ablations, one figure a run. The figure's CSV goes to stdout; then each
//! of the figure's claims, with the paper's sentence beside it, is held to
//! the values the run just printed: one `claim <figure> <name>: ok` or
//! `FAILED (<paper>; measured …)` line a claim on stderr, and exit 1 if any
//! failed.
//!
//! ```text
//! cargo run --release -p wavesched-bench --bin claims -- fig1 --smoke
//! ```
//!
//! A figure takes only the flags in its [`FIGURES`] row (any other exits 2).
//! A band the paper states at its own scale is checked only at the figure's
//! defaults (no `--smoke`, `--jobs` or `--seeds`).

use std::io::Write;
use std::time::Duration;
use wavesched_bench::{
    build_instance, paper_random_network, par_points, parse_bench_args, secs, workload, BenchOpts,
};
use wavesched_core::colgen::ColGenConfig;
use wavesched_core::instance::{Instance, InstanceConfig};
use wavesched_core::lpdar::{adjust_rates, lpdar, truncate, AdjustOrder};
use wavesched_core::pipeline::max_throughput_pipeline;
use wavesched_core::ret::{solve_ret, solve_ret_colgen, RetConfig, RetResult};
use wavesched_core::stage1::solve_stage1;
use wavesched_core::stage2::solve_stage2;
use wavesched_core::Schedule;
use wavesched_lp::{solve_milp, MilpConfig, MilpStatus, Objective, Problem};
use wavesched_net::{abilene20, waxman_network, Graph, PathSet, WaxmanConfig};

/// A figure's run: prints its CSV and returns its claims, judged on what it
/// printed.
type Run = fn(&BenchOpts) -> Vec<Claim>;

/// Every figure: its name, the flags it reads, and its run.
#[rustfmt::skip]
const FIGURES: [(&str, &str, Run); 9] = [
    ("fig1", "--smoke --jobs --seeds --report", fig1),
    ("fig2", "--smoke --jobs --seeds --report", fig2),
    ("fig3", "--smoke --jobs --report", fig3),
    ("fig4", "--smoke --colgen --jobs --paths --size-gb --report", fig4),
    ("jobs_finished", "--smoke --seeds --report", jobs_finished),
    ("ablation_order", "--smoke --jobs --report", ablation_order),
    ("ablation_alpha", "--smoke --jobs --report", ablation_alpha),
    ("ablation_paths", "--smoke --jobs --report", ablation_paths),
    ("ablation_exact", "--seeds --report", ablation_exact),
];

/// A claim held to one run: `paper` is the sentence it checks, `measured`
/// what the run read. `ok` is `None` for a band stated at the paper's scale
/// when the run is not at it.
struct Claim {
    name: &'static str,
    paper: &'static str,
    ok: Option<bool>,
    measured: String,
}

fn claim(name: &'static str, paper: &'static str, ok: bool, measured: String) -> Claim {
    Claim {
        name,
        paper,
        ok: Some(ok),
        measured,
    }
}

impl Claim {
    /// Checked only at the figure's defaults, the scale the paper states it at.
    fn at_paper_scale(mut self, o: &BenchOpts) -> Claim {
        if o.smoke || o.jobs.is_some() || o.seeds.is_some() {
            self.ok = None;
        }
        self
    }
}

/// Slack for "equal" and for the weak inequalities: these values are sums
/// and means of LP answers, not integers.
const TOL: f64 = 1e-9;

fn non_decreasing(xs: &[f64]) -> bool {
    xs.windows(2).all(|p| p[0] <= p[1] + TOL)
}

/// `xs` to three decimals, a NaN (a row the run could not answer) as `NA`.
fn list(xs: &[f64]) -> String {
    let show = |x: &f64| format!("{x:.3}").replace("NaN", "NA");
    xs.iter().map(show).collect::<Vec<_>>().join(", ")
}

/// Writes one line to stdout, the only place the binary does. A reader that
/// went away (`claims fig1 | head -1`) ends the run quietly.
fn emit(line: impl std::fmt::Display) {
    let mut out = std::io::stdout().lock();
    if let Err(e) = writeln!(out, "{line}") {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("failed to write stdout: {e}");
        std::process::exit(1);
    }
}

/// [`emit`] with `format!` arguments.
macro_rules! emit {
    ($($arg:tt)*) => {
        emit(format_args!($($arg)*))
    };
}

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// `f`'s result and its wall-clock time, for the timing columns.
fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    #[expect(
        clippy::disallowed_methods,
        reason = "bench wall-clock column; results columns stay deterministic"
    )]
    let t = std::time::Instant::now();
    let r = f();
    (r, t.elapsed())
}

/// `points` evenly spaced job counts ending at `max`, without zero.
fn sweep(max: usize, points: usize) -> Vec<usize> {
    (1..=points)
        .map(|k| k * max / points)
        .filter(|&n| n > 0)
        .collect()
}

/// The W sweep of Figs. 1–2 over `instance(w, seed, jobs)`: throughput of
/// LP, LPD and LPDAR normalized to LP, capacity held at 20 Gbps. Prints the
/// CSV and returns its columns `[LPD / LP, LPDAR / LP, Z*, LP throughput]`,
/// averaged over the seeds, one entry a W, the first at W = 2.
fn w_sweep(
    o: &BenchOpts,
    title: &str,
    (jobs_n, seeds): (usize, usize),
    instance: impl Fn(u32, u64, usize) -> Instance + Sync,
) -> [Vec<f64>; 4] {
    let jobs_n = o.jobs.unwrap_or(jobs_n);
    let seeds = o.seeds.unwrap_or(seeds);
    let ws: &[u32] = if o.smoke {
        &[2, 8, 32]
    } else {
        &[2, 4, 8, 16, 32]
    };
    emit!("# {title}");
    emit!("# jobs={jobs_n} seeds={seeds} alpha=0.1 paths/job=4");
    emit("wavelengths,lp_norm,lpd_norm,lpdar_norm,z_star,lp_throughput");
    // Every (W, seed) cell is independent: the grid runs across the pool
    // and folds per W in input order.
    let grid: Vec<(u32, u64)> = ws
        .iter()
        .flat_map(|&w| (0..seeds as u64).map(move |s| (w, s)))
        .collect();
    let cells = par_points(&grid, |&(w, seed)| {
        let r = max_throughput_pipeline(&instance(w, seed, jobs_n), 0.1).expect("pipeline");
        [
            r.lpd_normalized(),
            r.lpdar_normalized(),
            r.z_star,
            r.lp_throughput,
        ]
    });
    let means: Vec<[f64; 4]> = (ws.iter().enumerate())
        .map(|(i, w)| {
            let rows = &cells[i * seeds..(i + 1) * seeds];
            let mean = |k: usize| rows.iter().map(|r| r[k]).sum::<f64>() / seeds as f64;
            let [lpd, lpdar, z, lp] = [0, 1, 2, 3].map(mean);
            emit!("{w},1.000,{lpd:.3},{lpdar:.3},{z:.3},{lp:.3}");
            [lpd, lpdar, z, lp]
        })
        .collect();
    [0, 1, 2, 3].map(|k| means.iter().map(|p| p[k]).collect())
}

/// The claims Figs. 1 and 2 share: LPD / LP at W = 2 in the band the paper
/// reads off its own instances (`lpd_w2`), and the shapes it holds at every
/// scale.
fn w_claims(o: &BenchOpts, cols: &[Vec<f64>; 4], lpd_w2: &'static str) -> Vec<Claim> {
    let [lpd, lpdar, z, lp] = cols;
    let invariant = |xs: &[f64]| xs.iter().all(|x| (x - xs[0]).abs() <= 1e-6 * xs[0].abs());
    vec![
        claim(
            "z_star_and_lp_invariant_in_w",
            "link capacity is held constant while it is split into W wavelengths",
            invariant(z) && invariant(lp),
            format!("Z* {}; LP {}", list(z), list(lp)),
        ),
        claim(
            "lpd_non_decreasing_in_w",
            "LPD's performance improves as the number of wavelengths per link increases",
            non_decreasing(lpd),
            format!("LPD/LP {}", list(lpd)),
        ),
        claim(
            "lpdar_above_lpd",
            "LPDAR significantly improves on LPD, most at 2 wavelengths per link",
            lpdar.iter().zip(lpd).all(|(a, d)| a + TOL >= *d) && lpdar[0] > lpd[0] + TOL,
            format!("LPDAR/LP {}; LPD/LP {}", list(lpdar), list(lpd)),
        ),
        claim(
            "lpd_w2_band",
            lpd_w2,
            (0.45..=0.70).contains(&lpd[0]),
            format!("LPD/LP {:.3}", lpd[0]),
        )
        .at_paper_scale(o),
    ]
}

/// **Fig. 1** — throughput vs wavelengths per link, 100-node Waxman network.
fn fig1(o: &BenchOpts) -> Vec<Claim> {
    let cols = w_sweep(
        o,
        "Fig. 1: throughput vs wavelengths per link (random network)",
        if o.smoke { (40, 1) } else { (250, 2) },
        |w, seed, n| {
            let g = paper_random_network(w, 42 + seed, o.smoke);
            let jobs = workload(&g, n, 1000 + seed, (1.0, 100.0), (4.0, 10.0));
            build_instance(&g, &jobs, w, 4)
        },
    );
    let lpdar = &cols[1];
    let lpd_w2 = "LPD achieves about half of LP's throughput at 2 wavelengths";
    let mut claims = w_claims(o, &cols, lpd_w2);
    claims.extend([
        claim(
            "lpdar_w2_at_least_0.85",
            "LPDAR achieves about 90% of LP's throughput at 2 wavelengths",
            lpdar[0] >= 0.85,
            format!("LPDAR/LP {:.3}", lpdar[0]),
        )
        .at_paper_scale(o),
        claim(
            "lpdar_from_w4_at_least_0.94",
            "LPDAR is at least 95% of LP from 4 wavelengths per link up",
            lpdar[1..].iter().all(|&x| x >= 0.94),
            format!("LPDAR/LP {}", list(&lpdar[1..])),
        )
        .at_paper_scale(o),
    ]);
    claims
}

/// **Fig. 2** — throughput vs wavelengths per link on Abilene (11 nodes,
/// 20 link pairs).
fn fig2(o: &BenchOpts) -> Vec<Claim> {
    let cols = w_sweep(
        o,
        "Fig. 2: throughput vs wavelengths per link (Abilene, 11 nodes / 20 link pairs)",
        if o.smoke { (20, 1) } else { (150, 3) },
        |w, seed, n| {
            let (g, _) = abilene20(w);
            let jobs = workload(&g, n, 2000 + seed, (1.0, 100.0), (3.0, 8.0));
            build_instance(&g, &jobs, w, 4)
        },
    );
    let lpdar = &cols[1];
    let lpd_w2 = "LPD achieves about 60% of LP's throughput at 2 wavelengths";
    let mut claims = w_claims(o, &cols, lpd_w2);
    claims.push(claim(
        "lpdar_near_lp",
        "LPDAR's throughput is nearly identical to LP's at every wavelength count",
        lpdar.iter().all(|x| (x - 1.0).abs() <= 0.05),
        format!("LPDAR/LP {}", list(lpdar)),
    ));
    claims
}

/// **Fig. 3** — computation time of LP, LPD and LPDAR vs jobs, 100-node
/// Waxman network. The points run one after another on this thread, each
/// row printing as its point finishes, so no timed point shares the cores.
fn fig3(o: &BenchOpts) -> Vec<Claim> {
    let (max, points) = if o.smoke { (40, 2) } else { (250, 5) };
    let w = 4;
    emit!("# Fig. 3: computation time vs number of jobs (random network, W={w})");
    emit("# times in seconds; lpX_time includes every stage up to X (paper convention)");
    emit("# solver-work columns: simplex iterations (phase 1 of those) and warm starts");
    emit("# accepted across the two stages (Stage 2 warm-starts from Stage 1's basis)");
    emit("jobs,stage1_s,lp_s,lpd_s,lpdar_s,lpd_extra_s,lpdar_extra_s,iters,phase1_iters,warm_accepted");
    let mut largest = None;
    for n in sweep(o.jobs.unwrap_or(max), points) {
        let g = paper_random_network(w, 42, o.smoke);
        let inst = build_instance(&g, &workload(&g, n, 1000, (1.0, 100.0), (4.0, 10.0)), w, 4);
        let r = max_throughput_pipeline(&inst, 0.1).expect("pipeline");
        emit!(
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
        largest = Some((n, r.lp_time.as_secs_f64(), r.lpdar_time.as_secs_f64()));
    }
    let (n, lp, lpdar) = largest.unwrap_or((0, f64::NAN, f64::NAN));
    vec![claim(
        "lpd_lpdar_add_under_1pct",
        "the LP solve dominates; truncation and the adjustment add negligible time",
        lpdar - lp < 0.01 * lp,
        format!("{:.3} s over an LP of {lp:.3} s at {n} jobs", lpdar - lp),
    )
    .at_paper_scale(o)]
}

/// RET's search for Fig. 4, both backends.
fn fig4_ret() -> RetConfig {
    RetConfig {
        bsearch_tol: 0.05,
        b_max: 10.0,
        max_delta_steps: 120,
        ..RetConfig::default()
    }
}

/// A RET answer's average end times, LP then LPDAR; NaN where it has none.
fn ends(r: &RetResult) -> [f64; 2] {
    [r.lp_avg_end_time(), r.lpdar_avg_end_time()].map(|t| t.unwrap_or(f64::NAN))
}

/// Fig. 4's end-time claims over the sweep's `[LP, LPDAR]` average ends.
fn end_claims(ends: &[[f64; 2]]) -> Vec<Claim> {
    let (lp, lpdar): (Vec<f64>, Vec<f64>) = ends.iter().map(|e| (e[0], e[1])).unzip();
    let measured = format!("LP {}; LPDAR {}", list(&lp), list(&lpdar));
    vec![
        claim(
            "lp_ends_no_later_than_lpdar",
            "LP's average end time is slightly smaller than LPDAR's",
            ends.iter().all(|e| e[0] <= e[1] + TOL),
            measured.clone(),
        ),
        claim(
            "ends_non_decreasing_in_jobs",
            "the average end time increases with the number of jobs",
            non_decreasing(&lp) && non_decreasing(&lpdar),
            measured,
        ),
    ]
}

/// **Fig. 4** — RET: average end time of LP and LPDAR vs jobs, 100-node
/// Waxman network, Quick-Finish objective. LPD, which the paper omits, is
/// reported as its fraction of jobs finished.
fn fig4(o: &BenchOpts) -> Vec<Claim> {
    if o.colgen {
        return fig4_colgen(o);
    }
    if o.paths.is_some() || o.size_gb.is_some() {
        usage_error("--paths and --size-gb are options of fig4 --colgen only");
    }
    let (max, points) = if o.smoke { (20, 2) } else { (100, 4) };
    let w = 2;
    emit!("# Fig. 4: RET average end time vs number of jobs (random network, W={w}, QF objective)");
    emit("# solver-work columns: total LP solves, simplex iterations (phase 1 of those),");
    emit("# warm starts accepted, and cold fallbacks across the bisection and delta growth");
    emit("jobs,b_lp,b_final,lp_avg_end,lpdar_avg_end,lpd_frac_finished,lp_solves,iters,phase1_iters,warm_accepted,cold_fallbacks");
    // Each point's RET search is one serial chain of probes; the points run
    // across the pool.
    let rows = par_points(&sweep(o.jobs.unwrap_or(max), points), |&n| {
        let g = paper_random_network(w, 42, o.smoke);
        let jobs = workload(&g, n, 3000, (100.0, 400.0), (2.0, 4.0));
        match solve_ret(&g, &jobs, &InstanceConfig::paper(w), &fig4_ret()).expect("ret") {
            Some(r) => {
                let [lp, lpdar] = ends(&r);
                let row = format!(
                    "{n},{:.3},{:.3},{lp:.3},{lpdar:.3},{:.3},{},{},{},{},{}",
                    r.b_lp,
                    r.b_final,
                    r.lpd_fraction_finished(),
                    r.lp_solves(),
                    r.stats.iterations,
                    r.stats.phase1_iterations,
                    r.stats.warm_starts_accepted,
                    r.stats.warm_start_fallbacks,
                );
                (row, [lp, lpdar], r.lpd_fraction_finished())
            }
            None => (
                format!("{n},NA,NA,NA,NA,NA,NA,NA,NA,NA,NA"),
                [f64::NAN; 2],
                f64::NAN,
            ),
        }
    });
    for (row, _, _) in &rows {
        emit(row);
    }
    let lpd: Vec<f64> = rows.iter().map(|r| r.2).collect();
    let mut claims = end_claims(&rows.iter().map(|r| r.1).collect::<Vec<_>>());
    claims.push(claim(
        "lpd_finishes_nothing",
        "LPD finishes almost no job, so the figure omits it",
        lpd.iter().all(|&f| f == 0.0),
        format!("LPD finished {}", list(&lpd)),
    ));
    claims
}

/// `fig4 --colgen`: the Fig. 4 search by column generation on a 1000-node
/// Waxman network. `exhaustive_cols` counts the `(job, path, slice)` grid
/// it never builds; `--paths` (default 16) is the Yen budget, `--size-gb`
/// the largest job (the recorded sweep sets 8, so 10 000 jobs leave the
/// network contended but extensible). `b_gap` holds `b_lp` to
/// [`solve_ret`]'s up to 100 jobs. The points run on this thread: the
/// `_secs` columns are wall-clock.
fn fig4_colgen(o: &BenchOpts) -> Vec<Claim> {
    let (nodes, pairs) = if o.smoke { (100, 200) } else { (1000, 2000) };
    let job_counts = match o.jobs.unwrap_or(if o.smoke { 50 } else { 10_000 }) {
        max if o.smoke => [2 * max / 5, max].into_iter().filter(|&n| n > 0).collect(),
        max => sweep(max, 4),
    };
    let cfg = InstanceConfig {
        paths_per_job: o.paths.unwrap_or(16),
        ..InstanceConfig::paper(2)
    };
    let size_hi = o.size_gb.unwrap_or(100) as f64;
    emit!(
        "# Fig. 4 --colgen: RET under delayed column generation \
         ({nodes}-node Waxman, W=2, jobs 1-{size_hi} GB)"
    );
    emit("# pool_cols: (path, slice) variables the restricted master ended with;");
    emit("# exhaustive_cols: what the monolithic build would materialize (Yen census);");
    emit("# b_gap: CG b_lp minus monolithic b_lp (NA when the monolithic build is too big)");
    emit(
        "jobs,b_lp,b_final,lp_avg_end,lpdar_avg_end,pool_cols,exhaustive_cols,col_ratio,\
         cg_rounds,cg_cols_added,cg_pricer_calls,b_gap,solve_secs,census_secs",
    );
    let g = waxman_network(&WaxmanConfig {
        nodes,
        link_pairs: pairs,
        wavelengths: 2,
        alpha: 0.15,
        seed: 42,
    });
    let mut all_ends = Vec::new();
    for n in job_counts {
        let jobs = workload(&g, n, 3000, (1.0, size_hi), (4.0, 10.0));
        let (out, solve) = timed(|| {
            solve_ret_colgen(&g, &jobs, &cfg, &fig4_ret(), &ColGenConfig::default())
                .expect("ret colgen")
        });
        let Some((r, cg)) = out else {
            emit!("{n},NA,NA,NA,NA,NA,NA,NA,NA,NA,NA,NA,{},NA", secs(solve));
            all_ends.push([f64::NAN; 2]);
            continue;
        };
        let (exhaustive, census) = timed(|| {
            let mut ps = PathSet::new(cfg.paths_per_job);
            (jobs.iter().enumerate())
                .map(|(i, j)| ps.paths(&g, j.src, j.dst).len() * r.instance.vars.window(i).len())
                .sum::<usize>()
        });
        let pool = r.instance.vars.len();
        let mono = (n <= 100).then(|| solve_ret(&g, &jobs, &cfg, &fig4_ret()).expect("ret"));
        let b_gap = match mono.flatten() {
            Some(mono) => format!("{:.4}", r.b_lp - mono.b_lp),
            None => "NA".to_string(),
        };
        let [lp, lpdar] = ends(&r);
        emit!(
            "{n},{:.3},{:.3},{lp:.3},{lpdar:.3},{pool},{exhaustive},{:.4},{},{},{},{b_gap},{},{}",
            r.b_lp,
            r.b_final,
            pool as f64 / exhaustive as f64,
            cg.rounds,
            cg.columns_added,
            cg.pricer_calls,
            secs(solve),
            secs(census),
        );
        all_ends.push([lp, lpdar]);
    }
    end_claims(&all_ends)
}

/// **§III-B.1** — fraction of jobs finished at Algorithm 2's final
/// extension, on the random network and on Abilene.
fn jobs_finished(o: &BenchOpts) -> Vec<Claim> {
    let seeds = o.seeds.unwrap_or(if o.smoke { 1 } else { 3 });
    emit("# §III-B.1: fraction of jobs finished at the final RET extension");
    emit("network,seed,jobs,b_lp,b_final,lp_frac,lpd_frac,lpdar_frac");
    let ret_cfg = RetConfig {
        bsearch_tol: 0.05,
        ..RetConfig::default()
    };
    let w = 2;
    // One scenario: `[b_lp, b_final, LP, LPD, LPDAR finished]`, or `None`
    // when no extension up to `b_max` completes every job.
    let scenario = |g: &Graph, n: usize, seed: u64| {
        let jobs = workload(g, n, seed, (100.0, 400.0), (2.0, 4.0));
        let r = solve_ret(g, &jobs, &InstanceConfig::paper(w), &ret_cfg).expect("ret");
        r.map(|r| {
            [
                r.b_lp,
                r.b_final,
                r.lp_fraction_finished(),
                r.lpd_fraction_finished(),
                r.lpdar_fraction_finished(),
            ]
        })
    };
    let seed_list: Vec<u64> = (0..seeds as u64).collect();
    let rows: Vec<_> = par_points(&seed_list, |&seed| {
        let (n, na) = if o.smoke { (15, 10) } else { (50, 30) };
        let g = paper_random_network(w, 42 + seed, o.smoke);
        let (ga, _) = abilene20(w);
        [
            ("random100", seed, n, scenario(&g, n, 4000 + seed)),
            ("abilene20", seed, na, scenario(&ga, na, 5000 + seed)),
        ]
    })
    .into_iter()
    .flatten()
    .collect();
    for (net, seed, n, r) in &rows {
        emit(&match r {
            Some(v) => format!(
                "{net},{seed},{n},{:.3},{:.3},{:.3},{:.3},{:.3}",
                v[0], v[1], v[2], v[3], v[4]
            ),
            None => format!("{net},{seed},{n},NA,NA,NA,NA,NA"),
        });
    }
    let col = |k: usize| -> Vec<f64> {
        rows.iter()
            .map(|r| r.3.map_or(f64::NAN, |v| v[k]))
            .collect()
    };
    let (b_lp, b_final, lp, lpd, lpdar) = (col(0), col(1), col(2), col(3), col(4));
    vec![
        claim(
            "lp_and_lpdar_finish_all",
            "at the final extension LP and LPDAR finish 100% of the jobs",
            lp.iter().chain(&lpdar).all(|&f| f >= 1.0),
            format!("LP {}; LPDAR {}", list(&lp), list(&lpdar)),
        ),
        claim(
            "lpd_finishes_little",
            "LPD finishes a very small fraction of the jobs (typically zero)",
            lpd.iter().all(|&f| f <= 0.1),
            format!("LPD {}", list(&lpd)),
        ),
        claim(
            "b_final_at_least_b_lp",
            "LPDAR's extension equals or slightly exceeds LP's minimum",
            b_final.iter().zip(&b_lp).all(|(f, b)| f + TOL >= *b),
            format!("b_final {}; b_lp {}", list(&b_final), list(&b_lp)),
        ),
    ]
}

/// The smallest per-job throughput `Z_i` in `s`.
fn min_job_z(inst: &Instance, s: &Schedule) -> f64 {
    (0..inst.num_jobs())
        .map(|i| s.throughput(inst, i))
        .fold(f64::INFINITY, f64::min)
}

/// **A1** — LPDAR's visit order, which the paper fixes only implicitly
/// ("for each time slice, for each job, for each path"). No paper claim.
fn ablation_order(o: &BenchOpts) -> Vec<Claim> {
    let jobs_n = o.jobs.unwrap_or(if o.smoke { 30 } else { 150 });
    let w = 2;
    let g = paper_random_network(w, 42, o.smoke);
    let jobs = workload(&g, jobs_n, 1000, (1.0, 100.0), (4.0, 10.0));
    let inst = build_instance(&g, &jobs, w, 4);
    let s1 = solve_stage1(&inst).expect("stage1");
    let s2 = solve_stage2(&inst, s1.z_star, 0.1).expect("stage2");
    let lp_thru = s2.schedule.weighted_throughput(&inst);
    let lpd = truncate(&inst, &s2.schedule);
    emit!("# Ablation A1: LPDAR visit order (random network, W={w}, jobs={jobs_n})");
    emit!("# lp_throughput={lp_thru:.3}");
    emit("order,lpdar_norm,min_job_throughput");
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
        format!("{name},{norm:.4},{:.4}", min_job_z(&inst, &s))
    });
    rows.iter().for_each(emit);
    Vec::new()
}

/// **A2** — the fairness slack α (Remark 1).
fn ablation_alpha(o: &BenchOpts) -> Vec<Claim> {
    let jobs_n = o.jobs.unwrap_or(if o.smoke { 20 } else { 120 });
    let w = 2;
    let (g, _) = abilene20(w);
    let jobs = workload(&g, jobs_n, 2000, (1.0, 100.0), (3.0, 8.0));
    let inst = build_instance(&g, &jobs, w, 4);
    emit!("# Ablation A2: fairness slack alpha (Abilene-20, W={w}, jobs={jobs_n})");
    emit("alpha,z_star,lp_throughput,lpdar_norm,lp_min_job_z,lpdar_min_job_z");
    let alphas = [0.0, 0.05, 0.1, 0.2, 0.4, 0.8];
    let rows = par_points(&alphas, |&alpha| {
        let r = max_throughput_pipeline(&inst, alpha).expect("pipeline");
        let (min_lp, min_lpdar) = (min_job_z(&inst, &r.lp), min_job_z(&inst, &r.lpdar));
        let row = format!(
            "{alpha},{:.3},{:.3},{:.4},{min_lp:.4},{min_lpdar:.4}",
            r.z_star,
            r.lp_throughput,
            r.lpdar_normalized(),
        );
        (row, r.lp_throughput, min_lp)
    });
    rows.iter().for_each(|(row, _, _)| emit(row));
    let lp: Vec<f64> = rows.iter().map(|r| r.1).collect();
    let min_lp: Vec<f64> = rows.iter().map(|r| r.2).collect();
    let neg: Vec<f64> = min_lp.iter().map(|z| -z).collect();
    vec![
        claim(
            "lp_throughput_non_decreasing_in_alpha",
            "a larger alpha leaves more room and raises the total throughput",
            non_decreasing(&lp),
            format!("LP {}", list(&lp)),
        ),
        claim(
            "min_job_z_non_increasing_in_alpha",
            "a larger alpha gives up per-job fairness",
            non_decreasing(&neg),
            format!("min LP Z_i {}", list(&min_lp)),
        ),
    ]
}

/// **A3** — paths per job. The points run one after another on this
/// thread: `lp_time_s` is wall-clock.
fn ablation_paths(o: &BenchOpts) -> Vec<Claim> {
    let jobs_n = o.jobs.unwrap_or(if o.smoke { 25 } else { 100 });
    let w = 4;
    let g = paper_random_network(w, 42, o.smoke);
    let jobs = workload(&g, jobs_n, 1000, (1.0, 100.0), (4.0, 10.0));
    emit!("# Ablation A3: paths per job (random network, W={w}, jobs={jobs_n})");
    emit("paths_per_job,z_star,lp_throughput,lpdar_norm,lp_time_s");
    let z: Vec<f64> = [1usize, 2, 4, 8]
        .into_iter()
        .map(|k| {
            let inst = build_instance(&g, &jobs, w, k);
            let (r, t) = timed(|| max_throughput_pipeline(&inst, 0.1).expect("pipeline"));
            emit!(
                "{k},{:.3},{:.3},{:.4},{}",
                r.z_star,
                r.lp_throughput,
                r.lpdar_normalized(),
                secs(t)
            );
            r.z_star
        })
        .collect();
    vec![claim(
        "four_paths_capture_eight",
        "4 to 8 paths per job capture most of the attainable performance",
        z[2] >= 0.95 * z[3],
        format!("Z* {} at 1, 2, 4, 8 paths", list(&z)),
    )]
}

/// The Stage-2 *integer* program of a small instance. `fairness = None`
/// drops eq. 9 (LPDAR does not keep it, so the unconstrained ILP is the
/// honest upper bound; see tests/milp_crosscheck.rs).
fn stage2_milp(inst: &Instance, fairness: Option<(f64, f64)>) -> Problem {
    let total = inst.total_demand();
    let mut p = Problem::new(Objective::Maximize);
    let mut cols = Vec::new();
    for (_, job, path, _) in inst.vars.iter() {
        let bn = inst.paths[job][path].bottleneck_wavelengths(&inst.graph) as f64;
        cols.push(p.add_int_col(0.0, bn, 1.0 / total));
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

/// **A4** — LPDAR against the exact integer optimum on 6-node rings, small
/// enough for branch-and-bound: the comparison the paper could not run.
fn ablation_exact(o: &BenchOpts) -> Vec<Claim> {
    let trials = o.seeds.unwrap_or(5);
    emit("# Ablation A4: LPDAR vs exact ILP (tiny ring networks, W=2)");
    emit(
        "trial,jobs,lp_obj,ilp_obj,ilp_fair_obj,lpdar_obj,lpdar_over_ilp,nodes_explored,\
         ilp_fair_status,ilp_fair_nodes",
    );
    let trial_ids: Vec<u64> = (0..trials as u64).collect();
    let rows = par_points(&trial_ids, |&trial| {
        // A 6-node ring with 2 wavelengths per link; 6 jobs, tiny windows.
        let mut g = Graph::new();
        let ns = g.add_nodes(6);
        for i in 0..6 {
            g.add_link_pair(ns[i], ns[(i + 1) % 6], 2);
        }
        let jobs = workload(&g, 6, 100 + trial, (40.0, 160.0), (2.0, 5.0));
        let inst = build_instance(&g, &jobs, 2, 3);
        let s1 = solve_stage1(&inst).expect("stage1");
        let s2 = solve_stage2(&inst, s1.z_star, 0.1).expect("stage2");
        let lp_obj = s2.schedule.weighted_throughput(&inst);
        let heur_obj = lpdar(&inst, &s2.schedule, AdjustOrder::Paper).weighted_throughput(&inst);
        let cfg = MilpConfig { max_nodes: 200_000 };
        let sol = solve_milp(&stage2_milp(&inst, None), &cfg).expect("milp");
        let ilp_obj = match sol.status {
            MilpStatus::Optimal => sol.objective,
            _ => f64::NAN,
        };
        let fair = solve_milp(&stage2_milp(&inst, Some((s1.z_star, 0.1))), &cfg).expect("milp");
        // `ilp_fair_obj` is NaN both when eq. 9 leaves no integer point and
        // when the search gave up; the status column tells them apart.
        let (fair_obj, fair_status) = match fair.status {
            MilpStatus::Optimal => (fair.objective, "optimal"),
            MilpStatus::Infeasible => (f64::NAN, "infeasible"),
            MilpStatus::NodeLimit => (f64::NAN, "node_limit"),
            MilpStatus::Unbounded => (f64::NAN, "unbounded"),
        };
        let row = format!(
            "{trial},{},{lp_obj:.4},{ilp_obj:.4},{fair_obj:.4},{heur_obj:.4},{:.4},{},\
             {fair_status},{}",
            inst.num_jobs(),
            heur_obj / ilp_obj,
            sol.nodes,
            fair.nodes
        );
        (row, heur_obj, ilp_obj)
    });
    rows.iter().for_each(|(row, _, _)| emit(row));
    let ratio: Vec<f64> = rows.iter().map(|(_, h, ilp)| h / ilp).collect();
    let worst = ratio.iter().copied().fold(f64::INFINITY, f64::min);
    vec![
        claim(
            "ilp_bounds_lpdar",
            "the integer optimum bounds every integral schedule, LPDAR's too",
            rows.iter().all(|(_, h, ilp)| *ilp + TOL >= *h),
            format!("LPDAR/ILP {}", list(&ratio)),
        ),
        claim(
            "lpdar_within_recorded_gap",
            "LPDAR stays within the recorded gap of the exact optimum (83%)",
            worst >= 0.83,
            format!("worst LPDAR/ILP {worst:.4}"),
        ),
    ]
}

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_default();
    let Some(&(name, flags, run)) = FIGURES.iter().find(|f| f.0 == name) else {
        let names: Vec<&str> = FIGURES.iter().map(|f| f.0).collect();
        let unknown = match name.as_str() {
            "" => String::new(),
            name => format!("unknown figure {name:?}; "),
        };
        usage_error(&format!(
            "{unknown}usage: claims <figure> [flags], figure one of: {}",
            names.join(" ")
        ));
    };
    let opts = parse_bench_args(args, flags).unwrap_or_else(|msg| usage_error(&msg));
    if opts.report.is_some() {
        wavesched_obs::set_enabled(true);
    }
    let mut failed = false;
    for c in run(&opts) {
        let verdict = match c.ok {
            Some(true) => "ok".to_string(),
            Some(false) => format!("FAILED ({}; measured {})", c.paper, c.measured),
            None => format!("not checked at this scale (measured {})", c.measured),
        };
        eprintln!("claim {name} {}: {verdict}", c.name);
        failed |= c.ok == Some(false);
    }
    wavesched_bench::write_report(opts.report.as_deref());
    if failed {
        std::process::exit(1);
    }
}
