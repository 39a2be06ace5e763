//! Criterion benchmarks for warm-started re-solves: RET with session-based
//! probes versus per-probe cold solves, Stage 2 warm-started from the
//! Stage-1 basis versus solved cold, and a column-generation master
//! re-aim sequence with the basis factorization carried across solves
//! versus refactored at every entry.
//!
//! Besides wall-clock, each group prints the solver work counters once at
//! startup (iterations, warm starts accepted, cold fallbacks) so the
//! iteration savings of warm starting are visible directly — the RET
//! comparison is the paper-scale Fig. 4 workload at bench-friendly size.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use wavesched_core::instance::InstanceConfig;
use wavesched_core::ret::{solve_ret, RetConfig, RetResult};
use wavesched_core::stage1::solve_stage1;
use wavesched_core::stage2::{
    solve_stage2_weighted_with_start, stage2_basis_from_stage1, WeightPolicy,
};
use wavesched_lp::{
    NewColumn, NewRow, Objective, Problem, Row, SimplexConfig, SolveStats, SolverSession, Status,
};
use wavesched_net::{abilene14, Graph, PathSet};
use wavesched_workload::{Job, WorkloadConfig, WorkloadGenerator};

/// The Fig. 4 shape at bench-friendly size: an overloaded Abilene so RET's
/// bisection and δ-growth both do real work.
fn fig4_workload() -> (Graph, Vec<Job>, InstanceConfig, RetConfig) {
    let (g, _) = abilene14(2);
    let jobs = WorkloadGenerator::new(WorkloadConfig {
        num_jobs: 15,
        seed: 3000,
        size_gb: (100.0, 400.0),
        window: (2.0, 4.0),
        ..Default::default()
    })
    .generate(&g);
    let cfg = InstanceConfig::paper(2);
    let ret_cfg = RetConfig {
        bsearch_tol: 0.05,
        b_max: 10.0,
        max_delta_steps: 120,
        ..RetConfig::default()
    };
    (g, jobs, cfg, ret_cfg)
}

fn run_ret(g: &Graph, jobs: &[Job], cfg: &InstanceConfig, ret_cfg: &RetConfig) -> RetResult {
    solve_ret(g, jobs, cfg, ret_cfg)
        .expect("ret solve")
        .expect("workload must be overloaded but extensible")
}

fn bench_ret_cold_vs_warm(c: &mut Criterion) {
    let (g, jobs, cfg, warm_cfg) = fig4_workload();
    let cold_cfg = RetConfig {
        warm_start: false,
        ..warm_cfg.clone()
    };

    // One instrumented run of each mode: same b̂ and schedules by
    // construction, different work.
    let cold = run_ret(&g, &jobs, &cfg, &cold_cfg);
    let warm = run_ret(&g, &jobs, &cfg, &warm_cfg);
    assert_eq!(cold.b_final.to_bits(), warm.b_final.to_bits());
    eprintln!(
        "# ret cold: {} solves, {} iters ({} phase-1), {} warm accepted, {} fallbacks",
        cold.stats.solves,
        cold.stats.iterations,
        cold.stats.phase1_iterations,
        cold.stats.warm_starts_accepted,
        cold.stats.warm_start_fallbacks,
    );
    eprintln!(
        "# ret warm: {} solves, {} iters ({} phase-1), {} warm accepted, {} fallbacks",
        warm.stats.solves,
        warm.stats.iterations,
        warm.stats.phase1_iterations,
        warm.stats.warm_starts_accepted,
        warm.stats.warm_start_fallbacks,
    );
    eprintln!(
        "# ret warm saves {:.1}% of simplex iterations",
        100.0 * (1.0 - warm.stats.iterations as f64 / cold.stats.iterations as f64)
    );

    let mut group = c.benchmark_group("ret_cold_vs_warm");
    group.sample_size(10);
    group.bench_function("cold", |b| {
        b.iter(|| black_box(run_ret(&g, &jobs, &cfg, &cold_cfg)))
    });
    group.bench_function("warm", |b| {
        b.iter(|| black_box(run_ret(&g, &jobs, &cfg, &warm_cfg)))
    });
    group.finish();
}

fn bench_stage2_cold_vs_warm(c: &mut Criterion) {
    let (g, _) = abilene14(4);
    let jobs = WorkloadGenerator::new(WorkloadConfig {
        num_jobs: 20,
        seed: 11,
        ..Default::default()
    })
    .generate(&g);
    let icfg = InstanceConfig::paper(4);
    let mut ps = PathSet::new(icfg.paths_per_job);
    let inst = wavesched_core::instance::Instance::build(&g, &jobs, &icfg, &mut ps);
    let lp = SimplexConfig::default();
    let s1 = solve_stage1(&inst).expect("stage 1");
    let start = s1
        .basis
        .as_ref()
        .and_then(|b| stage2_basis_from_stage1(b, inst.vars.len()));

    let cold = solve_stage2_weighted_with_start(
        &inst,
        s1.z_star,
        0.1,
        &WeightPolicy::DemandProportional,
        &lp,
        None,
    )
    .expect("stage 2 cold");
    let warm = solve_stage2_weighted_with_start(
        &inst,
        s1.z_star,
        0.1,
        &WeightPolicy::DemandProportional,
        &lp,
        start.as_ref(),
    )
    .expect("stage 2 warm");
    eprintln!(
        "# stage2 cold: {} iters ({} phase-1); warm: {} iters ({} phase-1), {} accepted",
        cold.stats.iterations,
        cold.stats.phase1_iterations,
        warm.stats.iterations,
        warm.stats.phase1_iterations,
        warm.stats.warm_starts_accepted,
    );

    let mut group = c.benchmark_group("stage2_cold_vs_warm");
    group.sample_size(10);
    group.bench_function("cold", |b| {
        b.iter(|| {
            black_box(
                solve_stage2_weighted_with_start(
                    &inst,
                    s1.z_star,
                    0.1,
                    &WeightPolicy::DemandProportional,
                    &lp,
                    None,
                )
                .unwrap(),
            )
        })
    });
    group.bench_function("warm", |b| {
        b.iter(|| {
            black_box(
                solve_stage2_weighted_with_start(
                    &inst,
                    s1.z_star,
                    0.1,
                    &WeightPolicy::DemandProportional,
                    &lp,
                    start.as_ref(),
                )
                .unwrap(),
            )
        })
    });
    group.finish();
}

/// A CG-master-shaped LP: demand rows, one expensive fallback column per
/// row (so every cover state stays feasible), and a pool of cheap "path"
/// columns each covering a handful of rows — the shape
/// `wavesched_core::colgen` re-solves after every pricing round.
fn cg_master_problem(rng: &mut StdRng, rows: usize, pool: usize) -> Problem {
    let mut p = Problem::new(Objective::Minimize);
    for i in 0..rows {
        let r = p.add_row(1.0, f64::INFINITY, &[]);
        let c = p.add_col(0.0, f64::INFINITY, 50.0);
        p.set_coeff(r, c, 1.0);
        debug_assert_eq!(r.index(), i);
    }
    for _ in 0..pool {
        let c = p.add_col(0.0, f64::INFINITY, rng.random_range(1i32..=9) as f64);
        let k = rng.random_range(3..=6usize);
        let mut seen = vec![false; rows];
        for _ in 0..k {
            let i = rng.random_range(0..rows);
            if !seen[i] {
                seen[i] = true;
                p.set_coeff(Row::from_index(i), c, 1.0);
            }
        }
    }
    p
}

/// One leg of the master re-aim replay: `Cold` rebuilds and solves the
/// LP from scratch every step (what `CgMaster` did before sessions),
/// `Session` re-solves in place.
#[derive(Clone, Copy)]
enum ReaimMode {
    Cold,
    Session,
}

/// Replays the master re-aim sequence: per step a block of row demands
/// moves, every eighth step splices fresh columns and every sixteenth a
/// coupling row, exactly like a CG round. Returns the summed objectives
/// (the answer checksum every leg must agree on) and the accumulated
/// work counters.
fn run_cg_reaim(base: &Problem, mode: ReaimMode, steps: usize) -> (f64, SolveStats) {
    let rows = base.num_rows();
    let mut p = base.clone();
    let mut sess = match mode {
        ReaimMode::Cold => None,
        ReaimMode::Session => Some(SolverSession::new(base).expect("session")),
    };
    let mut cold_stats = SolveStats::default();
    let mut resolve = |p: &Problem, sess: &mut Option<SolverSession>| match sess {
        Some(s) => s.solve().expect("re-aim master solve"),
        None => {
            let s = wavesched_lp::solve(p).expect("cold master solve");
            cold_stats.merge(&s.stats);
            s
        }
    };

    let mut rng = StdRng::seed_from_u64(777);
    let mut acc = 0.0;
    let s = resolve(&p, &mut sess);
    assert_eq!(s.status, Status::Optimal);
    acc += s.objective;
    for step in 0..steps {
        for k in 0..6 {
            let r = Row::from_index((step * 13 + k * 19) % rows);
            let demand = 1.0 + ((step + k) % 4) as f64;
            p.set_row_bounds(r, demand, f64::INFINITY);
            if let Some(s) = sess.as_mut() {
                s.set_row_bounds(r, demand, f64::INFINITY);
            }
        }
        if step % 8 == 3 {
            let mut news = Vec::new();
            for _ in 0..2 {
                let mut entries = Vec::new();
                let k = rng.random_range(3..=6usize);
                let mut seen = vec![false; rows];
                for _ in 0..k {
                    let i = rng.random_range(0..rows);
                    if !seen[i] {
                        seen[i] = true;
                        entries.push((Row::from_index(i), 1.0));
                    }
                }
                news.push(NewColumn {
                    lower: 0.0,
                    upper: f64::INFINITY,
                    cost: rng.random_range(1i32..=6) as f64,
                    entries,
                });
            }
            if let Some(s) = sess.as_mut() {
                s.add_columns(&news);
            }
            for nc in &news {
                let c = p.add_col(nc.lower, nc.upper, nc.cost);
                for &(r, v) in &nc.entries {
                    p.set_coeff(r, c, v);
                }
            }
        }
        if step % 16 == 11 {
            // A coupling row over a few existing columns: the one edit
            // that drops the carried factors.
            let entries: Vec<(wavesched_lp::Col, f64)> = (0..6)
                .map(|j| (wavesched_lp::Col::from_index(rows + j * 7), 1.0))
                .collect();
            if let Some(s) = sess.as_mut() {
                s.add_rows(&[NewRow {
                    lower: f64::NEG_INFINITY,
                    upper: 200.0,
                    entries: entries.clone(),
                }]);
            }
            p.add_row(f64::NEG_INFINITY, 200.0, &entries);
        }
        let s = resolve(&p, &mut sess);
        assert_eq!(s.status, Status::Optimal, "step {step}");
        acc += s.objective;
    }
    let stats = match sess {
        Some(s) => s.stats(),
        None => cold_stats,
    };
    (acc, stats)
}

fn bench_cg_master_reaim(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4242);
    let base = cg_master_problem(&mut rng, 120, 360);
    const STEPS: usize = 50;

    // Instrumented replay of each leg: identical answers by the warm
    // invariant, different factorization work.
    let (acc_cold, st_cold) = run_cg_reaim(&base, ReaimMode::Cold, STEPS);
    let (acc_sess, st_sess) = run_cg_reaim(&base, ReaimMode::Session, STEPS);
    assert!(
        (acc_cold - acc_sess).abs() <= 1e-9 * (1.0 + acc_cold.abs()),
        "legs disagree on answers: cold {acc_cold}, session {acc_sess}"
    );
    eprintln!(
        "# cg_master_reaim cold: {} solves, {} refactorizations, {} iters ({} phase-1)",
        st_cold.solves, st_cold.refactorizations, st_cold.iterations, st_cold.phase1_iterations,
    );
    eprintln!(
        "# cg_master_reaim session: {} solves, {} refactorizations ({} cost-model), {} iters, {} reuse hits, {} rejected",
        st_sess.solves,
        st_sess.refactorizations,
        st_sess.refactor_cost_model,
        st_sess.iterations,
        st_sess.lu_reuse_hits,
        st_sess.refactor_reuse_rejected,
    );

    let mut group = c.benchmark_group("cg_master_reaim");
    group.sample_size(10);
    group.bench_function("cold", |b| {
        b.iter(|| black_box(run_cg_reaim(&base, ReaimMode::Cold, STEPS).0))
    });
    group.bench_function("session", |b| {
        b.iter(|| black_box(run_cg_reaim(&base, ReaimMode::Session, STEPS).0))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_ret_cold_vs_warm,
    bench_stage2_cold_vs_warm,
    bench_cg_master_reaim
);
criterion_main!(benches);
