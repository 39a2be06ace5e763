//! Criterion benchmarks for the hypersparse simplex kernels.
//!
//! Two Stage-1 models, both the Fig. 4 workload shape (random network,
//! W = 2, 100–400 GB jobs, 2–4 h windows):
//!
//! * `fig4_instance` — the paper-default 100-node random network with the
//!   topmost fig4 sweep point (100 jobs), ~1.1k rows. Used for the
//!   cold-solve / warm-re-solve Criterion medians.
//! * `fig4_scale_instance` — the same workload on the paper's largest
//!   random-network scale (400 nodes, 400 jobs), ~4.6k rows. Used for the
//!   per-pivot kernel measurements: this is the regime the hypersparse
//!   kernels exist for.
//!
//! Kernel time is measured directly: a [`PivotProbe`] parks the engine
//! mid-solve (150 steady-state pivots in, mid refactorization cycle) and
//! sweeps every FTRAN (one per nonbasic column) and every BTRAN (one unit
//! vector per row) through the kernel stack — triangular solves plus the
//! eta file — once with the sparse kernels (default config) and once with
//! the dense kernels forced (`kernel_density_threshold: 0.0`). Both modes
//! produce bit-identical results (see `tests/kernels_differential.rs`), so
//! the ratio is a pure kernel-speed comparison. A pivot performs one FTRAN
//! and one BTRAN, so "per-pivot kernel time" is the sum of the two
//! medians; whole-pivot windows (kernels + pricing + ratio test + update)
//! are also timed for context.
//!
//! The medians and ratios are printed as `#` comment lines; `BENCH_5.json`
//! records them (see EXPERIMENTS.md for the capture command).
//!
//! Expected shape of the results: at 100-node scale FTRAN/BTRAN results
//! are still moderately dense, so the sparse kernels roughly break even —
//! the win there is allocation-free scratch and the pruned eta file. At
//! 400-node scale the kernels are hypersparse and the sparse path is
//! several times faster on both solves.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Instant;
use wavesched_core::instance::{Instance, InstanceConfig};
use wavesched_core::stage1::{build_stage1_problem, solve_stage1_with_start};
use wavesched_lp::{PivotProbe, Problem, SimplexConfig};
use wavesched_net::{waxman_network, PathSet, WaxmanConfig};
use wavesched_workload::{WorkloadConfig, WorkloadGenerator};

/// Steady-state pivots taken before the kernels are measured. 150 parks
/// the engine mid refactorization cycle (~50 etas at the default interval
/// of 100), so the eta-file share of BTRAN is representative.
const WARMUP_PIVOTS: u64 = 150;
/// Kernel-sweep repetitions per mode; the median is reported.
const SAMPLES: usize = 9;
/// Pivots per whole-pivot context window.
const WINDOW_PIVOTS: u64 = 200;

/// The Fig. 4 workload on a random network: `nodes` nodes with 2×`nodes`
/// link pairs, W = 2, one job per node.
fn fig4_workload_instance(nodes: usize) -> Instance {
    let g = waxman_network(&WaxmanConfig {
        nodes,
        link_pairs: 2 * nodes,
        wavelengths: 2,
        alpha: 0.15,
        seed: 42,
    });
    let jobs = WorkloadGenerator::new(WorkloadConfig {
        num_jobs: nodes,
        seed: 3000,
        size_gb: (100.0, 400.0),
        window: (2.0, 4.0),
        ..Default::default()
    })
    .generate(&g);
    let cfg = InstanceConfig::paper(2);
    let mut ps = PathSet::new(cfg.paths_per_job);
    Instance::build(&g, &jobs, &cfg, &mut ps)
}

/// The topmost fig4 sweep point: paper-default 100-node network, 100 jobs.
fn fig4_instance() -> Instance {
    fig4_workload_instance(100)
}

/// The fig4 workload at the paper's largest random-network scale.
fn fig4_scale_instance() -> Instance {
    fig4_workload_instance(400)
}

fn dense_cfg() -> SimplexConfig {
    SimplexConfig {
        kernel_density_threshold: 0.0,
        ..SimplexConfig::default()
    }
}

struct KernelMedians {
    ftran_ns: f64,
    btran_ns: f64,
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Median ns per FTRAN/BTRAN over [`SAMPLES`] full sweeps of a parked
/// probe. Sweeps only touch engine scratch, so one probe serves them all.
fn kernel_sweep_ns(p: &Problem, cfg: &SimplexConfig) -> KernelMedians {
    let mut probe = PivotProbe::new_with(p, WARMUP_PIVOTS, cfg);
    let mut ftran = Vec::with_capacity(SAMPLES);
    let mut btran = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let t = Instant::now();
        let n = probe.ftran_sweep();
        ftran.push(t.elapsed().as_nanos() as f64 / n as f64);
        let t = Instant::now();
        let m = probe.btran_sweep();
        btran.push(t.elapsed().as_nanos() as f64 / m as f64);
    }
    KernelMedians {
        ftran_ns: median(&mut ftran),
        btran_ns: median(&mut btran),
    }
}

/// Median ns per whole pivot (kernels + pricing + ratio test + update)
/// over [`SAMPLES`] fresh probe windows.
fn whole_pivot_ns(p: &Problem, cfg: &SimplexConfig) -> f64 {
    let mut samples = Vec::with_capacity(SAMPLES);
    for _ in 0..SAMPLES {
        let mut probe = PivotProbe::new_with(p, WARMUP_PIVOTS, cfg);
        probe.reserve(WINDOW_PIVOTS as usize + 8);
        let t = Instant::now();
        let ran = probe.pivots(WINDOW_PIVOTS);
        let dt = t.elapsed();
        assert_eq!(ran, WINDOW_PIVOTS, "probe LP too small for the window");
        samples.push(dt.as_nanos() as f64 / ran as f64);
    }
    median(&mut samples)
}

fn report_kernels(label: &str, p: &Problem) {
    let sparse = kernel_sweep_ns(p, &SimplexConfig::default());
    let dense = kernel_sweep_ns(p, &dense_cfg());
    let sparse_pivot = sparse.ftran_ns + sparse.btran_ns;
    let dense_pivot = dense.ftran_ns + dense.btran_ns;
    eprintln!(
        "# {label} ftran: sparse {:.0} ns vs dense {:.0} ns ({:.2}x)",
        sparse.ftran_ns,
        dense.ftran_ns,
        dense.ftran_ns / sparse.ftran_ns
    );
    eprintln!(
        "# {label} btran: sparse {:.0} ns vs dense {:.0} ns ({:.2}x)",
        sparse.btran_ns,
        dense.btran_ns,
        dense.btran_ns / sparse.btran_ns
    );
    eprintln!(
        "# {label} per-pivot kernel time (1 ftran + 1 btran): sparse {:.0} ns vs dense {:.0} ns ({:.2}x)",
        sparse_pivot,
        dense_pivot,
        dense_pivot / sparse_pivot
    );
}

fn bench_stage1_cold_vs_warm(c: &mut Criterion) {
    let inst = fig4_instance();
    let lp = SimplexConfig::default();
    let first = solve_stage1_with_start(&inst, &lp, None).expect("stage 1 solve");
    let basis = first.basis.clone().expect("stage 1 returns a basis");
    eprintln!(
        "# fig4 stage1 cold: {} iters, {} refactors, {} ftran fallbacks / {} ops",
        first.stats.iterations,
        first.stats.refactorizations,
        first.stats.ftran_dense_fallbacks,
        first.stats.ftran_ops,
    );

    let mut group = c.benchmark_group("kernels_stage1");
    group.sample_size(10);
    group.bench_function("cold", |b| {
        b.iter(|| black_box(solve_stage1_with_start(&inst, &lp, None).unwrap()))
    });
    group.bench_function("warm", |b| {
        b.iter(|| black_box(solve_stage1_with_start(&inst, &lp, Some(&basis)).unwrap()))
    });
    group.finish();
}

fn bench_per_pivot_kernels(c: &mut Criterion) {
    let p100 = build_stage1_problem(&fig4_instance());
    eprintln!(
        "# fig4 LP: {} rows x {} cols",
        p100.num_rows(),
        p100.num_cols()
    );
    report_kernels("fig4(100-node)", &p100);

    let p400 = build_stage1_problem(&fig4_scale_instance());
    eprintln!(
        "# fig4-scale LP: {} rows x {} cols",
        p400.num_rows(),
        p400.num_cols()
    );
    report_kernels("fig4-scale(400-node)", &p400);
    let sparse_pivot = whole_pivot_ns(&p400, &SimplexConfig::default());
    let dense_pivot = whole_pivot_ns(&p400, &dense_cfg());
    eprintln!(
        "# fig4-scale(400-node) whole pivot: sparse {sparse_pivot:.0} ns vs dense {dense_pivot:.0} ns ({:.2}x)",
        dense_pivot / sparse_pivot
    );
    // Whole-pivot and whole-solve with candidate-list pricing
    // (`partial_pricing: true`). These time-expanded LPs are degenerate enough
    // that the candidate sublist's narrower pivot choices inflate the
    // iteration count, so partial pricing is expected to be at best neutral
    // here — the lines below keep that trade-off measured rather than
    // assumed (see DESIGN.md "Dual simplex & partial pricing").
    let partial_cfg = SimplexConfig {
        partial_pricing: true,
        ..SimplexConfig::default()
    };
    let partial_pivot = whole_pivot_ns(&p400, &partial_cfg);
    eprintln!(
        "# fig4-scale(400-node) whole pivot: full pricing {sparse_pivot:.0} ns vs partial {partial_pivot:.0} ns ({:.2}x)",
        sparse_pivot / partial_pivot
    );
    for (name, cfg) in [
        ("full", SimplexConfig::default()),
        ("partial", partial_cfg.clone()),
    ] {
        let t = Instant::now();
        let sol = wavesched_lp::solve_with(&p400, &cfg).expect("stage1 solve");
        let dt = t.elapsed();
        eprintln!(
            "# fig4-scale(400-node) whole solve, {name} pricing: {:.2}s, obj {:.6}, {} iters, {} refreshes, {} candidates scanned",
            dt.as_secs_f64(),
            sol.objective,
            sol.stats.iterations,
            sol.stats.partial_refreshes,
            sol.stats.pricing_candidates_scanned,
        );
    }

    // The whole-pivot window through Criterion as well (probe construction
    // — standardization plus the warmup solve — is inside the closure, so
    // this is coarser than the `#` medians above).
    let mut group = c.benchmark_group("kernels_pivot_window");
    group.sample_size(10);
    group.bench_function("sparse", |b| {
        b.iter(|| {
            let mut probe = PivotProbe::new_with(&p400, WARMUP_PIVOTS, &SimplexConfig::default());
            probe.reserve(WINDOW_PIVOTS as usize + 8);
            black_box(probe.pivots(WINDOW_PIVOTS))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_stage1_cold_vs_warm, bench_per_pivot_kernels);
criterion_main!(benches);
