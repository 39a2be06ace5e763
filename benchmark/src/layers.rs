//! Per-layer measurements, all taken from outside the program: harness
//! spans around calls into each layer's public functions, and the counters
//! and spans `wavesched_obs` already records once it is enabled.

use crate::metrics::Values;
use crate::spans::Spans;
use crate::stats::{median, ms};
use crate::workloads::{
    open_trace, pipeline_answer, run_pass, Inputs, Pass, Sizes, Source, Workload, ALPHA,
};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use wavesched_core::instance::Instance;
use wavesched_core::lpdar::{adjust_rates, truncate, AdjustOrder};
use wavesched_core::stage1::build_stage1_problem;
use wavesched_core::stage2::{
    solve_stage2_weighted_with_start, stage2_basis_from_stage1, WeightPolicy,
};
use wavesched_lp::{PivotProbe, SimplexConfig};
use wavesched_net::{Graph, NodeId, PathSet};
use wavesched_obs::Metric;
use wavesched_workload::{Job, WorkloadConfig, WorkloadGenerator};

/// What `wavesched_obs` recorded over the traced repetitions.
pub struct ObsView {
    counters: BTreeMap<String, u64>,
    /// `(path, count, total_ns)` of every aggregated span.
    spans: Vec<(String, u64, u64)>,
}

impl ObsView {
    pub fn take() -> ObsView {
        let mut view = ObsView {
            counters: BTreeMap::new(),
            spans: Vec::new(),
        };
        for m in wavesched_obs::snapshot() {
            match m {
                Metric::Counter { name, value } => {
                    view.counters.insert(name, value);
                }
                Metric::Span {
                    path,
                    count,
                    total_ns,
                    ..
                } => view.spans.push((path, count, total_ns)),
                Metric::Histogram { .. } => {}
            }
        }
        view
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// Total nanoseconds over every span path whose last segment is `name`.
    pub fn span_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|(path, ..)| path.rsplit('/').next() == Some(name))
            .map(|&(_, _, ns)| ns)
            .sum()
    }
}

/// The counters and span totals of `reps` traced repetitions, as
/// per-repetition layer metrics.
pub fn obs_metrics(view: &ObsView, reps: usize, vals: &mut Values) {
    let per_rep = |x: u64| x as f64 / reps.max(1) as f64;
    for name in [
        "lp.iterations",
        "lp.phase1_iterations",
        "lp.dual_iterations",
        "lp.degenerate_pivots",
        "lp.refactorizations",
        "lp.refactor_forced_fallback",
        "lp.pricing_candidates_scanned",
        "lp.solves",
        "lp.warm_starts_accepted",
        "lp.warm_start_fallbacks",
        "lp.lu_reuse_hits",
        "ret.probes",
        "ret.growth_rounds",
        "cg.rounds",
        "cg.columns_added",
        "cg.pricer_calls",
        "cg.master_dual_iterations",
        "controller.invocations",
        "sim.slices",
        "mem.arena_reuse_hits",
    ] {
        vals.set(name, per_rep(view.counter(name)));
    }
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let fallbacks = view.counter("lp.warm_start_fallbacks");
    let warm_attempts = fallbacks + view.counter("lp.warm_starts_accepted");
    vals.set("lp.fallback_share", ratio(fallbacks, warm_attempts));
    let lp_ns = view.span_ns("lp_solve");
    vals.set(
        "lp.us_per_iteration",
        ratio(lp_ns, view.counter("lp.iterations")) / 1e3,
    );
    vals.set(
        "lp.ms_per_solve",
        ratio(lp_ns, view.counter("lp.solves")) / 1e6,
    );
    let invocations = view.counter("controller.invocations");
    let invoke_ns = view.span_ns("invoke");
    vals.set("core.invoke_ms_mean", ratio(invoke_ns, invocations) / 1e6);
    let sim_ns = view.span_ns("sim_stream");
    vals.set(
        "sim.self_ms",
        per_rep(sim_ns.saturating_sub(invoke_ns)) / 1e6,
    );
    vals.set(
        "mem.bytes_allocated_per_invoke",
        ratio(view.counter("mem.bytes_allocated"), invocations),
    );
}

/// Shape totals over the probed instances.
#[derive(Default)]
struct Shape {
    instances: usize,
    pairs: usize,
    paths: usize,
    vars: usize,
    rows: usize,
    cols: usize,
    nnz: usize,
}

fn endpoint_pairs(jobs: &[Job]) -> Vec<(NodeId, NodeId)> {
    let mut pairs: Vec<_> = jobs.iter().map(|j| (j.src, j.dst)).collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// Replays the layers under one instance, each public call in its own
/// span: Yen over the distinct endpoint pairs, the instance build on the
/// warmed path set, the Stage-1 LP build and (unless `cold_solve` is off)
/// its cold solve. Returns the instance, the path set and the solve.
fn probe_instance(
    w: Workload,
    g: &Graph,
    jobs: &[Job],
    cold_solve: bool,
    spans: &mut Spans,
    shape: &mut Shape,
) -> (
    Instance,
    PathSet,
    Option<Result<wavesched_lp::Solution, wavesched_lp::SolveError>>,
) {
    let icfg = w.instance_config();
    let mut ps = PathSet::new(icfg.paths_per_job);
    let pairs = endpoint_pairs(jobs);
    spans.time("net.yen", || ps.warm(g, pairs.iter().copied()));
    shape.pairs += pairs.len();
    shape.paths += pairs
        .iter()
        .map(|&(s, d)| ps.paths(g, s, d).len())
        .sum::<usize>();
    let inst = spans.time("core.instance_build", || {
        Instance::build(g, jobs, &icfg, &mut ps)
    });
    let p = spans.time("core.stage1_build", || build_stage1_problem(&inst));
    shape.instances += 1;
    shape.vars += inst.vars.len();
    shape.rows += p.num_rows();
    shape.cols += p.num_cols();
    shape.nnz += p.num_entries();
    let sol = cold_solve.then(|| spans.time("lp.cold_solve", || wavesched_lp::solve(&p)));
    (inst, ps, sol)
}

fn first_stream_jobs(g: &Graph, source: &Source, n: usize) -> Vec<Job> {
    match source {
        Source::Generated(wl) => WorkloadGenerator::new(wl.clone())
            .stream(g)
            .take(n)
            .collect(),
        Source::TraceFile(path) => open_trace(path, g)
            .map(|rows| rows.filter_map(Result::ok).take(n).collect())
            .unwrap_or_default(),
    }
}

/// The layer replay of one workload over its first `subset` instances.
/// `reference` is an untraced repetition of the same instances: its
/// answers are what the replay must reproduce, its column counts feed the
/// CG census. Failed cross-checks come back as one line each.
pub fn probe_layers(
    w: Workload,
    inputs: &Inputs,
    sizes: Sizes,
    subset: usize,
    reference: &Pass,
    spans: &mut Spans,
    vals: &mut Values,
) -> Vec<String> {
    let g = &inputs.graph;
    let mut failures = Vec::new();
    let mut shape = Shape::default();

    if let Some(s) = &inputs.stream {
        // A controller-sized instance: as many of the stream's first jobs
        // as were ever active at once. Small, so it is replayed many times.
        let peak = reference.peak_active.max(2);
        let jobs = first_stream_jobs(g, &s.source, peak);
        for _ in 0..32 {
            probe_instance(w, g, &jobs, true, spans, &mut shape);
        }
        if let Source::TraceFile(path) = &s.source {
            let rows = spans.time("workload.trace_parse", || {
                open_trace(path, g).map_or(0, |rows| rows.filter(Result::is_ok).count())
            });
            if rows != sizes.jobs {
                failures.push(format!("trace parse returned {rows} rows"));
            }
        }
    } else {
        let mut one_call_ns = 0;
        for (op, jobs) in inputs.jobsets.iter().take(subset).enumerate() {
            if w == Workload::PipelineDense {
                // The same instance's one call, timed right before its
                // replay so both see the host at the same speed.
                one_call_ns += run_pass(w, inputs, sizes, 1, op..op + 1, None).wall_ns();
            }
            let id = spans.enter("probe.instance");
            let cold = w != Workload::CgWaxman1000;
            let (inst, mut ps, sol) = probe_instance(w, g, jobs, cold, spans, &mut shape);
            if w == Workload::PipelineDense {
                match replay_pipeline(&inst, sol, spans) {
                    Ok(line) if reference.answers.get(op) == Some(&line) => {}
                    Ok(line) => failures.push(format!(
                        "operation {op}: layer replay answered {line}, the one call {:?}",
                        reference.answers.get(op)
                    )),
                    Err(e) => failures.push(format!("operation {op}: layer replay failed: {e}")),
                }
            }
            spans.exit(id);
            if let Some(pool) = &reference.cg_pool {
                let census: usize = jobs
                    .iter()
                    .zip(&pool.window_lens)
                    .map(|(j, len)| ps.paths(g, j.src, j.dst).len() * len)
                    .sum();
                vals.set(
                    "core.cg_pool_ratio",
                    pool.pool_cols as f64 / census.max(1) as f64,
                );
            }
        }
        if w == Workload::PipelineDense {
            let layers: u64 = PIPELINE_LAYERS.iter().map(|n| spans.total_ns(n)).sum();
            vals.set("layer_cover", layers as f64 / one_call_ns.max(1) as f64);
            let lpdar = spans.total_ns("core.lpd") + spans.total_ns("core.lpdar");
            vals.set("core.lpdar_share", lpdar as f64 / layers.max(1) as f64);
        }
    }
    let n = shape.instances.max(1) as f64;
    let per_instance = |name: &str| ms(spans.total_ns(name)) / n;
    vals.set("net.yen_ms", per_instance("net.yen"));
    vals.set("net.yen_pairs", shape.pairs as f64 / n);
    vals.set("net.paths_found", shape.paths as f64 / n);
    vals.set(
        "core.instance_build_ms",
        per_instance("core.instance_build"),
    );
    vals.set("core.instance_vars", shape.vars as f64 / n);
    vals.set("core.stage1_build_ms", per_instance("core.stage1_build"));
    vals.set("lp.rows", shape.rows as f64 / n);
    vals.set("lp.cols", shape.cols as f64 / n);
    vals.set("lp.nnz", shape.nnz as f64 / n);
    vals.set("lp.cold_solve_ms", per_instance("lp.cold_solve"));
    vals.set("core.stage2_ms", per_instance("core.stage2"));
    vals.set("core.lpd_ms", per_instance("core.lpd"));
    vals.set("core.lpdar_ms", per_instance("core.lpdar"));
    vals.set(
        "workload.trace_parse_ms",
        ms(spans.total_ns("workload.trace_parse")),
    );
    failures
}

/// The rest of the pipeline's layer sequence after the Stage-1 cold solve.
/// Returns the answer line in the format of the one-call repetition.
fn replay_pipeline(
    inst: &Instance,
    stage1: Option<Result<wavesched_lp::Solution, wavesched_lp::SolveError>>,
    spans: &mut Spans,
) -> Result<String, String> {
    let sol = stage1
        .expect("the pipeline replay solves Stage 1")
        .map_err(|e| format!("{e:?}"))?;
    let z_star = sol.objective;
    let start = spans.time("core.stage2_start", || {
        sol.basis
            .as_ref()
            .and_then(|b| stage2_basis_from_stage1(b, inst.vars.len()))
    });
    let s2 = spans
        .time("core.stage2", || {
            solve_stage2_weighted_with_start(
                inst,
                z_star,
                ALPHA,
                &WeightPolicy::DemandProportional,
                &SimplexConfig::default(),
                start.as_ref(),
            )
        })
        .map_err(|e| format!("{e:?}"))?;
    let lpd = spans.time("core.lpd", || truncate(inst, &s2.schedule));
    let adj = spans.time("core.lpdar", || {
        adjust_rates(inst, &lpd, AdjustOrder::Paper)
    });
    Ok(pipeline_answer(
        z_star,
        s2.schedule.weighted_throughput(inst),
        lpd.weighted_throughput(inst),
        adj.weighted_throughput(inst),
    ))
}

/// Names of the spans that make up the pipeline's layer sequence; their
/// sum over the user-level call's wall time is `layer_cover`.
const PIPELINE_LAYERS: [&str; 8] = [
    "net.yen",
    "core.instance_build",
    "core.stage1_build",
    "lp.cold_solve",
    "core.stage2_start",
    "core.stage2",
    "core.lpd",
    "core.lpdar",
];

/// Kernel timings from a `PivotProbe` parked 150 pivots into the Stage-1
/// LP of the 100-job fig. 3 instance: one 200-pivot window, and the median
/// of 9 FTRAN and BTRAN sweeps. The probe panics when its LP is too small
/// to keep pivoting; that leaves the three metrics at 0 and is reported.
pub fn pivot_probe(w: Workload, g: &Graph, seed: u64, vals: &mut Values) -> Result<(), String> {
    const WARMUP: u64 = 150;
    const WINDOW: u64 = 200;
    const SWEEPS: usize = 9;
    let jobs = WorkloadGenerator::new(WorkloadConfig {
        num_jobs: 100,
        seed: 1000u64.wrapping_add(seed),
        size_gb: (1.0, 100.0),
        window: (4.0, 10.0),
        ..Default::default()
    })
    .generate(g);
    let icfg = w.instance_config();
    let inst = Instance::build(g, &jobs, &icfg, &mut PathSet::new(icfg.paths_per_job));
    let p = build_stage1_problem(&inst);
    let timings = catch_unwind(AssertUnwindSafe(|| {
        let parked = PivotProbe::new_with(&p, WARMUP, &SimplexConfig::default());
        let mut probe = parked.clone();
        probe.reserve(WINDOW as usize + 8);
        let t = Instant::now();
        let ran = probe.pivots(WINDOW);
        let pivot_ns = t.elapsed().as_nanos() as f64 / ran.max(1) as f64;
        let mut probe = parked;
        let (mut ftran, mut btran) = (Vec::new(), Vec::new());
        for _ in 0..SWEEPS {
            let t = Instant::now();
            let n = probe.ftran_sweep();
            ftran.push(t.elapsed().as_nanos() as f64 / n.max(1) as f64);
            let t = Instant::now();
            let m = probe.btran_sweep();
            btran.push(t.elapsed().as_nanos() as f64 / m.max(1) as f64);
        }
        (ran, pivot_ns, median(&ftran), median(&btran))
    }));
    match timings {
        Ok((ran, pivot_ns, ftran_ns, btran_ns)) if ran == WINDOW => {
            vals.set("lp.pivot_ns", pivot_ns);
            vals.set("lp.ftran_ns", ftran_ns);
            vals.set("lp.btran_ns", btran_ns);
            Ok(())
        }
        Ok((ran, ..)) => Err(format!("pivot probe ran {ran} of {WINDOW} pivots")),
        Err(_) => Err("pivot probe panicked (its LP ended during warm-up)".into()),
    }
}
