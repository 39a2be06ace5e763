//! The workloads: how each one's inputs are made from the seed, what its
//! user-level call is, and how its answers are checked.
//!
//! The parameters are restated here rather than imported from
//! `wavesched-bench`, whose helpers read `WS_QUICK`. The network seed is
//! fixed (the paper's network is fixed); `--seed B` is added to every
//! job-generator seed.

use crate::spans::Spans;
use crate::stats::ns;
use std::cell::Cell;
use std::fs::File;
use std::hint::black_box;
use std::io::{self, BufReader, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::Instant;
use wavesched_core::colgen::{ColGenConfig, PricerChoice};
use wavesched_core::controller::ControllerConfig;
use wavesched_core::instance::{Instance, InstanceConfig};
use wavesched_core::pipeline::{max_throughput_pipeline, PipelineResult};
use wavesched_core::ret::{solve_ret, solve_ret_colgen, RetConfig, RetResult};
use wavesched_net::{abilene14, waxman_network, Graph, PathSet, WaxmanConfig};
use wavesched_sim::{run_simulation_streamed, SimConfig, StreamReport};
use wavesched_workload::{
    write_trace, ArrivalModel, Job, TraceReader, WorkloadConfig, WorkloadGenerator,
};

const NET_SEED: u64 = 42;
/// Stage-2 fairness slack (the paper's evaluation value).
pub const ALPHA: f64 = 0.1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PipelineDense,
    RetBisect,
    RetStall,
    CgWaxman1000,
    StreamDense,
    StreamSparse,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    /// About 1/20 of the work, for `--smoke` and CI.
    Smoke,
}

impl Scale {
    pub fn as_str(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }
}

/// How much input a workload gets.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Groups of instances per round. Each group is drawn apart from the
    /// seed and timed as one sample, so the median over groups is steadier
    /// across seeds than any one group.
    pub groups: usize,
    /// Independent instances solved per group.
    pub instances: usize,
    /// Jobs per instance, or jobs in the stream.
    pub jobs: usize,
    pub nodes: usize,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::PipelineDense,
        Workload::RetBisect,
        Workload::RetStall,
        Workload::CgWaxman1000,
        Workload::StreamDense,
        Workload::StreamSparse,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PipelineDense => "pipeline_dense",
            Workload::RetBisect => "ret_bisect",
            Workload::RetStall => "ret_stall",
            Workload::CgWaxman1000 => "cg_waxman1000",
            Workload::StreamDense => "stream_dense",
            Workload::StreamSparse => "stream_sparse",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (the `why` of `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::PipelineDense => "fig. 3 pipeline on the 100-node Waxman network: cold Stage-1 and Stage-2 LPs, the simplex pivot loop is nearly all of the wall time and every other layer idles",
            Workload::RetBisect => "fig. 4 RET search: many short bound-only re-solves in one SolverSession (dual simplex, LU reuse, partial pricing), the lp layer used the opposite way from pipeline_dense",
            Workload::RetStall => "the 60-job fig. 4 instance where the dual re-solve path loses; one chaotic instance, so it is run by the benchmark's own command only and is not part of the driver's contract",
            Workload::CgWaxman1000 => "RET by column generation on a 1000-node Waxman network with k=16: the only workload where net (Yen) and core::colgen do the work and cold pivoting does little",
            Workload::StreamDense => "closed-loop periodic controller at saturation (Poisson rate 20, one client): about 100-job LPs per period, lp_solve is nearly all of the wall time",
            Workload::StreamSparse => "same controller at rate 1 replayed from a CSV trace: tiny LPs, so per-solve fixed cost, instance build, trace ingest and sim bookkeeping are a visible share of the wall time",
        }
    }

    /// False for the workload the driver never runs (see [`Workload::why`]).
    pub fn in_contract(self) -> bool {
        self != Workload::RetStall
    }

    pub fn sizes(self, scale: Scale) -> Sizes {
        let (groups, instances, jobs, nodes) = match (self, scale) {
            (Workload::PipelineDense, Scale::Full) => (5, 44, 40, 100),
            (Workload::PipelineDense, Scale::Smoke) => (2, 2, 40, 100),
            (Workload::RetBisect, Scale::Full) => (5, 32, 40, 100),
            (Workload::RetBisect, Scale::Smoke) => (2, 2, 40, 100),
            (Workload::RetStall, Scale::Full) => (1, 1, 60, 100),
            (Workload::RetStall, Scale::Smoke) => (1, 1, 25, 100),
            (Workload::CgWaxman1000, Scale::Full) => (5, 1, 150, 1000),
            (Workload::CgWaxman1000, Scale::Smoke) => (2, 1, 30, 100),
            (Workload::StreamDense, Scale::Full) => (1, 1, 8_000, 11),
            (Workload::StreamDense, Scale::Smoke) => (1, 1, 400, 11),
            (Workload::StreamSparse, Scale::Full) => (1, 1, 30_000, 11),
            (Workload::StreamSparse, Scale::Smoke) => (1, 1, 1_500, 11),
        };
        Sizes {
            groups,
            instances,
            jobs,
            nodes,
        }
    }

    /// Name of the harness span around the user-level call.
    pub fn call_span(self) -> &'static str {
        match self {
            Workload::PipelineDense => "core.pipeline",
            Workload::RetBisect | Workload::RetStall => "core.ret",
            Workload::CgWaxman1000 => "core.ret_colgen",
            Workload::StreamDense | Workload::StreamSparse => "sim.run_streamed",
        }
    }

    /// Candidate paths per job.
    fn paths_per_job(self) -> usize {
        match self {
            Workload::CgWaxman1000 => 16,
            Workload::StreamDense | Workload::StreamSparse => 2,
            _ => 4,
        }
    }

    fn wavelengths(self) -> u32 {
        match self {
            Workload::PipelineDense | Workload::StreamDense | Workload::StreamSparse => 4,
            _ => 2,
        }
    }

    pub fn instance_config(self) -> InstanceConfig {
        InstanceConfig {
            paths_per_job: self.paths_per_job(),
            ..InstanceConfig::paper(self.wavelengths())
        }
    }

    /// The answer digest at `--seed 0`, pinned when the benchmark was
    /// defined. A change that moves one changed an answer, not a timing.
    pub fn pinned_digest(self, scale: Scale) -> &'static str {
        match (self, scale) {
            (Workload::PipelineDense, Scale::Full) => "c4b65ed29e377f5d",
            (Workload::PipelineDense, Scale::Smoke) => "a127190476e51585",
            (Workload::RetBisect, Scale::Full) => "9e4621648bb3ca3e",
            (Workload::RetBisect, Scale::Smoke) => "70a2aca893ae6696",
            (Workload::RetStall, Scale::Full) => "1bddc438aa2774af",
            (Workload::RetStall, Scale::Smoke) => "8c31a92769a510d3",
            (Workload::CgWaxman1000, Scale::Full) => "1b218b83a093461e",
            (Workload::CgWaxman1000, Scale::Smoke) => "d004923e44154c10",
            (Workload::StreamDense, Scale::Full) => "024c9a47e21043e3",
            (Workload::StreamDense, Scale::Smoke) => "1acec0bc122db842",
            (Workload::StreamSparse, Scale::Full) => "e9cd9ce328086544",
            (Workload::StreamSparse, Scale::Smoke) => "ca17054a7b887265",
        }
    }
}

/// Where a stream workload's jobs come from on each repetition.
pub enum Source {
    /// Drawn lazily by `WorkloadGenerator::stream` inside the timed call,
    /// as `bin/stream` does.
    Generated(WorkloadConfig),
    /// Read back from the CSV trace written in set-up.
    TraceFile(PathBuf),
}

/// Opens the CSV trace at `path` as a lazily parsed job stream.
pub fn open_trace(path: &Path, g: &Graph) -> Result<TraceReader<BufReader<File>>, String> {
    let f = File::open(path).map_err(|e| format!("opening {}: {e}", path.display()))?;
    Ok(TraceReader::new(BufReader::new(f), g))
}

pub struct StreamInput {
    pub cfg: SimConfig,
    pub source: Source,
}

/// Everything made before the first timed call, with how long each part
/// took.
pub struct Inputs {
    pub graph: Graph,
    /// Batch workloads: one job list per instance.
    pub jobsets: Vec<Vec<Job>>,
    pub stream: Option<StreamInput>,
    pub graph_ns: u64,
    pub generate_ns: u64,
    pub trace_bytes: u64,
}

fn batch_jobs(g: &Graph, n: usize, seed: u64, size_gb: (f64, f64), window: (f64, f64)) -> Vec<Job> {
    WorkloadGenerator::new(WorkloadConfig {
        num_jobs: n,
        seed,
        size_gb,
        window,
        ..Default::default()
    })
    .generate(g)
}

/// Builds the workload's inputs from `seed`. `tmp` is a directory inside
/// the checkout for the trace file `stream_sparse` writes.
pub fn setup(w: Workload, seed: u64, scale: Scale, tmp: &Path) -> Result<Inputs, String> {
    let sz = w.sizes(scale);
    let t = Instant::now();
    let graph = match w {
        Workload::StreamDense | Workload::StreamSparse => abilene14(w.wavelengths()).0,
        Workload::CgWaxman1000 => waxman_network(&WaxmanConfig {
            nodes: sz.nodes,
            link_pairs: 2 * sz.nodes,
            wavelengths: w.wavelengths(),
            alpha: 0.15,
            seed: NET_SEED,
        }),
        _ => waxman_network(&WaxmanConfig {
            wavelengths: w.wavelengths(),
            ..WaxmanConfig::paper_default(NET_SEED)
        }),
    };
    let graph_ns = ns(t.elapsed());

    let t = Instant::now();
    let mut trace_bytes = 0;
    let job_seed = |base: u64, i: usize| base.wrapping_add(seed).wrapping_add(i as u64);
    let mut jobsets = Vec::new();
    let mut stream = None;
    match w {
        Workload::PipelineDense | Workload::CgWaxman1000 => {
            let base = if w == Workload::PipelineDense {
                1000
            } else {
                3000
            };
            for i in 0..sz.groups * sz.instances {
                jobsets.push(batch_jobs(
                    &graph,
                    sz.jobs,
                    job_seed(base, i),
                    (1.0, 100.0),
                    (4.0, 10.0),
                ));
            }
        }
        Workload::RetBisect | Workload::RetStall => {
            // Fig. 4's overload family. `ret_stall` is its seed-3001 member.
            let base = if w == Workload::RetBisect { 3000 } else { 3001 };
            for i in 0..sz.groups * sz.instances {
                jobsets.push(batch_jobs(
                    &graph,
                    sz.jobs,
                    job_seed(base, i),
                    (100.0, 400.0),
                    (2.0, 4.0),
                ));
            }
        }
        Workload::StreamDense | Workload::StreamSparse => {
            let rate = if w == Workload::StreamDense {
                20.0
            } else {
                1.0
            };
            let wl = WorkloadConfig {
                num_jobs: sz.jobs,
                seed: job_seed(2009, 0),
                arrival: ArrivalModel::Poisson { rate },
                // Short windows keep the active set bounded, as in bin/stream.
                window: (4.0, 8.0),
                ..Default::default()
            };
            let mut controller = ControllerConfig::paper(w.wavelengths());
            controller.tau = 4;
            controller.instance.paths_per_job = w.paths_per_job();
            let cfg = SimConfig {
                controller,
                max_slices: (sz.jobs as f64 / rate).ceil() as usize + 500,
            };
            let source = if w == Workload::StreamDense {
                Source::Generated(wl)
            } else {
                let jobs = WorkloadGenerator::new(wl).generate(&graph);
                let text = write_trace(&jobs);
                trace_bytes = text.len() as u64;
                let path = tmp.join("stream_sparse.csv");
                std::fs::write(&path, text)
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
                Source::TraceFile(path)
            };
            stream = Some(StreamInput { cfg, source });
        }
    }
    Ok(Inputs {
        graph,
        jobsets,
        stream,
        graph_ns,
        generate_ns: ns(t.elapsed()),
        trace_bytes,
    })
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `bytes`, continuing from `h`.
pub fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A number to 9 significant digits, the precision answers are pinned at.
fn sig9(x: f64) -> String {
    format!("{x:.8e}")
}

/// The `decision_log` sink of the stream workloads: hashes every byte and
/// notes the time each `invoke now=` line is completed, so the gap between
/// two notes is one controller period (one `Controller::invoke` plus tau
/// slices of bookkeeping) as seen from outside the program.
struct PeriodLog {
    hash: u64,
    line: Vec<u8>,
    stamps: Vec<Instant>,
}

impl Write for PeriodLog {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.hash = fnv1a(buf, self.hash);
        for &b in buf {
            if b == b'\n' {
                if self.line.starts_with(b"invoke now=") {
                    self.stamps.push(Instant::now());
                }
                self.line.clear();
            } else if self.line.len() < 16 {
                self.line.push(b);
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Column counts needed for `core.cg_pool_ratio`.
pub struct CgPool {
    /// Columns the restricted master ended with.
    pub pool_cols: usize,
    /// Window length of every job at the final extension.
    pub window_lens: Vec<usize>,
}

/// One group run once: its operations' times, answers and failed checks.
#[derive(Default)]
pub struct Pass {
    /// Wall nanoseconds of each operation's user-level call.
    pub op_ns: Vec<u64>,
    /// One line per failed operation.
    pub failures: Vec<String>,
    /// One line of answers per operation, 9 significant digits.
    pub answers: Vec<String>,
    /// Per-operation quality and goodput (see the README's definitions).
    quality: Vec<f64>,
    goodput: Vec<f64>,
    /// The workload's paper-level quality number before it is mapped to
    /// `quality`: LPDAR/LP throughput, final extension b, on-time share.
    raw_quality: Vec<f64>,
    /// Controller periods (stream workloads).
    pub periods_ns: Vec<u64>,
    /// Most jobs ever in flight at once (stream workloads).
    pub peak_active: usize,
    pub cg_pool: Option<CgPool>,
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

impl Pass {
    pub fn wall_ns(&self) -> u64 {
        self.op_ns.iter().sum()
    }

    pub fn quality(&self) -> f64 {
        mean(&self.quality)
    }

    pub fn goodput(&self) -> f64 {
        mean(&self.goodput)
    }

    pub fn raw_quality(&self) -> f64 {
        mean(&self.raw_quality)
    }

    fn fail(&mut self, op: usize, why: impl std::fmt::Display) {
        self.failures.push(format!("operation {op}: {why}"));
    }
}

fn check_schedule(inst: &Instance, lpdar: &wavesched_core::Schedule) -> Result<(), String> {
    if !lpdar.is_integral(1e-9) {
        return Err("LPDAR schedule is not integral".into());
    }
    let v = lpdar.max_capacity_violation(inst);
    if v > 1e-6 {
        return Err(format!("LPDAR schedule exceeds a link capacity by {v:e}"));
    }
    Ok(())
}

fn check_pipeline(inst: &Instance, r: &PipelineResult) -> Result<(), String> {
    check_schedule(inst, &r.lpdar)?;
    let floor = (1.0 - ALPHA) * r.z_star - 1e-7;
    for i in 0..inst.num_jobs() {
        let z = r.lp.throughput(inst, i);
        if z < floor {
            return Err(format!(
                "job {i}: Stage-2 throughput {z} is below the fairness floor {floor}"
            ));
        }
    }
    Ok(())
}

fn check_ret(r: &RetResult) -> Result<(), String> {
    check_schedule(&r.instance, &r.lpdar)?;
    // Algorithm 2 terminates only when LPDAR completes every job.
    let done = r.lpdar_fraction_finished();
    if done < 1.0 {
        return Err(format!("LPDAR finishes only {done} of the jobs"));
    }
    if r.b_final < r.b_lp {
        return Err(format!("b_final {} is below b_lp {}", r.b_final, r.b_lp));
    }
    Ok(())
}

fn ret_config(threads: usize) -> RetConfig {
    RetConfig {
        bsearch_tol: 0.05,
        b_max: 10.0,
        max_delta_steps: 120,
        threads,
        ..RetConfig::default()
    }
}

fn push_ret(pass: &mut Pass, op: usize, out: Result<Option<RetResult>, String>, extra: &str) {
    match out {
        Ok(Some(r)) => {
            if let Err(e) = check_ret(&r) {
                pass.fail(op, e);
            }
            pass.answers.push(format!(
                "{} {} {} {}{extra}",
                sig9(r.b_lp),
                sig9(r.b_final),
                sig9(r.lp_avg_end_time().unwrap_or(f64::NAN)),
                sig9(r.lpdar_avg_end_time().unwrap_or(f64::NAN)),
            ));
            // Requested end over granted end: 1 when no extension was needed.
            pass.quality.push(1.0 / (1.0 + r.b_final));
            pass.goodput.push(r.lpdar.effective_throughput(&r.instance));
            pass.raw_quality.push(r.b_final);
        }
        Ok(None) => {
            pass.fail(op, "no extension up to b_max completes all jobs");
            pass.answers.push("none".into());
        }
        Err(e) => {
            pass.fail(op, e);
            pass.answers.push("error".into());
        }
    }
}

/// The answer line of one pipeline operation: `Z*` and the weighted
/// throughputs of LP, LPD and LPDAR.
pub fn pipeline_answer(z_star: f64, lp: f64, lpd: f64, lpdar: f64) -> String {
    format!(
        "{} {} {} {}",
        sig9(z_star),
        sig9(lp),
        sig9(lpd),
        sig9(lpdar)
    )
}

fn stream_answer(r: &StreamReport, log_hash: u64) -> String {
    format!(
        "{} {} {} {} {} {} {} {} {} {} {log_hash:016x}",
        r.jobs_seen,
        r.completed,
        r.on_time,
        r.rejected,
        r.expired,
        r.unfinished,
        r.invocations,
        r.slices,
        r.peak_active,
        sig9(r.goodput()),
    )
}

/// Runs the operations of one group once, timing each user-level call and
/// checking each answer outside the timed interval. `instances` is the
/// group's slice of `inputs.jobsets` (a stream workload has one operation
/// and ignores it); `threads` is `RetConfig::threads` (1 everywhere but the
/// `par.ret_scale_t2` probe). With `spans`, each call is also recorded as a
/// harness span.
pub fn run_pass(
    w: Workload,
    inputs: &Inputs,
    sizes: Sizes,
    threads: usize,
    instances: Range<usize>,
    mut spans: Option<&mut Spans>,
) -> Pass {
    let mut pass = Pass::default();
    let g = &inputs.graph;
    let icfg = w.instance_config();
    let mut timed = |pass: &mut Pass, f: &mut dyn FnMut()| {
        let id = spans.as_deref_mut().map(|s| s.enter(w.call_span()));
        let t = Instant::now();
        f();
        pass.op_ns.push(ns(t.elapsed()));
        if let (Some(s), Some(id)) = (spans.as_deref_mut(), id) {
            s.exit(id);
        }
    };
    let jobsets = inputs.jobsets.get(instances).unwrap_or_default();
    match w {
        Workload::PipelineDense => {
            for (op, jobs) in jobsets.iter().enumerate() {
                let mut out = None;
                timed(&mut pass, &mut || {
                    let mut ps = PathSet::new(icfg.paths_per_job);
                    let inst = Instance::build(g, black_box(jobs), &icfg, &mut ps);
                    let r = max_throughput_pipeline(&inst, ALPHA);
                    out = Some((inst, r));
                });
                let (inst, r) = out.expect("the timed call ran");
                match r {
                    Ok(r) => {
                        if let Err(e) = check_pipeline(&inst, &r) {
                            pass.fail(op, e);
                        }
                        pass.answers.push(pipeline_answer(
                            r.z_star,
                            r.lp_throughput,
                            r.lpd_throughput,
                            r.lpdar_throughput,
                        ));
                        pass.quality.push(r.lpdar_normalized());
                        pass.goodput.push(r.lpdar.effective_throughput(&inst));
                        pass.raw_quality.push(r.lpdar_normalized());
                    }
                    Err(e) => {
                        pass.fail(op, format!("{e:?}"));
                        pass.answers.push("error".into());
                    }
                }
            }
        }
        Workload::RetBisect | Workload::RetStall => {
            let rc = ret_config(threads);
            for (op, jobs) in jobsets.iter().enumerate() {
                let mut out = None;
                timed(&mut pass, &mut || {
                    out = Some(solve_ret(g, black_box(jobs), &icfg, &rc));
                });
                let out = out
                    .expect("the timed call ran")
                    .map_err(|e| format!("{e:?}"));
                push_ret(&mut pass, op, out, "");
            }
        }
        Workload::CgWaxman1000 => {
            let rc = ret_config(threads);
            let cg = ColGenConfig {
                pricer: PricerChoice::Exhaustive,
                ..ColGenConfig::default()
            };
            for (op, jobs) in jobsets.iter().enumerate() {
                let mut out = None;
                timed(&mut pass, &mut || {
                    out = Some(solve_ret_colgen(g, black_box(jobs), &icfg, &rc, &cg));
                });
                let out = out
                    .expect("the timed call ran")
                    .map_err(|e| format!("{e:?}"));
                let mut extra = String::new();
                if let Ok(Some((r, stats))) = &out {
                    let pool_cols = r.instance.vars.len();
                    extra = format!(" {pool_cols} {} {}", stats.rounds, stats.columns_added);
                    pass.cg_pool = Some(CgPool {
                        pool_cols,
                        window_lens: (0..jobs.len())
                            .map(|i| r.instance.vars.window(i).len())
                            .collect(),
                    });
                }
                push_ret(&mut pass, op, out.map(|o| o.map(|(r, _)| r)), &extra);
            }
        }
        Workload::StreamDense | Workload::StreamSparse => {
            let s = inputs
                .stream
                .as_ref()
                .expect("stream workloads carry a stream input");
            let mut log = PeriodLog {
                hash: FNV_OFFSET,
                line: Vec::new(),
                stamps: Vec::new(),
            };
            let bad_rows = Cell::new(0usize);
            let mut out = None;
            timed(&mut pass, &mut || {
                out = Some(match &s.source {
                    Source::Generated(wl) => {
                        let jobs = WorkloadGenerator::new(wl.clone()).stream(g);
                        run_simulation_streamed(g, jobs, &s.cfg, Some(&mut log))
                            .map_err(|e| format!("{e:?}"))
                    }
                    Source::TraceFile(path) => open_trace(path, g).and_then(|rows| {
                        let jobs = rows.filter_map(|row| {
                            row.map_err(|_| bad_rows.set(bad_rows.get() + 1)).ok()
                        });
                        run_simulation_streamed(g, jobs, &s.cfg, Some(&mut log))
                            .map_err(|e| format!("{e:?}"))
                    }),
                });
            });
            match out.expect("the timed call ran") {
                Ok(r) => {
                    let retired = r.completed + r.expired + r.rejected + r.unfinished;
                    if retired != r.jobs_seen || r.jobs_seen != sizes.jobs {
                        pass.fail(
                            0,
                            format!(
                                "{retired} jobs retired, {} seen, {} in the trace",
                                r.jobs_seen, sizes.jobs
                            ),
                        );
                    }
                    if bad_rows.get() > 0 {
                        pass.fail(0, format!("{} trace rows did not parse", bad_rows.get()));
                    }
                    pass.answers.push(stream_answer(&r, log.hash));
                    pass.peak_active = r.peak_active;
                    let on_time = r.on_time as f64 / r.jobs_seen.max(1) as f64;
                    pass.quality.push(on_time);
                    pass.goodput.push(r.goodput());
                    pass.raw_quality.push(on_time);
                }
                Err(e) => {
                    pass.fail(0, e);
                    pass.answers.push("error".into());
                }
            }
            pass.periods_ns = log.stamps.windows(2).map(|p| ns(p[1] - p[0])).collect();
        }
    }
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b"", FNV_OFFSET), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a", FNV_OFFSET), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar", FNV_OFFSET), 0x8594_4171_f739_67e8);
        // Hashing in pieces equals hashing the whole.
        assert_eq!(
            fnv1a(b"bar", fnv1a(b"foo", FNV_OFFSET)),
            fnv1a(b"foobar", FNV_OFFSET)
        );
    }

    #[test]
    fn period_log_stamps_invoke_lines_however_they_are_split() {
        let mut log = PeriodLog {
            hash: FNV_OFFSET,
            line: Vec::new(),
            stamps: Vec::new(),
        };
        log.write_all(b"invoke now=0 batch=3 rejected=0 active=3\ndone 4 at=2")
            .unwrap();
        log.write_all(b" on_time=true\ninvoke ").unwrap();
        log.write_all(b"now=4 batch=1").unwrap();
        log.write_all(b"\nexpired 7 at=8\n").unwrap();
        assert_eq!(log.stamps.len(), 2);
        let whole = b"invoke now=0 batch=3 rejected=0 active=3\ndone 4 at=2 on_time=true\ninvoke now=4 batch=1\nexpired 7 at=8\n";
        assert_eq!(log.hash, fnv1a(whole, FNV_OFFSET));
    }

    #[test]
    fn names_round_trip_and_sig9_keeps_nine_digits() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(
                w.why().len() <= 200,
                "{} why is too long for BENCHMARK.json",
                w.name()
            );
        }
        assert_eq!(Workload::from_name("nope"), None);
        assert_eq!(sig9(0.123456789123), "1.23456789e-1");
        assert_eq!(sig9(0.0), "0.00000000e0");
    }
}
