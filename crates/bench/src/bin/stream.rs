//! **Streaming replay** — end-to-end memory benchmark: feed a synthetic
//! (or recorded) trace of up to a million jobs through the periodic
//! controller without ever materializing the whole trace, and record the
//! per-invocation allocation profile.
//!
//! ```text
//! cargo run --release -p wavesched-bench --bin stream -- --jobs 1000000
//! cargo run --release -p wavesched-bench --bin stream -- --smoke \
//!     --report stream_report.jsonl --log stream_decisions.log
//! ```
//!
//! The binary installs [`wavesched_obs::mem::TrackingAlloc`] as the global
//! allocator, so the `mem.*` counter family in `--report` output carries
//! real byte counts. The quantity under test is flatness: the mean bytes
//! allocated per controller invocation over an early window must match the
//! mean over the last window, no matter how long the replay ran — that is
//! the clock-free time grid and the build arenas paying off. Stdout is a
//! small `key,value` CSV so CI can diff it; `--log` captures the decision
//! log whose bytes must not depend on `--preload`.
//!
//! Flags (beyond the common `--smoke` / `--report <path>`):
//!
//! * `--jobs <n>` — trace length (default 1 000 000; smoke: 2 000)
//! * `--rate <r>` — Poisson arrivals per slice (default 20)
//! * `--tau <t>` — controller period in slices (default 4)
//! * `--wavelengths <w>` — per-link wavelength count (default 4)
//! * `--paths <k>` — candidate paths per job (default 2)
//! * `--seed <s>` — workload seed (default 2009)
//! * `--log <path>` — write the decision log
//! * `--preload` — collect the whole trace in memory first, then replay
//!   (the baseline the streaming path is measured against)
//! * `--trace <path>` — replay a recorded CSV trace instead of the
//!   synthetic workload (streamed off disk via `TraceReader`)

use std::io::BufWriter;
use wavesched_core::controller::ControllerConfig;
use wavesched_net::abilene14;
use wavesched_obs as obs;
use wavesched_sim::{run_simulation_streamed, SimConfig, StreamReport};
use wavesched_workload::{ArrivalModel, Job, TraceReader, WorkloadConfig, WorkloadGenerator};

#[global_allocator]
static ALLOC: obs::mem::TrackingAlloc = obs::mem::TrackingAlloc;

struct Opts {
    jobs: usize,
    rate: f64,
    tau: usize,
    wavelengths: u32,
    paths: usize,
    seed: u64,
    report: Option<String>,
    log: Option<String>,
    preload: bool,
    trace: Option<String>,
}

/// Prints `msg` as the one line of a usage error and exits with status 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// The argument after `flag`, parsed as a `T`: counts and seeds are
/// integers, so `--jobs 2.5` is refused rather than truncated.
fn value<T>(args: &mut impl Iterator<Item = String>, flag: &str) -> T
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let v = args
        .next()
        .unwrap_or_else(|| usage_error(&format!("{flag} needs a value")));
    v.parse()
        .unwrap_or_else(|e| usage_error(&format!("{flag} {v:?}: {e}")))
}

fn parse_opts() -> Opts {
    let mut o = Opts {
        jobs: 1_000_000,
        rate: 20.0,
        tau: 4,
        wavelengths: 4,
        paths: 2,
        seed: 2009,
        report: None,
        log: None,
        preload: false,
        trace: None,
    };
    let mut jobs_set = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => {
                if !jobs_set {
                    o.jobs = 2_000;
                }
            }
            "--jobs" => {
                o.jobs = value(&mut args, "--jobs");
                jobs_set = true;
            }
            "--rate" => o.rate = value(&mut args, "--rate"),
            "--tau" => o.tau = value(&mut args, "--tau"),
            "--wavelengths" => o.wavelengths = value(&mut args, "--wavelengths"),
            "--paths" => o.paths = value(&mut args, "--paths"),
            "--seed" => o.seed = value(&mut args, "--seed"),
            "--report" => o.report = Some(value(&mut args, "--report")),
            "--log" => o.log = Some(value(&mut args, "--log")),
            "--preload" => o.preload = true,
            "--trace" => o.trace = Some(value(&mut args, "--trace")),
            other => usage_error(&format!(
                "unknown argument {other:?}; supported: --smoke --jobs --rate --tau \
                 --wavelengths --paths --seed --report <path> --log <path> --preload \
                 --trace <path>"
            )),
        }
    }
    if o.tau == 0 {
        usage_error("--tau must be positive");
    }
    if o.wavelengths == 0 {
        usage_error("--wavelengths must be at least 1");
    }
    if o.paths == 0 {
        usage_error("--paths must be at least 1");
    }
    if !(o.rate.is_finite() && o.rate > 0.0) {
        usage_error(&format!(
            "--rate must be finite and positive, got {}",
            o.rate
        ));
    }
    o
}

fn main() {
    let o = parse_opts();
    if o.report.is_some() {
        obs::set_enabled(true);
    }
    let (g, _) = abilene14(o.wavelengths);
    let mut ctl = ControllerConfig::paper(o.wavelengths);
    ctl.tau = o.tau;
    ctl.instance.paths_per_job = o.paths;
    let wl = WorkloadConfig {
        num_jobs: o.jobs,
        seed: o.seed,
        arrival: ArrivalModel::Poisson { rate: o.rate },
        // Short windows keep the active set (and each invocation's LP)
        // bounded: the workload is a conveyor belt, not a pile-up.
        window: (4.0, 8.0),
        ..Default::default()
    };
    let cfg = SimConfig {
        controller: ctl,
        // Arrivals span ~jobs/rate slices; generous slack for the tail.
        max_slices: (o.jobs as f64 / o.rate).ceil() as usize + 500,
    };

    let mut log_file = o.log.as_ref().map(|p| {
        BufWriter::new(std::fs::File::create(p).unwrap_or_else(|e| {
            eprintln!("cannot create {p:?}: {e}");
            std::process::exit(1);
        }))
    });
    let log = log_file.as_mut().map(|w| w as &mut dyn std::io::Write);

    let run =
        |log: Option<&mut dyn std::io::Write>| -> Result<StreamReport, wavesched_lp::SolveError> {
            if let Some(path) = &o.trace {
                let f = std::fs::File::open(path).unwrap_or_else(|e| {
                    eprintln!("cannot open {path:?}: {e}");
                    std::process::exit(1);
                });
                let reader = TraceReader::new(std::io::BufReader::new(f), &g);
                let jobs = reader.map(|r| {
                    r.unwrap_or_else(|e| {
                        eprintln!("{path}: {e}");
                        std::process::exit(1);
                    })
                });
                if o.preload {
                    let all: Vec<Job> = jobs.collect();
                    run_simulation_streamed(&g, all, &cfg, log)
                } else {
                    run_simulation_streamed(&g, jobs, &cfg, log)
                }
            } else {
                let generator = WorkloadGenerator::new(wl.clone());
                if o.preload {
                    let mut generator = generator;
                    let all = generator.generate(&g);
                    run_simulation_streamed(&g, all, &cfg, log)
                } else {
                    run_simulation_streamed(&g, generator.stream(&g), &cfg, log)
                }
            }
        };
    let r = run(log).unwrap_or_else(|e| {
        eprintln!("replay failed: {e:?}");
        std::process::exit(1);
    });
    if let Some(mut w) = log_file {
        use std::io::Write as _;
        if let Err(e) = w.flush() {
            eprintln!("flushing decision log: {e}");
            std::process::exit(1);
        }
    }

    // key,value CSV: stable, diffable, greppable.
    println!("metric,value");
    println!("jobs_seen,{}", r.jobs_seen);
    println!("completed,{}", r.completed);
    println!("on_time,{}", r.on_time);
    println!("rejected,{}", r.rejected);
    println!("expired,{}", r.expired);
    println!("unfinished,{}", r.unfinished);
    println!("invocations,{}", r.invocations);
    println!("slices,{}", r.slices);
    println!("peak_active,{}", r.peak_active);
    println!("volume_moved,{:.3}", r.volume_moved);
    println!("volume_requested,{:.3}", r.volume_requested);
    println!("goodput,{:.4}", r.goodput());
    // Allocation profile rows are machine-dependent (allocator, libc);
    // byte-compared artifacts must use `--log`, never this stdout block.
    println!("mem_samples,{}", r.mem.samples);
    println!(
        "mem_early_mean_alloc_bytes,{:.0}",
        r.mem.early_mean_alloc_bytes
    );
    println!(
        "mem_late_mean_alloc_bytes,{:.0}",
        r.mem.late_mean_alloc_bytes
    );
    println!("mem_peak_live_bytes,{}", r.mem.peak_live_bytes);

    if let Some(path) = &o.report {
        let text = obs::to_json_lines(&obs::snapshot());
        if let Err(e) = std::fs::write(path, &text) {
            eprintln!("failed to write report {path:?}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {} metric lines to {path}", text.lines().count());
    }
}
