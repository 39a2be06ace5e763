//! `wavesched` — command-line front end for the scheduler.
//!
//! ```text
//! wavesched gen-trace --network abilene14 --jobs 20 --seed 7 > trace.csv
//! wavesched schedule  --network abilene14 --trace trace.csv --wavelengths 4
//! wavesched ret       --network esnet     --trace trace.csv --wavelengths 2
//! wavesched simulate  --network abilene14 --trace trace.csv --policy extend
//! wavesched dot       --network esnet > esnet.dot
//! ```
//!
//! Networks: `abilene14`, `abilene20`, `esnet`, or `waxman:<nodes>:<pairs>:<seed>`.

use std::process::ExitCode;
use wavesched::core::colgen::{CgStats, ColGenConfig};
use wavesched::core::controller::OverloadPolicy;
use wavesched::core::instance::{Instance, InstanceConfig};
use wavesched::core::pipeline::{max_throughput_pipeline, max_throughput_pipeline_colgen};
use wavesched::core::report::{job_timeline, link_utilization};
use wavesched::core::ret::{solve_ret, solve_ret_colgen, RetConfig};
use wavesched::net::{
    abilene14, abilene20, esnet, to_dot, waxman_network, Graph, PathSet, WaxmanConfig,
};
use wavesched::obs;
use wavesched::sim::{run_simulation, SimConfig};
use wavesched::workload::{parse_trace, write_trace, WorkloadConfig, WorkloadGenerator};

fn usage() -> &'static str {
    "usage: wavesched <command> [options]

commands:
  gen-trace   generate a random workload trace (CSV on stdout)
  schedule    run the two-stage pipeline + LPDAR on a trace
  ret         run the Relaxing-End-Times algorithm on a trace
  simulate    run the periodic controller simulation on a trace
  dot         print the network as Graphviz DOT
  check-report <file>    validate a JSON-lines metrics report (--report output)
  check-counters <actual> <expected> [--require-nonzero <name>]...
              compare counters in two metrics reports; fails when any
              counter listed in <expected> grew (a solver-work regression)
              or disappeared. Counters below the expectation are reported
              as improvements — refresh <expected> when they stick.
              --require-nonzero (repeatable) additionally fails when the
              named counter is missing or zero in <actual> — a liveness
              gate for paths (e.g. dual simplex) that must have run.

common options:
  --network <abilene14|abilene20|esnet|waxman:<nodes>:<pairs>:<seed>>
  --wavelengths <w>      wavelengths per 20 Gbps link (default 4, at least 1)
  --trace <file>         job trace CSV (see workload::trace)
  --trace                with no value: print the observability span tree
                         to stderr after the command
  --paths <k>            allowed paths per job (default 4, at least 1)
  --alpha <a>            stage-2 fairness slack in [0, 1] (default 0.1)
  --colgen               solve through delayed column generation instead of
                         materializing every Yen column: the same LP over the
                         same k paths per job (schedule, ret)

A command rejects any option it does not take (exit 2).

gen-trace options:
  --jobs <n> --seed <s>  workload size and seed

simulate options:
  --policy <reject|shrink|extend>   overload action (default shrink)
  --tau <t>                          controller period in slices (default 1, at least 1)
"
}

struct Args {
    command: String,
    opts: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    fn parse() -> Option<Args> {
        let mut it = std::env::args().skip(1);
        let command = it.next()?;
        let mut opts = Vec::new();
        let mut positional = Vec::new();
        let mut key: Option<String> = None;
        for a in it {
            if let Some(k) = a.strip_prefix("--") {
                if let Some(prev) = key.take() {
                    opts.push((prev, String::new()));
                }
                key = Some(k.to_string());
            } else if let Some(k) = key.take() {
                opts.push((k, a));
            } else {
                positional.push(a);
            }
        }
        if let Some(k) = key.take() {
            opts.push((k, String::new()));
        }
        Some(Args {
            command,
            opts,
            positional,
        })
    }

    fn get(&self, k: &str) -> Option<&str> {
        self.opts
            .iter()
            .rev()
            .find(|(key, _)| key == k)
            .map(|(_, v)| v.as_str())
    }

    /// True when `--k` was given bare (no value) — e.g. the span-tree form
    /// of `--trace`, as opposed to `--trace <file>`.
    fn flag(&self, k: &str) -> bool {
        self.opts.iter().any(|(key, v)| key == k && v.is_empty())
    }

    /// Last non-empty value of `--k <value>`; bare `--k` flags don't count.
    fn value_of(&self, k: &str) -> Option<&str> {
        self.opts
            .iter()
            .rev()
            .find(|(key, v)| key == k && !v.is_empty())
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, k: &str, default: T) -> Result<T, String> {
        match self.get(k) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad --{k} value {v:?}")),
        }
    }

    /// [`Self::num`] for a count that must be at least 1.
    fn at_least_one<T>(&self, k: &str, default: T) -> Result<T, String>
    where
        T: std::str::FromStr + PartialOrd + From<u8> + std::fmt::Display,
    {
        let n = self.num(k, default)?;
        if n < T::from(1) {
            return Err(format!("--{k} must be at least 1, got {n}"));
        }
        Ok(n)
    }
}

/// The options `command` takes, or `None` for a command `run` rejects on
/// its own. Every command that builds a network reads `--network`,
/// `--wavelengths` and `--trace`.
fn accepted_options(command: &str) -> Option<&'static [&'static str]> {
    let names: &[&str] = match command {
        "gen-trace" => &["network", "wavelengths", "trace", "jobs", "seed"],
        "schedule" => &[
            "network",
            "wavelengths",
            "trace",
            "paths",
            "alpha",
            "colgen",
        ],
        "ret" => &["network", "wavelengths", "trace", "paths", "colgen"],
        "simulate" => &[
            "network",
            "wavelengths",
            "trace",
            "paths",
            "alpha",
            "policy",
            "tau",
        ],
        "dot" => &["network", "wavelengths", "trace"],
        "check-report" | "help" | "--help" => &[],
        "check-counters" => &["require-nonzero"],
        _ => return None,
    };
    Some(names)
}

/// The first option `args.command` does not take, as a one-line error: a
/// misspelled knob must not run at its default.
fn reject_unknown_options(args: &Args) -> Result<(), String> {
    let Some(names) = accepted_options(&args.command) else {
        return Ok(());
    };
    match args.opts.iter().find(|(k, _)| !names.contains(&k.as_str())) {
        None => Ok(()),
        Some((k, _)) => Err(format!(
            "unknown option --{k} for {} (see wavesched help)",
            args.command
        )),
    }
}

fn print_cg_stats(stats: &CgStats) {
    println!(
        "column generation: {} rounds, {} columns entered, {} pricer calls",
        stats.rounds, stats.columns_added, stats.pricer_calls
    );
}

fn build_network(spec: &str, w: u32) -> Result<Graph, String> {
    match spec {
        "abilene14" => Ok(abilene14(w).0),
        "abilene20" => Ok(abilene20(w).0),
        "esnet" => Ok(esnet(w).0),
        other => {
            if let Some(rest) = other.strip_prefix("waxman:") {
                let parts: Vec<&str> = rest.split(':').collect();
                if parts.len() != 3 {
                    return Err("waxman spec is waxman:<nodes>:<pairs>:<seed>".into());
                }
                let nodes = parts[0].parse().map_err(|_| "bad node count")?;
                let link_pairs = parts[1].parse().map_err(|_| "bad pair count")?;
                let seed = parts[2].parse().map_err(|_| "bad seed")?;
                let cfg = WaxmanConfig {
                    nodes,
                    link_pairs,
                    wavelengths: w,
                    alpha: 0.15,
                    seed,
                };
                cfg.validate()?;
                Ok(waxman_network(&cfg))
            } else {
                Err(format!("unknown network {other:?}"))
            }
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    if args.command == "help" || args.command == "--help" {
        println!("{}", usage());
        return Ok(());
    }

    if args.command == "check-report" {
        let path = args
            .positional
            .first()
            .map(String::as_str)
            .ok_or_else(|| "check-report needs a file path".to_string())?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
        let metrics =
            obs::parse_json_lines(&text).map_err(|e| format!("{path}: invalid report: {e}"))?;
        let (mut counters, mut hists, mut spans) = (0usize, 0usize, 0usize);
        let mut counter_names = Vec::new();
        for m in &metrics {
            match m {
                obs::Metric::Counter { name, .. } => {
                    counters += 1;
                    counter_names.push(name.as_str());
                }
                obs::Metric::Histogram { .. } => hists += 1,
                obs::Metric::Span { .. } => spans += 1,
            }
        }
        // Column generation reports as a counter *family*: a run that
        // priced anything records every cg.* counter in one code path,
        // so a partial family means the report schema drifted.
        if counter_names.iter().any(|n| n.starts_with("cg.")) {
            const CG_FAMILY: [&str; 6] = [
                "cg.rounds",
                "cg.columns_added",
                "cg.pricer_calls",
                "cg.pricing_ns",
                "cg.master_dual_iterations",
                "cg.master_lu_reuse_hits",
            ];
            let missing: Vec<&str> = CG_FAMILY
                .iter()
                .filter(|want| !counter_names.contains(want))
                .copied()
                .collect();
            if !missing.is_empty() {
                return Err(format!(
                    "{path}: cg.* counters present but incomplete — missing {missing:?} \
                     (a column-generation run always records the full family {CG_FAMILY:?})"
                ));
            }
        }
        // Same all-or-nothing rule for the allocation-tracking family: the
        // streamed replay emits both byte counters from one code path
        // (crates/sim stream engine), so a lone byte counter means the
        // schema drifted. Keyed on the `mem.bytes_` prefix specifically —
        // `mem.arena_reuse_hits` is recorded by instance builds on its own
        // and legitimately appears without the replay counters.
        if counter_names.iter().any(|n| n.starts_with("mem.bytes_")) {
            const MEM_FAMILY: [&str; 2] = ["mem.bytes_allocated", "mem.bytes_freed"];
            let missing: Vec<&str> = MEM_FAMILY
                .iter()
                .filter(|want| !counter_names.contains(want))
                .copied()
                .collect();
            if !missing.is_empty() {
                return Err(format!(
                    "{path}: mem.* counters present but incomplete — missing {missing:?} \
                     (a tracked replay always records the full family {MEM_FAMILY:?})"
                ));
            }
        }
        println!(
            "{path}: valid report, {} metrics ({counters} counters, {hists} histograms, {spans} spans)",
            metrics.len()
        );
        return Ok(());
    }

    if args.command == "check-counters" {
        let (actual_path, expected_path) = match args.positional.as_slice() {
            [a, e] => (a.as_str(), e.as_str()),
            _ => return Err("check-counters needs <actual> <expected> file paths".to_string()),
        };
        // Every expected counter is an upper bound, so an expectation file
        // lists only counters where less is better; a counter where more is
        // better (LU reuse, accepted warm starts, skipped verifications,
        // arena reuse) has no row there. `--require-nonzero <name>`
        // (repeatable) gates those instead: the named counter must be
        // present AND strictly positive in <actual>, so a code path that
        // silently stops running (e.g. the dual simplex never engaging)
        // fails rather than reading as an "improvement".
        let required: Vec<&str> = args
            .opts
            .iter()
            .filter(|(k, v)| k == "require-nonzero" && !v.is_empty())
            .map(|(_, v)| v.as_str())
            .collect();
        let counters_of = |path: &str| -> Result<Vec<(String, u64)>, String> {
            let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
            let metrics =
                obs::parse_json_lines(&text).map_err(|e| format!("{path}: invalid report: {e}"))?;
            Ok(metrics
                .into_iter()
                .filter_map(|m| match m {
                    obs::Metric::Counter { name, value } => Some((name, value)),
                    _ => None,
                })
                .collect())
        };
        let actual = counters_of(actual_path)?;
        let expected = counters_of(expected_path)?;
        let mut regressions = Vec::new();
        let mut improvements = 0usize;
        for (name, want) in &expected {
            match actual.iter().find(|(n, _)| n == name) {
                None => regressions.push(format!("{name}: missing (expected {want})")),
                Some((_, got)) if got > want => {
                    regressions.push(format!("{name}: {got} > expected {want}"));
                }
                Some((_, got)) if got < want => {
                    println!("{name}: improved ({got} < expected {want})");
                    improvements += 1;
                }
                Some(_) => {}
            }
        }
        for name in &required {
            match actual.iter().find(|(n, _)| n == name) {
                None => regressions.push(format!("{name}: required nonzero but missing")),
                Some((_, 0)) => regressions.push(format!("{name}: required nonzero but is 0")),
                Some(_) => {}
            }
        }
        if !regressions.is_empty() {
            return Err(format!(
                "{actual_path}: {} counter regression(s) vs {expected_path}:\n  {}",
                regressions.len(),
                regressions.join("\n  ")
            ));
        }
        println!(
            "{actual_path}: {} counters within expectations ({improvements} improved, {} required nonzero)",
            expected.len(),
            required.len()
        );
        return Ok(());
    }

    // Bare `--trace` (no value) turns on the observability layer and prints
    // the span tree to stderr when the command finishes; `--trace <file>`
    // remains the job-trace input option.
    let trace_spans = args.flag("trace");
    if trace_spans {
        obs::set_enabled(true);
    }

    let w: u32 = args.at_least_one("wavelengths", 4)?;
    let net_spec = args.get("network").unwrap_or("abilene14").to_string();
    let graph = build_network(&net_spec, w)?;
    let paths_per_job: usize = args.at_least_one("paths", 4)?;
    let alpha: f64 = args.num("alpha", 0.1)?;
    if !(0.0..=1.0).contains(&alpha) {
        return Err(format!("--alpha must be in [0, 1], got {alpha}"));
    }
    let inst_cfg = InstanceConfig {
        paths_per_job,
        ..InstanceConfig::paper(w)
    };

    let load_trace = || -> Result<_, String> {
        let path = args
            .value_of("trace")
            .ok_or_else(|| "missing --trace <file>".to_string())?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
        parse_trace(&text, &graph).map_err(|e| e.to_string())
    };

    match args.command.as_str() {
        "gen-trace" => {
            let jobs_n: usize = args.num("jobs", 20)?;
            let seed: u64 = args.num("seed", 0)?;
            let jobs = WorkloadGenerator::new(WorkloadConfig {
                num_jobs: jobs_n,
                seed,
                ..Default::default()
            })
            .generate(&graph);
            print!("{}", write_trace(&jobs));
        }
        "schedule" => {
            let jobs = load_trace()?;
            let (inst, r) = if args.flag("colgen") {
                let (r, inst, stats) =
                    max_throughput_pipeline_colgen(&graph, &jobs, &inst_cfg, alpha)
                        .map_err(|e| e.to_string())?;
                print_cg_stats(&stats);
                (inst, r)
            } else {
                let mut ps = PathSet::new(inst_cfg.paths_per_job);
                let inst = Instance::build(&graph, &jobs, &inst_cfg, &mut ps);
                let r = max_throughput_pipeline(&inst, alpha).map_err(|e| e.to_string())?;
                (inst, r)
            };
            let plan = r.lpdar.trim_to_demand(&inst);
            println!(
                "network {net_spec}, {} jobs, Z* = {:.3}",
                jobs.len(),
                r.z_star
            );
            if r.z_star < 1.0 {
                println!("OVERLOADED: demands shrink to each job's Z_i");
            }
            println!(
                "weighted throughput: LP {:.3}, LPD {:.3}, LPDAR {:.3}",
                r.lp_throughput, r.lpd_throughput, r.lpdar_throughput
            );
            println!();
            print!("{}", job_timeline(&inst, &plan));
            println!();
            print!("{}", link_utilization(&inst, &plan, 10));
        }
        "ret" => {
            let jobs = load_trace()?;
            let ret_cfg = RetConfig::default();
            let out = if args.flag("colgen") {
                solve_ret_colgen(&graph, &jobs, &inst_cfg, &ret_cfg, &ColGenConfig::default())
                    .map_err(|e| e.to_string())?
                    .map(|(r, stats)| {
                        print_cg_stats(&stats);
                        r
                    })
            } else {
                solve_ret(&graph, &jobs, &inst_cfg, &ret_cfg).map_err(|e| e.to_string())?
            };
            match out {
                None => println!("no end-time extension up to b_max completes all jobs"),
                Some(r) => {
                    println!(
                        "minimal fractional extension b = {:.3}; integral completion at b = {:.3}",
                        r.b_lp, r.b_final
                    );
                    println!(
                        "average end time: LP {:.2}, LPDAR {:.2} slices; LPD finishes {:.0}%",
                        r.lp_avg_end_time().unwrap_or(f64::NAN),
                        r.lpdar_avg_end_time().unwrap_or(f64::NAN),
                        100.0 * r.lpd_fraction_finished()
                    );
                    println!();
                    print!("{}", job_timeline(&r.instance, &r.lpdar));
                }
            }
        }
        "simulate" => {
            let tau: usize = args.at_least_one("tau", 1)?;
            let jobs = load_trace()?;
            let mut cfg = SimConfig::paper(w);
            cfg.controller.instance = inst_cfg;
            cfg.controller.alpha = alpha;
            cfg.controller.tau = tau;
            cfg.controller.policy = match args.get("policy").unwrap_or("shrink") {
                "reject" => OverloadPolicy::Reject,
                "shrink" => OverloadPolicy::ShrinkDemands,
                "extend" => OverloadPolicy::ExtendDeadlines,
                other => return Err(format!("unknown policy {other:?}")),
            };
            let rep = run_simulation(&graph, &jobs, &cfg).map_err(|e| e.to_string())?;
            println!(
                "{} slices, {} invocations | completed {:.0}% (on time {:.0}%), rejected {:.0}%, expired {:.0}%",
                rep.totals.slices,
                rep.totals.invocations,
                100.0 * rep.completion_rate(),
                100.0 * rep.on_time_rate(),
                100.0 * rep.rejection_rate(),
                100.0 * rep.expiry_rate()
            );
            println!(
                "goodput {:.0}%, mean utilization {:.1}%{}",
                100.0 * rep.totals.goodput(),
                100.0 * rep.totals.mean_utilization,
                rep.average_end_time()
                    .map(|t| format!(", avg end time {t:.1} slices"))
                    .unwrap_or_default()
            );
        }
        "dot" => {
            print!("{}", to_dot(&graph));
        }
        other => {
            return Err(format!("unknown command {other:?}\n\n{}", usage()));
        }
    }
    if trace_spans {
        eprint!("{}", obs::render_span_tree());
    }
    Ok(())
}

fn main() -> ExitCode {
    let Some(args) = Args::parse() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    if let Err(msg) = reject_unknown_options(&args) {
        eprintln!("{msg}");
        return ExitCode::from(2);
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
