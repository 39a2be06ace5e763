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

use std::io::Write;
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
  check-report <report> [<expected>] [--require-nonzero <name>]...
              validate a JSON-lines metrics report (--report output); with
              <expected>, fail when any counter listed there grew (a
              solver-work regression) or is missing. Counters below the
              expectation are reported as improvements — refresh <expected>
              when they stick. --require-nonzero (repeatable) fails when the
              named counter is missing or zero — a liveness gate for paths
              (e.g. LU reuse) that must have run.

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
        "check-report" => &["require-nonzero"],
        "help" | "--help" => &[],
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

fn cg_stats_line(stats: &CgStats) -> String {
    format!(
        "column generation: {} rounds, {} columns entered, {} pricer calls\n",
        stats.rounds, stats.columns_added, stats.pricer_calls
    )
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

/// Counter families a run records all or nothing: one code path records
/// each, so a partial family means the report schema drifted. Keyed on a
/// prefix, so another counter may share the family's first segment.
const FAMILIES: [(&str, &[&str]); 2] = [
    (
        "cg.",
        &[
            "cg.rounds",
            "cg.columns_added",
            "cg.pricer_calls",
            "cg.pricing_ns",
            "cg.master_lu_reuse_hits",
            "cg.yen_paths",
        ],
    ),
    ("mem.bytes_", &["mem.bytes_allocated", "mem.bytes_freed"]),
];

/// `check-report <report> [<expected>] [--require-nonzero <name>]...`: reads
/// the report once, validates it, holds every counter of `<expected>` as an
/// upper bound on the report's, and requires each named counter to be
/// present and positive. Every failure is listed, each naming its counter.
/// Returns the text for stdout.
fn check_report(args: &Args) -> Result<String, String> {
    let read = |path: &str| -> Result<Vec<obs::Metric>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
        obs::parse_json_lines(&text).map_err(|e| format!("{path}: invalid report: {e}"))
    };
    let counters = |metrics: &[obs::Metric]| -> Vec<(String, u64)> {
        let counter = |m: &obs::Metric| match m {
            obs::Metric::Counter { name, value } => Some((name.clone(), *value)),
            _ => None,
        };
        metrics.iter().filter_map(counter).collect()
    };
    let (path, expected_path) = match args.positional.as_slice() {
        [report] => (report, None),
        [report, expected] => (report, Some(expected)),
        _ => return Err("check-report needs <report> [<expected>]".to_string()),
    };
    let metrics = read(path)?;
    let actual = counters(&metrics);
    let value = |name: &str| actual.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    let mut failures = Vec::new();
    for (prefix, family) in FAMILIES {
        if actual.iter().any(|(n, _)| n.starts_with(prefix)) {
            for name in family.iter().filter(|name| value(name).is_none()) {
                failures.push(format!("{name}: missing from a partial {prefix}* family"));
            }
        }
    }
    let expected = match expected_path {
        Some(e) => counters(&read(e)?),
        None => Vec::new(),
    };
    // Every expected counter is an upper bound, so an expectation file lists
    // only counters where less is better; one where more is better (LU
    // reuse, accepted warm starts) is gated by `--require-nonzero` instead,
    // so a path that silently stops running fails rather than improving.
    let mut out = String::new();
    let mut improved = 0usize;
    for (name, want) in &expected {
        match value(name) {
            None => failures.push(format!("{name}: missing (expected {want})")),
            Some(got) if got > *want => failures.push(format!("{name}: {got} > expected {want}")),
            Some(got) if got < *want => {
                out += &format!("{name}: improved ({got} < expected {want})\n");
                improved += 1;
            }
            Some(_) => {}
        }
    }
    let required: Vec<&str> = args
        .opts
        .iter()
        .filter(|(k, v)| k == "require-nonzero" && !v.is_empty())
        .map(|(_, v)| v.as_str())
        .collect();
    for name in &required {
        match value(name) {
            None => failures.push(format!("{name}: required nonzero but missing")),
            Some(0) => failures.push(format!("{name}: required nonzero but is 0")),
            Some(_) => {}
        }
    }
    if !failures.is_empty() {
        return Err(format!(
            "{out}{path}: {} failure(s):\n  {}",
            failures.len(),
            failures.join("\n  ")
        ));
    }
    out += &format!(
        "{path}: valid report of {} metrics; {} expected counters within bound \
         ({improved} improved); {} required counters nonzero\n",
        metrics.len(),
        expected.len(),
        required.len()
    );
    Ok(out)
}

/// Runs the command and returns what it prints on stdout.
fn run(args: &Args) -> Result<String, String> {
    if args.command == "help" || args.command == "--help" {
        return Ok(format!("{}\n", usage()));
    }

    if args.command == "check-report" {
        return check_report(args);
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

    let out = match args.command.as_str() {
        "gen-trace" => {
            let jobs_n: usize = args.num("jobs", 20)?;
            let seed: u64 = args.num("seed", 0)?;
            let jobs = WorkloadGenerator::new(WorkloadConfig {
                num_jobs: jobs_n,
                seed,
                ..Default::default()
            })
            .generate(&graph);
            write_trace(&jobs)
        }
        "schedule" => {
            let jobs = load_trace()?;
            let mut out = String::new();
            let (inst, r) = if args.flag("colgen") {
                let (r, inst, stats) =
                    max_throughput_pipeline_colgen(&graph, &jobs, &inst_cfg, alpha)
                        .map_err(|e| e.to_string())?;
                out += &cg_stats_line(&stats);
                (inst, r)
            } else {
                let mut ps = PathSet::new(inst_cfg.paths_per_job);
                let inst = Instance::build(&graph, &jobs, &inst_cfg, &mut ps);
                let r = max_throughput_pipeline(&inst, alpha).map_err(|e| e.to_string())?;
                (inst, r)
            };
            let plan = r.lpdar.trim_to_demand(&inst);
            out += &format!(
                "network {net_spec}, {} jobs, Z* = {:.3}\n",
                jobs.len(),
                r.z_star
            );
            if r.z_star < 1.0 {
                out += "OVERLOADED: demands shrink to each job's Z_i\n";
            }
            out += &format!(
                "weighted throughput: LP {:.3}, LPD {:.3}, LPDAR {:.3}\n\n",
                r.lp_throughput, r.lpd_throughput, r.lpdar_throughput
            );
            out += &job_timeline(&inst, &plan);
            out += "\n";
            out += &link_utilization(&inst, &plan, 10);
            out
        }
        "ret" => {
            let jobs = load_trace()?;
            let ret_cfg = RetConfig::default();
            let mut out = String::new();
            let answer = if args.flag("colgen") {
                solve_ret_colgen(&graph, &jobs, &inst_cfg, &ret_cfg, &ColGenConfig::default())
                    .map_err(|e| e.to_string())?
                    .map(|(r, stats)| {
                        out += &cg_stats_line(&stats);
                        r
                    })
            } else {
                solve_ret(&graph, &jobs, &inst_cfg, &ret_cfg).map_err(|e| e.to_string())?
            };
            match answer {
                None => out += "no end-time extension up to b_max completes all jobs\n",
                Some(r) => {
                    out += &format!(
                        "minimal fractional extension b = {:.3}; integral completion at b = {:.3}\n",
                        r.b_lp, r.b_final
                    );
                    out += &format!(
                        "average end time: LP {:.2}, LPDAR {:.2} slices; LPD finishes {:.0}%\n\n",
                        r.lp_avg_end_time().unwrap_or(f64::NAN),
                        r.lpdar_avg_end_time().unwrap_or(f64::NAN),
                        100.0 * r.lpd_fraction_finished()
                    );
                    out += &job_timeline(&r.instance, &r.lpdar);
                }
            }
            out
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
            format!(
                "{} slices, {} invocations | completed {:.0}% (on time {:.0}%), rejected {:.0}%, expired {:.0}%\n\
                 goodput {:.0}%, mean utilization {:.1}%{}\n",
                rep.totals.slices,
                rep.totals.invocations,
                100.0 * rep.completion_rate(),
                100.0 * rep.on_time_rate(),
                100.0 * rep.rejection_rate(),
                100.0 * rep.expiry_rate(),
                100.0 * rep.totals.goodput(),
                100.0 * rep.totals.mean_utilization,
                rep.average_end_time()
                    .map(|t| format!(", avg end time {t:.1} slices"))
                    .unwrap_or_default()
            )
        }
        "dot" => to_dot(&graph),
        other => {
            return Err(format!("unknown command {other:?}\n\n{}", usage()));
        }
    };
    if trace_spans {
        eprint!("{}", obs::render_span_tree());
    }
    Ok(out)
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
        // The one place stdout is written. A reader that went away
        // (`wavesched gen-trace ... | head -1`) ends the run quietly.
        Ok(out) => match std::io::stdout().lock().write_all(out.as_bytes()) {
            Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
                eprintln!("failed to write stdout: {e}");
                ExitCode::FAILURE
            }
            _ => ExitCode::SUCCESS,
        },
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
