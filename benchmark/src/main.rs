//! Outside-in benchmark for the wavesched workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- [--seed N] [--seconds S] [--out DIR] [--smoke]
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --workload NAME --seed N --seconds S --trace 0|1
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --compare A/ B/
//! ```
//!
//! Without `--workload` every workload runs, each in a fresh child process,
//! first with tracing off (end-to-end metrics) and then traced (per-layer
//! metrics). With `--workload` one run is made and its last line of output
//! is the JSON object `BENCHMARK.json`'s driver reads. See
//! `benchmark/README.md`.

mod compare;
mod json;
mod layers;
mod metrics;
mod run;
mod spans;
mod stats;
mod workloads;

use json::Json;
use run::{record_name, RunOpts};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use workloads::{Scale, Workload};

// As `bin/stream` does, so the `mem.*` counters carry real byte counts. The
// cost is the same on both sides of any comparison.
#[global_allocator]
static ALLOC: wavesched_obs::mem::TrackingAlloc = wavesched_obs::mem::TrackingAlloc;

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage: [--workload NAME --trace 0|1] [--seed N] [--seconds S] [--out DIR] [--smoke] | --compare A B";

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    scale: Scale,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_cli(args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 0,
        seconds: None,
        trace: false,
        scale: Scale::Full,
        out: None,
        compare: None,
    };
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                cli.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                cli.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            "--smoke" => cli.scale = Scale::Smoke,
            "--compare" => cli.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

/// Removes every `WS_*` variable from this process's environment and pins
/// `WS_THREADS=1`, so a stray `WS_QUICK`, `WS_PRICING` or `WS_REFACTOR`
/// export cannot change what is measured. The library reads these lazily,
/// and this runs before any of it does.
fn scrub_env() {
    for n in ws_vars() {
        std::env::remove_var(n);
    }
    std::env::set_var("WS_THREADS", "1");
}

fn ws_vars() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("WS_"))
        .collect();
    names.sort();
    names
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string())
}

fn header(cli: &Cli, seconds: f64) -> Json {
    let workloads = Workload::ALL.map(|w| {
        let s = w.sizes(cli.scale);
        (
            w.name(),
            Json::obj([
                ("why", Json::str(w.why())),
                ("in_contract", Json::Bool(w.in_contract())),
                ("instances", Json::Num(s.instances as f64)),
                ("jobs", Json::Num(s.jobs as f64)),
                ("nodes", Json::Num(s.nodes as f64)),
            ]),
        )
    });
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("rustc", Json::Str(tool_line("rustc", &["-V"]))),
        (
            "git_commit",
            Json::Str(tool_line(
                "git",
                &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
            )),
        ),
        ("seed", Json::Num(cli.seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("scale", Json::str(cli.scale.as_str())),
        ("ws_threads", Json::Num(1.0)),
        (
            "ws_vars_cleared",
            Json::Arr(ws_vars().iter().map(|n| Json::str(n)).collect()),
        ),
        ("workloads", Json::obj(workloads)),
    ])
}

/// Runs every workload, one child process at a time, and writes
/// `results.json` and `trace.jsonl` under `out`.
fn run_all(cli: &Cli) -> Result<bool, String> {
    let seconds = cli.seconds.unwrap_or(match cli.scale {
        Scale::Full => DEFAULT_SECONDS,
        Scale::Smoke => 1.0,
    });
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let out = match &cli.out {
        Some(dir) => dir.clone(),
        None => exe
            .parent()
            .ok_or("the executable has no parent directory")?
            .join("benchmark-out"),
    };
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let _ = std::fs::remove_file(out.join("trace.jsonl"));
    let head = header(cli, seconds);
    println!("# header {head}");

    let mut all_ok = true;
    let mut runs = Vec::new();
    for w in Workload::ALL {
        for trace in [false, true] {
            let mut cmd = Command::new(&exe);
            cmd.args([
                "--workload",
                w.name(),
                "--trace",
                if trace { "1" } else { "0" },
            ])
            .args([
                "--seed",
                &cli.seed.to_string(),
                "--seconds",
                &seconds.to_string(),
            ])
            .arg("--out")
            .arg(&out);
            if cli.scale == Scale::Smoke {
                cmd.arg("--smoke");
            }
            // One measuring process at a time: wait for each child.
            let status = cmd
                .status()
                .map_err(|e| format!("starting {}: {e}", exe.display()))?;
            all_ok &= status.success();
            let part = out.join(record_name(w, trace));
            match std::fs::read_to_string(&part)
                .map_err(|e| e.to_string())
                .and_then(|t| json::parse(&t))
            {
                Ok(rec) => runs.push(rec),
                Err(e) => {
                    all_ok = false;
                    eprintln!("FAILED {}: no record from the child ({e})", w.name());
                }
            }
            let _ = std::fs::remove_file(&part);
        }
    }
    let doc = Json::obj([("header", head), ("runs", Json::Arr(runs))]);
    let path = out.join("results.json");
    std::fs::write(&path, format!("{doc}\n"))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "# wrote {} and {}",
        path.display(),
        out.join("trace.jsonl").display()
    );
    Ok(all_ok)
}

fn real_main() -> Result<bool, String> {
    let cli = parse_cli(std::env::args().skip(1)).map_err(|e| format!("{e}\n{USAGE}"))?;
    if let Some((a, b)) = &cli.compare {
        return compare::compare(Path::new(a), Path::new(b)).map(|regressed| regressed == 0);
    }
    let Some(workload) = cli.workload else {
        return run_all(&cli);
    };
    scrub_env();
    let outcome = run::run(&RunOpts {
        workload,
        seed: cli.seed,
        seconds: cli.seconds.unwrap_or(DEFAULT_SECONDS),
        trace: cli.trace,
        scale: cli.scale,
        out: cli.out,
    })?;
    println!("{}", outcome.result_line);
    Ok(outcome.correct)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let c = cli(&[
            "--workload",
            "ret_bisect",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(c.workload, Some(Workload::RetBisect));
        assert_eq!(
            (c.seed, c.seconds, c.trace, c.scale),
            (7, Some(20.0), true, Scale::Full)
        );
        let c = cli(&["--smoke", "--out", "x"]).unwrap();
        assert_eq!(
            (c.workload, c.scale, c.out),
            (None, Scale::Smoke, Some(PathBuf::from("x")))
        );
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "2"],
            &["--seed"],
            &["--seed", "-1"],
            &["--seconds", "0"],
            &["--compare", "only-one"],
            &["--frobnicate"],
        ] {
            assert!(cli(bad).is_err(), "{bad:?} should be rejected");
        }
    }
}
