//! One run of one workload: set-up, timed rounds with tracing off
//! (`--trace 0`, the end-to-end metrics) or the traced run (`--trace 1`,
//! the per-layer metrics), the answer checks, and the result record.
//!
//! A *round* runs every group of the workload once; a *group* is a fixed
//! set of instances whose user-level calls are timed as one sample. The
//! rounds repeat identical work, the groups differ in their inputs.

use crate::json::Json;
use crate::layers::{obs_metrics, pivot_probe, probe_layers, ObsView};
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::spans::Spans;
use crate::stats::{median, ms, quantile, sorted, Summary};
use crate::workloads::{fnv1a, run_pass, setup, Inputs, Pass, Scale, Sizes, Workload, FNV_OFFSET};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::Instant;
use wavesched_obs as obs;

pub struct RunOpts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Where to append `trace.jsonl` and write the run's record.
    pub out: Option<PathBuf>,
}

pub struct Outcome {
    pub correct: bool,
    /// The line the driver reads: `correct`, `attempted`, `failed`, `metrics`.
    pub result_line: Json,
}

/// A directory inside the checkout (next to the executable, so inside the
/// ignored build directory) for files a workload writes; removed on drop.
struct TmpDir(PathBuf);

impl TmpDir {
    fn new() -> Result<TmpDir, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
        let dir = exe
            .parent()
            .ok_or("the executable has no parent directory")?
            .join(format!("benchmark-tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(TmpDir(dir))
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Sets up once, returning the inputs and the seconds it took.
fn timed_setup(opts: &RunOpts, tmp: &Path) -> Result<(Inputs, f64), String> {
    let t = Instant::now();
    let inputs = setup(opts.workload, opts.seed, opts.scale, tmp)?;
    Ok((inputs, t.elapsed().as_secs_f64()))
}

/// Sets up again, after `first`, until there are at least 3 set-up times
/// covering at least half a second (2000 at most), so the median of a
/// microsecond-scale set-up is steady too. Runs after the timed rounds and
/// after `peak_rss_mb` is read, so neither depends on how often it loops.
fn more_setups(opts: &RunOpts, tmp: &Path, first: f64) -> Result<Vec<f64>, String> {
    let (min_reps, max_reps, budget) = match opts.scale {
        Scale::Full => (3, 2000, 0.5),
        Scale::Smoke => (2, 2, 0.0),
    };
    let mut secs = vec![first];
    while secs.len() < max_reps && (secs.len() < min_reps || secs.iter().sum::<f64>() < budget) {
        secs.push(timed_setup(opts, tmp)?.1);
    }
    Ok(secs)
}

/// The slice of `Inputs::jobsets` that is group `g`.
fn group_instances(sizes: Sizes, g: usize) -> Range<usize> {
    g * sizes.instances..(g + 1) * sizes.instances
}

/// Calls `step` until `seconds` have passed, `min` times at least. A step
/// that would end more than half its length past the budget is not started.
fn until(seconds: f64, min: usize, mut step: impl FnMut(usize)) {
    let start = Instant::now();
    let mut done = 0;
    loop {
        step(done);
        done += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if done >= min && elapsed + 0.5 * elapsed / done as f64 >= seconds {
            return;
        }
    }
}

/// One round: every group in `groups` run once.
fn round(
    opts: &RunOpts,
    inputs: &Inputs,
    groups: Range<usize>,
    mut spans: Option<&mut Spans>,
) -> Vec<Pass> {
    let sizes = opts.workload.sizes(opts.scale);
    groups
        .map(|g| {
            run_pass(
                opts.workload,
                inputs,
                sizes,
                1,
                group_instances(sizes, g),
                spans.as_deref_mut(),
            )
        })
        .collect()
}

/// Wall seconds of each group: its median over the rounds.
fn group_walls_s(rounds: &[Vec<Pass>]) -> Vec<f64> {
    (0..rounds[0].len())
        .map(|g| {
            median(
                &rounds
                    .iter()
                    .map(|r| r[g].wall_ns() as f64 / 1e9)
                    .collect::<Vec<_>>(),
            )
        })
        .collect()
}

/// FNV-1a over the answer lines of every group of a round, in order.
fn round_digest(round: &[Pass]) -> String {
    let mut h = FNV_OFFSET;
    for line in round.iter().flat_map(|p| &p.answers) {
        h = fnv1a(line.as_bytes(), h);
        h = fnv1a(b"\n", h);
    }
    format!("{h:016x}")
}

/// Failed operations over `rounds`, one line each: failed checks, a round
/// that answered differently from the first, and with `pinned` a first
/// round whose digest is not the pinned one.
fn failures_of(rounds: &[Vec<Pass>], pinned: Option<&str>) -> Vec<String> {
    let mut out = Vec::new();
    for (r, round) in rounds.iter().enumerate() {
        for (g, p) in round.iter().enumerate() {
            out.extend(
                p.failures
                    .iter()
                    .map(|f| format!("round {r}, group {g}, {f}")),
            );
            if p.answers != rounds[0][g].answers {
                out.push(format!(
                    "round {r}, group {g}: answers differ from round 0's"
                ));
            }
        }
    }
    let first = round_digest(&rounds[0]);
    if pinned.is_some_and(|p| p != first) {
        out.push(format!(
            "answer digest {first} is not the pinned {}",
            pinned.unwrap_or_default()
        ));
    }
    out
}

fn samples_note(xs: &[f64]) -> String {
    Summary::of(xs).map_or(String::new(), |s| {
        format!(
            " min {:.6} q1 {:.6} q3 {:.6} max {:.6} n={}",
            s.min, s.q1, s.q3, s.max, s.n
        )
    })
}

/// Mean over the operations of a round of `f`'s per-group mean.
fn round_mean(round: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    let ops: usize = round.iter().map(|p| p.op_ns.len()).sum();
    round
        .iter()
        .map(|p| f(p) * p.op_ns.len() as f64)
        .sum::<f64>()
        / ops.max(1) as f64
}

/// The traced run, on the workload's first group: untraced rounds for the
/// base line alternating with rounds that have `wavesched_obs` on and a
/// harness span around each user-level call (70 % of the budget, two pairs
/// at least), then the layer replay and the workload's extra probes.
/// Returns the untraced rounds, the failed cross-checks and every obs
/// counter per traced round.
fn traced_run(
    opts: &RunOpts,
    inputs: &Inputs,
    vals: &mut Values,
    spans: &mut Spans,
) -> (Vec<Vec<Pass>>, Vec<String>, Json) {
    let w = opts.workload;
    let sizes = w.sizes(opts.scale);
    // Untraced and traced rounds alternate, so a drift of the host's speed
    // over the run moves both alike and cancels in the overhead.
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    obs::reset();
    until(0.7 * opts.seconds, 2, |pair| {
        untraced.push(round(opts, inputs, 0..1, None));
        spans.set_rep(pair as u32);
        obs::set_enabled(true);
        traced.push(round(opts, inputs, 0..1, Some(&mut *spans)));
        obs::set_enabled(false);
    });
    let view = ObsView::take();
    obs_metrics(&view, traced.len(), vals);
    // The work is deterministic, so a counter divides evenly by the rounds.
    let counters = Json::Obj(
        view.counters()
            .iter()
            .map(|(k, &v)| (k.clone(), Json::Num(v as f64 / traced.len() as f64)))
            .collect(),
    );
    vals.set(
        "mem.peak_live_bytes",
        obs::mem::stats().peak_live_bytes as f64,
    );

    let mut failures: Vec<String> = failures_of(&traced, None)
        .into_iter()
        .map(|f| format!("traced {f}"))
        .collect();
    let reference = &untraced[0][0];
    if traced[0][0].answers != reference.answers {
        failures.push("the traced rounds answered differently from the untraced ones".into());
    }

    let subset = (sizes.instances / 4).max(1);
    failures.extend(probe_layers(
        w, inputs, sizes, subset, reference, spans, vals,
    ));

    let untraced_wall = group_walls_s(&untraced)[0];
    let traced_wall = group_walls_s(&traced)[0];
    vals.set(
        "obs.trace_overhead_pct",
        (traced_wall / untraced_wall - 1.0) * 100.0,
    );
    let call_ms = ms(spans.total_ns(w.call_span()));
    let calls = (traced.len() * reference.op_ns.len()) as f64;
    let raw_quality = reference.raw_quality();
    match w {
        Workload::PipelineDense => {
            vals.set("lpdar_norm", raw_quality);
            if let Err(e) = pivot_probe(w, &inputs.graph, opts.seed, vals) {
                eprintln!("warning: {e}; lp.pivot_ns, lp.ftran_ns and lp.btran_ns read 0");
            }
        }
        Workload::RetBisect | Workload::RetStall => {
            vals.set("core.ret_ms", call_ms / calls);
            let probes = vals.get("ret.probes").unwrap_or(0.0) * traced.len() as f64;
            vals.set("core.ret_ms_per_probe", call_ms / probes.max(1.0));
            vals.set("b_final_mean", raw_quality);
            if w == Workload::RetBisect {
                // Back to back, so both see the host at the same speed.
                let one = run_pass(w, inputs, sizes, 1, 0..subset, None);
                let two = run_pass(w, inputs, sizes, 2, 0..subset, None);
                vals.set(
                    "par.ret_scale_t2",
                    two.wall_ns() as f64 / one.wall_ns() as f64,
                );
                if two.answers[..] != reference.answers[..subset] {
                    failures
                        .push("RetConfig.threads = 2 answered differently from threads = 1".into());
                }
            }
        }
        Workload::CgWaxman1000 => {
            let yen_ms = vals.get("net.yen_ms").unwrap_or(0.0);
            vals.set("core.cg_ms", call_ms / calls - yen_ms);
            vals.set("b_final_mean", raw_quality);
        }
        Workload::StreamDense | Workload::StreamSparse => {
            let pooled = |rounds: &[Vec<Pass>]| -> Vec<f64> {
                sorted(
                    &rounds
                        .iter()
                        .flat_map(|r| &r[0].periods_ns)
                        .map(|&ns| ms(ns))
                        .collect::<Vec<_>>(),
                )
            };
            let periods = pooled(&untraced);
            if !periods.is_empty() {
                vals.set("period_p50_ms", quantile(&periods, 0.5));
                vals.set("period_p95_ms", quantile(&periods, 0.95));
                vals.set("core.invoke_p99_ms", quantile(&pooled(&traced), 0.99));
            }
            vals.set("on_time_share", raw_quality);
        }
    }
    if w != Workload::PipelineDense {
        // One call is the only layer boundary seen from outside.
        vals.set(
            "layer_cover",
            call_ms / 1e3 / traced.len() as f64 / untraced_wall,
        );
    }
    (untraced, failures, counters)
}

/// Runs the workload as `opts` says and prints every metric by name with
/// its unit, then the result line.
pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let w = opts.workload;
    let sizes = w.sizes(opts.scale);
    let tmp = TmpDir::new()?;
    let mut vals = Values::default();
    let mut spans = Spans::new();
    let mut samples: Vec<(&str, Vec<f64>)> = Vec::new();
    let mut counters = Json::Null;

    let (inputs, first_setup) = timed_setup(opts, &tmp.0)?;
    let (rounds, failures) = if opts.trace {
        vals.set("net.graph_build_ms", ms(inputs.graph_ns));
        vals.set("workload.generate_ms", ms(inputs.generate_ns));
        vals.set("workload.trace_bytes", inputs.trace_bytes as f64);
        let (untraced, mut failures, per_round) = traced_run(opts, &inputs, &mut vals, &mut spans);
        failures.extend(failures_of(&untraced, None));
        counters = per_round;
        (untraced, failures)
    } else {
        let mut rounds = Vec::new();
        until(opts.seconds, 1, |_| {
            rounds.push(round(opts, &inputs, 0..sizes.groups, None))
        });
        // Only a full first round has the digest that was pinned.
        let pinned = (opts.seed == 0).then(|| w.pinned_digest(opts.scale));
        let failures = failures_of(&rounds, pinned);
        // One sample per group when the groups differ, else one per round.
        let walls = if sizes.groups > 1 {
            group_walls_s(&rounds)
        } else {
            rounds.iter().map(|r| r[0].wall_ns() as f64 / 1e9).collect()
        };
        vals.set("wall_s", median(&walls));
        vals.set("peak_rss_mb", peak_rss_mb()?);
        let setups = more_setups(opts, &tmp.0, first_setup)?;
        vals.set("setup_s", median(&setups));
        vals.set("quality", round_mean(&rounds[0], Pass::quality));
        vals.set("goodput", round_mean(&rounds[0], Pass::goodput));
        samples.push(("wall_s", walls));
        samples.push(("setup_s", setups));
        (rounds, failures)
    };

    let attempted: usize = rounds.iter().flatten().map(|p| p.op_ns.len()).sum();
    let failed = failures.len().min(attempted);
    for f in &failures {
        eprintln!("FAILED {}: {f}", w.name());
    }

    let digest = round_digest(&rounds[0]);
    println!(
        "# {} seed={} seconds={} trace={} scale={} rounds={} groups={} instances={} jobs={} nodes={} digest={digest}",
        w.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        opts.scale.as_str(),
        rounds.len(),
        rounds[0].len(),
        sizes.instances,
        sizes.jobs,
        sizes.nodes,
    );
    let mut metrics = Vec::new();
    for def in if opts.trace { PER_LAYER } else { END_TO_END } {
        let value = vals.get(def.name).unwrap_or(0.0);
        let note = samples
            .iter()
            .find(|(n, _)| *n == def.name)
            .map_or(String::new(), |(_, xs)| samples_note(xs));
        println!("{:<32} {value:>16.6} {:<6}{note}", def.name, def.unit);
        metrics.push((
            def.name.to_string(),
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(def.unit))]),
        ));
    }
    let correct = failures.is_empty();
    let verdict = [
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ];

    if let Some(out) = &opts.out {
        let mut record = vec![
            ("workload", Json::str(w.name())),
            ("trace", Json::Num(f64::from(u8::from(opts.trace)))),
            ("seed", Json::Num(opts.seed as f64)),
            ("seconds", Json::Num(opts.seconds)),
            ("scale", Json::str(opts.scale.as_str())),
            ("rounds", Json::Num(rounds.len() as f64)),
            ("groups", Json::Num(rounds[0].len() as f64)),
            ("instances", Json::Num(sizes.instances as f64)),
            ("jobs", Json::Num(sizes.jobs as f64)),
            ("nodes", Json::Num(sizes.nodes as f64)),
            ("digest", Json::str(&digest)),
        ];
        record.extend(verdict.iter().cloned());
        record.push((
            "samples",
            Json::Obj(
                samples
                    .iter()
                    .map(|(n, xs)| (n.to_string(), Json::nums(xs)))
                    .collect(),
            ),
        ));
        record.push(("counters", counters));
        write_outputs(out, opts, &Json::obj(record), &spans)?;
    }
    Ok(Outcome {
        correct,
        result_line: Json::obj(verdict),
    })
}

/// File name of a run's record inside `--out`.
pub fn record_name(w: Workload, trace: bool) -> String {
    format!("{}.trace{}.json", w.name(), u8::from(trace))
}

fn write_outputs(out: &Path, opts: &RunOpts, record: &Json, spans: &Spans) -> Result<(), String> {
    use std::io::Write;
    std::fs::create_dir_all(out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let path = out.join(record_name(opts.workload, opts.trace));
    std::fs::write(&path, format!("{record}\n"))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    if opts.trace {
        let path = out.join("trace.jsonl");
        let mut text = spans.to_json_lines(opts.workload.name());
        let snapshot = obs::to_json_lines(&obs::snapshot());
        let marker = Json::obj([
            ("kind", Json::str("obs_snapshot")),
            ("workload", Json::str(opts.workload.name())),
            ("lines", Json::Num(snapshot.lines().count() as f64)),
        ]);
        text.push_str(&format!("{marker}\n{snapshot}"));
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| f.write_all(text.as_bytes()))
            .map_err(|e| format!("appending to {}: {e}", path.display()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(op_ns: &[u64], answers: &[&str]) -> Pass {
        let mut p = Pass::default();
        p.op_ns = op_ns.to_vec();
        p.answers = answers.iter().map(|s| s.to_string()).collect();
        p
    }

    #[test]
    fn group_walls_take_the_median_over_rounds() {
        let s = 1_000_000_000;
        let rounds = vec![
            vec![pass(&[s, s], &[]), pass(&[5 * s], &[])],
            vec![pass(&[s, 3 * s], &[]), pass(&[6 * s], &[])],
            vec![pass(&[2 * s, 8 * s], &[]), pass(&[7 * s], &[])],
        ];
        assert_eq!(group_walls_s(&rounds), vec![4.0, 6.0]);
    }

    #[test]
    fn failures_name_changed_answers_and_a_wrong_pin() {
        let rounds = vec![
            vec![pass(&[1], &["a"]), pass(&[1], &["b"])],
            vec![pass(&[1], &["a"]), pass(&[1], &["c"])],
        ];
        let pinned = round_digest(&rounds[0]);
        assert_eq!(
            failures_of(&rounds[..1], Some(&pinned)),
            Vec::<String>::new()
        );
        let all = failures_of(&rounds, Some("0000000000000000"));
        assert_eq!(all.len(), 2, "{all:?}");
        assert!(all[0].contains("round 1, group 1"));
        assert!(all[1].contains("not the pinned"));
        // The digest covers every group in order.
        assert_ne!(round_digest(&rounds[0]), round_digest(&rounds[1]));
    }
}
