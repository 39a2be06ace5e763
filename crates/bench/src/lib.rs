//! # wavesched-bench — experiment harness
//!
//! The shared harness of the `claims` binary, which reproduces the paper's
//! evaluation one figure a run (see its docs), and of `stream`, which
//! replays a long trace through the periodic controller.
//!
//! Nothing that measures runs on a worker thread. The answer-only sweeps
//! map their points with [`par_points`] across a pool as wide as the
//! machine's available parallelism — except while the calling thread's obs
//! layer is recording (`--report`), when every point runs on the calling
//! thread, the one whose registry the report reads. Results come back in
//! input order, so every mean and CSV row is folded on the calling thread
//! and is bit-identical to the serial loop at any width. The pool lives
//! here, not under the algorithms, which spawn no thread.

#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::time::Duration;
use wavesched_core::instance::{Instance, InstanceConfig};
use wavesched_net::{waxman_network, Graph, PathSet, WaxmanConfig};
use wavesched_workload::{Job, WorkloadConfig, WorkloadGenerator};

/// The sweep-pool width: the machine's available parallelism, or 1 (every
/// point on the calling thread) while the calling thread's obs layer is
/// recording — a worker's recordings would never reach its registry.
fn width() -> usize {
    if wavesched_obs::enabled() {
        1
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// Maps `f` over `items` on at most `width` scoped workers, returning
/// `[f(&items[0]), f(&items[1]), ...]`. Workers pull the next index from
/// one atomic cursor, so uneven points balance, and results are sorted
/// back into input order. At width 1, or on one item, the closure runs
/// inline on the calling thread.
///
/// # Panics
/// Re-raises the panic of any task on the calling thread.
fn pool_map<T, R, F>(width: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let width = width.min(items.len());
    if width <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..width)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Relaxed);
                        let Some(item) = items.get(i) else {
                            return out;
                        };
                        out.push((i, f(item)));
                    }
                })
            })
            .collect();
        let mut done = Vec::with_capacity(items.len());
        for w in workers {
            match w.join() {
                Ok(pairs) => done.extend(pairs),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Maps independent sweep points (job counts, seeds, alphas, orders, …)
/// across the sweep pool, preserving input order: replications are
/// independent by construction, so every downstream mean and CSV row is
/// bit-identical to the serial loop.
pub fn par_points<T, R, F>(points: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    pool_map(width(), points, f)
}

/// The CLI options of a figure. A `None` knob means "the figure's own
/// default for its scale".
#[derive(Debug, Default, PartialEq, Eq)]
pub struct BenchOpts {
    /// Smoke scale: small networks, few jobs, one seed.
    pub smoke: bool,
    /// Where to write the JSON-lines metrics report, if requested.
    pub report: Option<String>,
    /// Solve through the delayed column-generation pipeline instead of the
    /// monolithic builds (`fig4` only).
    pub colgen: bool,
    /// Job count (for a sweep, its largest point).
    pub jobs: Option<usize>,
    /// Workload seeds to average over.
    pub seeds: Option<usize>,
    /// Paths per job (`fig4 --colgen`).
    pub paths: Option<usize>,
    /// Largest job size in GB (`fig4 --colgen`).
    pub size_gb: Option<usize>,
}

/// Parses a figure's flags (`--smoke`, `--colgen`, `--report <path>`,
/// `--jobs`, `--seeds`, `--paths`, `--size-gb <n>`), taking only the ones
/// listed, space separated, in `accepted` (the ones the figure reads).
/// `Err` carries the usage message: a flag the figure does not read, a
/// missing value, an unparseable number or a zero count — a knob that
/// silently fell back to its default, or was silently ignored, would run
/// the wrong experiment and label the output with the right one.
pub fn parse_bench_args(
    args: impl IntoIterator<Item = String>,
    accepted: &str,
) -> Result<BenchOpts, String> {
    let mut opts = BenchOpts::default();
    let mut args = args.into_iter();
    let unknown = |flag: &str| format!("unknown argument {flag:?}; this figure takes: {accepted}");
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        // Zero jobs, seeds, paths or gigabytes is no experiment: it would
        // print an empty or NaN table, or stop in a solver's assertion.
        let count = |v: String| match v.parse::<usize>() {
            Ok(0) => Err(format!("{flag}={v:?} must be at least 1")),
            Ok(n) => Ok(Some(n)),
            Err(_) => Err(format!("{flag}={v:?} is not a valid unsigned integer")),
        };
        match flag.as_str() {
            f if !accepted.split_whitespace().any(|a| a == f) => return Err(unknown(f)),
            "--smoke" => opts.smoke = true,
            "--colgen" => opts.colgen = true,
            "--report" => opts.report = Some(value()?),
            "--jobs" => opts.jobs = count(value()?)?,
            "--seeds" => opts.seeds = count(value()?)?,
            "--paths" => opts.paths = count(value()?)?,
            "--size-gb" => opts.size_gb = count(value()?)?,
            f => return Err(unknown(f)),
        }
    }
    Ok(opts)
}

/// Writes the JSON-lines metrics snapshot to the `--report` path, if one
/// was given. Call at the end of `main`.
pub fn write_report(path: Option<&str>) {
    let Some(path) = path else {
        return;
    };
    let text = wavesched_obs::to_json_lines(&wavesched_obs::snapshot());
    if let Err(e) = std::fs::write(path, &text) {
        eprintln!("failed to write report {path:?}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {} metric lines to {path}", text.lines().count());
}

/// The paper's random evaluation network: 100 nodes, 200 link pairs,
/// average node degree 4, 20 Gbps links split into `w` wavelengths
/// (`smoke`: 30 nodes, 60 link pairs).
pub fn paper_random_network(w: u32, seed: u64, smoke: bool) -> Graph {
    let mut cfg = WaxmanConfig::paper_default(seed);
    cfg.wavelengths = w;
    if smoke {
        cfg.nodes = 30;
        cfg.link_pairs = 60;
    }
    waxman_network(&cfg)
}

/// A batch of `n` jobs on `g`: sizes uniform in `size_gb` GB, windows
/// uniform in `window` slices.
pub fn workload(
    g: &Graph,
    n: usize,
    seed: u64,
    size_gb: (f64, f64),
    window: (f64, f64),
) -> Vec<Job> {
    WorkloadGenerator::new(WorkloadConfig {
        num_jobs: n,
        seed,
        size_gb,
        window,
        ..Default::default()
    })
    .generate(g)
}

/// Builds the instance for `w` wavelengths per link (capacity constant at
/// 20 Gbps) and `paths_per_job` Yen paths a job.
pub fn build_instance(g: &Graph, jobs: &[Job], w: u32, paths_per_job: usize) -> Instance {
    let cfg = InstanceConfig {
        paths_per_job,
        ..InstanceConfig::paper(w)
    };
    let mut ps = PathSet::new(cfg.paths_per_job);
    Instance::build(g, jobs, &cfg, &mut ps)
}

/// Seconds as a fixed-point string for CSV output.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_helper_respects_smoke() {
        assert_eq!(paper_random_network(4, 1, false).num_nodes(), 100);
        let g = paper_random_network(4, 1, true);
        assert_eq!(g.num_nodes(), 30);
        assert!(g.is_strongly_connected());
    }

    #[test]
    fn workload_helper() {
        let g = paper_random_network(4, 1, true);
        let jobs = workload(&g, 20, 5, (1.0, 100.0), (4.0, 10.0));
        assert_eq!(jobs.len(), 20);
        assert!(jobs.iter().all(|j| j.size_gb <= 100.0));
    }

    #[test]
    fn bench_args_parse_or_fail_loudly() {
        let all = "--smoke --colgen --report --jobs --seeds --paths --size-gb";
        let parse = |line: &str| parse_bench_args(line.split_whitespace().map(String::from), all);
        assert_eq!(parse(""), Ok(BenchOpts::default()));
        assert_eq!(
            parse("--smoke --colgen --report r.jsonl --jobs 40 --seeds 2 --paths 8 --size-gb 50"),
            Ok(BenchOpts {
                smoke: true,
                report: Some("r.jsonl".into()),
                colgen: true,
                jobs: Some(40),
                seeds: Some(2),
                paths: Some(8),
                size_gb: Some(50),
            })
        );
        // A typo, a missing value, a garbage number and a zero count are
        // all errors, never a silent default.
        for bad in [
            "--jobs 0",
            "--seeds 0",
            "--paths 0",
            "--size-gb 0",
            "--smok",
            "--report",
            "--jobs",
            "--jobs 12abc",
            "--seeds -4",
            "--paths two",
            "--size-gb 1.5",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
        // A flag the binary does not read is refused by name, with the
        // flags it does read.
        assert_eq!(
            parse_bench_args(
                ["--smoke".into(), "--colgen".into()],
                "--smoke --jobs --report"
            ),
            Err("unknown argument \"--colgen\"; this figure takes: --smoke --jobs --report".into())
        );
    }

    #[test]
    fn par_points_preserves_order() {
        let points = [5usize, 1, 9, 2];
        let out = par_points(&points, |&p| p + 1);
        assert_eq!(out, vec![6, 2, 10, 3]);
    }

    #[test]
    fn pool_preserves_input_order() {
        // Every task waits until four run at once, so each of the four
        // workers finishes exactly two: their results interleave, and only
        // the pool's reordering puts them back in input order.
        let barrier = std::sync::Barrier::new(4);
        let items: Vec<u64> = (0..8).collect();
        let out = pool_map(4, &items, |&x| {
            barrier.wait();
            x * 2
        });
        assert_eq!(out, (0..8).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn pool_fold_is_bit_identical_across_widths() {
        // A floating-point fold whose result depends on association order:
        // identical across widths because the fold runs over the
        // index-ordered vector on the calling thread.
        let xs: Vec<f64> = (1..500).map(|i| 1.0 / i as f64).collect();
        let fold = |width: usize| {
            pool_map(width, &xs, |&x| x.sin().exp())
                .into_iter()
                .sum::<f64>()
        };
        let serial = fold(1);
        for width in [2, 3, 8] {
            assert_eq!(serial.to_bits(), fold(width).to_bits(), "width {width}");
        }
    }

    #[test]
    fn pool_of_one_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids = pool_map(1, &[0; 16], |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
        // One item stays inline even on a wide pool.
        assert_eq!(
            pool_map(8, &[0], |_| std::thread::current().id()),
            vec![caller]
        );
    }

    #[test]
    #[should_panic(expected = "task 7 exploded")]
    fn pool_worker_panic_reaches_the_caller() {
        let items: Vec<usize> = (0..16).collect();
        pool_map(4, &items, |&i| {
            if i == 7 {
                panic!("task 7 exploded");
            }
            i
        });
    }

    #[test]
    #[should_panic(expected = "inline panic")]
    fn pool_inline_panic_reaches_the_caller() {
        pool_map(1, &[0, 1, 2, 3], |&i| {
            if i == 2 {
                panic!("inline panic");
            }
            i
        });
    }

    #[test]
    fn pool_maps_empty_input_to_empty_output() {
        let out: Vec<u32> = pool_map(4, &[] as &[u32], |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn par_points_stays_on_the_calling_thread_while_obs_records() {
        let caller = std::thread::current().id();
        wavesched_obs::set_enabled(true);
        let ids = par_points(&[0; 16], |_| {
            wavesched_obs::counter_add("bench.points", 1);
            std::thread::current().id()
        });
        let snap = wavesched_obs::snapshot();
        wavesched_obs::set_enabled(false);
        wavesched_obs::reset();
        assert!(ids.iter().all(|&id| id == caller));
        assert!(snap.contains(&wavesched_obs::Metric::Counter {
            name: "bench.points".into(),
            value: 16
        }));
    }
}
