//! The slice-by-slice event loop, over a lazily produced job sequence.
//!
//! The loop pulls jobs from an iterator as the simulated clock reaches
//! their arrival times and keeps a clock, the schedule in force and the
//! aggregate counters — nothing per job: a job's remaining demand and the
//! rules that retire it are the controller's, so the loop's own memory does
//! not depend on the trace length at all. Every retirement goes to an event
//! sink: [`run_simulation_streamed`] plugs in the decision-log writer,
//! [`run_simulation`](crate::run_simulation) a per-job outcome collector
//! over a preloaded trace; both return the one [`StreamReport`] (counts and
//! volumes), O(1) in trace length.
//!
//! The loop also feeds the `mem.*` counter family: around every
//! controller invocation it snapshots [`obs::mem::stats`] and emits the
//! allocation deltas, so a replay under a tracking allocator records
//! whether steady-state allocation is flat (see
//! [`MemProfile`]). Without [`obs::mem::TrackingAlloc`]
//! installed the deltas are all zero and the profile is inert.

use crate::engine::SimConfig;
use std::collections::VecDeque;
use std::io::Write;
use wavesched_core::controller::{ActiveJob, Controller, InvocationResult};
use wavesched_lp::SolveError;
use wavesched_net::Graph;
use wavesched_obs as obs;
use wavesched_workload::{Job, JobId};

/// Allocation-flatness evidence from one streamed replay.
///
/// Per-invocation allocated-byte deltas are averaged over the first and
/// last [`MemProfile::WINDOW`] invocations (after a one-window warmup the
/// two means should agree for a memory-lean controller — the grid and the
/// path cache no longer grow with the simulated clock).
#[derive(Debug, Clone, Copy, Default)]
pub struct MemProfile {
    /// Number of invocation deltas sampled.
    pub samples: usize,
    /// Mean bytes allocated per invocation over the first window (after
    /// skipping the first window as warmup; 0 when too few samples).
    pub early_mean_alloc_bytes: f64,
    /// Mean bytes allocated per invocation over the last window.
    pub late_mean_alloc_bytes: f64,
    /// Process-wide peak of live bytes, as seen at the last invocation.
    pub peak_live_bytes: u64,
}

impl MemProfile {
    /// Window length (in invocations) for the early/late means.
    pub const WINDOW: usize = 64;
}

/// Aggregate results of a replay: per-job outcomes are folded into counts as
/// jobs retire, so the report is O(1) in trace length.
/// [`SimReport`](crate::SimReport) adds the per-job outcomes to it.
#[derive(Debug, Clone, Default)]
pub struct StreamReport {
    /// Jobs pulled from the input stream.
    pub jobs_seen: usize,
    /// Jobs whose full demand was delivered.
    pub completed: usize,
    /// Completed jobs that met their originally requested end time.
    pub on_time: usize,
    /// Jobs rejected at admission.
    pub rejected: usize,
    /// Jobs whose window elapsed with demand unmet.
    pub expired: usize,
    /// Jobs still in flight when the slice cap stopped the run.
    pub unfinished: usize,
    /// Total normalized demand volume delivered.
    pub volume_moved: f64,
    /// Total normalized demand volume requested (all jobs seen).
    pub volume_requested: f64,
    /// Controller invocations performed.
    pub invocations: usize,
    /// Slices simulated.
    pub slices: usize,
    /// Most jobs ever simultaneously in flight — the quantity that bounds
    /// the controller's memory.
    pub peak_active: usize,
    /// Mean over executed slices of the share of installed wavelength-links
    /// the schedule reserved.
    pub mean_utilization: f64,
    /// Per-invocation allocation profile (all-zero without a tracking
    /// allocator).
    pub mem: MemProfile,
}

impl StreamReport {
    /// Fraction of seen jobs that completed.
    pub fn completion_rate(&self) -> f64 {
        if self.jobs_seen == 0 {
            0.0
        } else {
            self.completed as f64 / self.jobs_seen as f64
        }
    }

    /// Fraction of requested volume that was delivered.
    pub fn goodput(&self) -> f64 {
        if self.volume_requested == 0.0 {
            0.0
        } else {
            self.volume_moved / self.volume_requested
        }
    }
}

/// What the event loop reports to its sink, in decision order.
pub(crate) enum Event {
    /// One controller invocation at `now`: jobs handed over, of which
    /// rejected, and jobs in flight afterwards.
    Invoke {
        now: f64,
        batch: usize,
        rejected: usize,
        active: usize,
    },
    /// The job received its full demand at the given time; the flag says
    /// whether that met the end time it was submitted with.
    Done(JobId, f64, bool),
    /// The controller dropped the job at the given time: its window elapsed.
    Expired(JobId, f64),
    /// The controller refused the job at admission.
    Rejected(JobId),
}

/// Runs the periodic-controller simulation over a lazily produced job
/// stream.
///
/// `jobs` must yield jobs in nondecreasing arrival order (as
/// [`JobStream`](wavesched_workload::JobStream) and
/// [`TraceReader`](wavesched_workload::TraceReader) over a recorded trace
/// do); a job arriving out of order is still dispatched, just at the next
/// invocation after it is pulled.
///
/// When `decision_log` is given, one line per controller decision is
/// written: invocation summaries and per-job retirement events. The log
/// contains scheduling outcomes only — no timings, no allocation data —
/// so two replays of the same trace are byte-identical whenever their
/// schedules are, whether the input was streamed or preloaded.
pub fn run_simulation_streamed(
    graph: &Graph,
    jobs: impl IntoIterator<Item = Job>,
    cfg: &SimConfig,
    mut decision_log: Option<&mut dyn Write>,
) -> Result<StreamReport, SolveError> {
    let mut log_failed = false;
    let mut write_line = |event: Event| {
        let Some(w) = decision_log.as_mut() else {
            return;
        };
        let written = match event {
            Event::Invoke {
                now,
                batch,
                rejected,
                active,
            } => writeln!(
                w,
                "invoke now={now} batch={batch} rejected={rejected} active={active}"
            ),
            Event::Done(id, at, t) => writeln!(w, "done {} at={at} on_time={t}", id.0),
            Event::Expired(id, now) => writeln!(w, "expired {} at={now}", id.0),
            Event::Rejected(id) => writeln!(w, "rejected {}", id.0),
        };
        log_failed |= written.is_err();
    };
    let report = run_event_loop(graph, jobs, cfg, &mut write_line)?;
    if log_failed {
        // Surfaced once rather than per line; a truncated log would fail
        // any downstream byte-comparison anyway.
        eprintln!("warning: decision log writer failed; log is incomplete");
    }
    Ok(report)
}

/// The one event loop. Time advances one slice at a time; at every
/// multiple of τ the controller is invoked with the requests that arrived
/// in the preceding period and returns an integral schedule, which the
/// loop executes slice by slice — reporting delivered volume back to the
/// controller, which says what of it was still needed and whether it
/// completed the job — until the next invocation replaces it. Every
/// retirement is reported to `sink`.
pub(crate) fn run_event_loop(
    graph: &Graph,
    jobs: impl IntoIterator<Item = Job>,
    cfg: &SimConfig,
    sink: &mut dyn FnMut(Event),
) -> Result<StreamReport, SolveError> {
    let _span = obs::span("sim_stream");
    let tau = cfg.controller.tau;
    // `Controller::new`, `PathSet::new` and `InstanceConfig::demand_units`
    // assert on these; a config is caller input, so it gets an error, not a
    // panic.
    if tau == 0 {
        return Err(SolveError::InvalidModel(
            "controller period tau must be positive".into(),
        ));
    }
    cfg.controller.instance.check()?;
    let mut controller = Controller::new(graph.clone(), cfg.controller.clone());
    let mut it = jobs.into_iter().peekable();

    let mut report = StreamReport::default();
    // The schedule in force (`instance.jobs[i]` is `controller.active()[i]`
    // while it is), and the slice it runs out at.
    let mut current: Option<(InvocationResult, usize)> = None;
    let mut batch: Vec<Job> = Vec::new();
    let total_wavelengths: f64 = graph.edge_ids().map(|e| graph.wavelengths(e) as f64).sum();
    let (mut reserved, mut executed_slices) = (0.0, 0usize);

    // Per-invocation allocated-byte deltas: first two windows (warmup +
    // early) and a rolling last window.
    let window = MemProfile::WINDOW;
    let mut early: Vec<u64> = Vec::with_capacity(2 * window);
    let mut late: VecDeque<u64> = VecDeque::with_capacity(window + 1);

    let mut slice = 0usize;
    while slice < cfg.max_slices {
        let _slice_span = obs::span("slice");
        obs::counter_add("sim.slices", 1);
        let now = slice as f64;

        if slice.is_multiple_of(tau) {
            batch.clear();
            while let Some(j) = it.peek() {
                if j.arrival <= now {
                    #[expect(clippy::expect_used, reason = "peek just returned Some")]
                    batch.push(it.next().expect("peeked"));
                } else {
                    break;
                }
            }
            report.jobs_seen += batch.len();
            for j in &batch {
                report.volume_requested += cfg.controller.instance.demand_units(j.size_gb);
            }

            let before = obs::mem::stats();
            let res = controller.invoke(now, &batch)?;
            let after = obs::mem::stats();
            let alloc_delta = after.allocated_bytes - before.allocated_bytes;
            obs::counter_add("mem.bytes_allocated", alloc_delta);
            obs::counter_add("mem.bytes_freed", after.freed_bytes - before.freed_bytes);
            obs::record("mem.live_bytes", after.live_bytes());
            report.mem.peak_live_bytes = after.peak_live_bytes;
            report.mem.samples += 1;
            if early.len() < 2 * window {
                early.push(alloc_delta);
            }
            late.push_back(alloc_delta);
            if late.len() > window {
                late.pop_front();
            }
            report.invocations += 1;

            // Retirements the controller decided at this invocation; the
            // jobs it found finished were reported when they completed.
            for &id in &res.expired {
                report.expired += 1;
                sink(Event::Expired(id, now));
            }
            for &id in &res.rejected {
                report.rejected += 1;
                sink(Event::Rejected(id));
            }
            let active = controller.active().len();
            report.peak_active = report.peak_active.max(active);
            sink(Event::Invoke {
                now,
                batch: batch.len(),
                rejected: res.rejected.len(),
                active,
            });
            // Even an empty schedule covers the slice it was issued at, so
            // an idle period counts towards utilization at any clock.
            let until = res.instance.grid.num_slices().max(slice + 1);
            current = Some((res, until));
        }

        // Execute this slice of the current schedule.
        if let Some((res, until)) = &current {
            if slice < *until {
                let (inst, sched) = (&res.instance, &res.schedule);
                executed_slices += 1;
                for (idx, job) in inst.jobs.iter().enumerate() {
                    let w = inst.vars.window(idx);
                    if !w.contains(&slice) {
                        continue;
                    }
                    let mut moved = 0.0;
                    for p in 0..inst.vars.paths_of(idx) {
                        let x = sched.x[inst.vars.var(idx, p, slice)];
                        if x > 0.0 {
                            moved += x;
                            reserved += x * inst.paths[idx][p].edges().len() as f64;
                        }
                    }
                    if moved > 0.0 {
                        let Some((delivered, finished)) = controller.record_transfer(job.id, moved)
                        else {
                            continue;
                        };
                        report.volume_moved += delivered;
                        if finished {
                            let at = inst.grid.end_of(slice);
                            let on_time = controller.active()[idx].on_time(at);
                            report.completed += 1;
                            report.on_time += usize::from(on_time);
                            sink(Event::Done(job.id, at, on_time));
                        }
                    }
                }
            }
        }

        slice += 1;

        // Drained: no more arrivals, nothing in flight.
        if it.peek().is_none()
            && report.invocations > 0
            && controller.active().iter().all(ActiveJob::is_done)
        {
            break;
        }
    }

    let unfinished = controller.active().iter().filter(|a| !a.is_done());
    report.unfinished = unfinished.count();
    report.slices = slice;
    fn mean(xs: impl Iterator<Item = u64>) -> f64 {
        let (mut sum, mut n) = (0u128, 0usize);
        for x in xs {
            sum += x as u128;
            n += 1;
        }
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }
    // Skip the first window as warmup (path-cache and first-time pool
    // fills); compare the window after it against the rolling last one.
    if early.len() > window {
        report.mem.early_mean_alloc_bytes = mean(early[window..].iter().copied());
    }
    report.mem.late_mean_alloc_bytes = mean(late.iter().copied());
    let capacity = total_wavelengths * executed_slices as f64;
    if capacity > 0.0 {
        report.mean_utilization = reserved / capacity;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_simulation;
    use crate::metrics::JobOutcome;
    use wavesched_net::abilene14;
    use wavesched_workload::{ArrivalModel, WorkloadConfig, WorkloadGenerator};

    fn workload(n: usize, seed: u64, rate: f64) -> WorkloadConfig {
        WorkloadConfig {
            num_jobs: n,
            seed,
            arrival: ArrivalModel::Poisson { rate },
            ..Default::default()
        }
    }

    #[test]
    fn streamed_matches_preloaded_aggregates() {
        let (g, _) = abilene14(4);
        let cfg = SimConfig {
            max_slices: 4000,
            ..SimConfig::paper(4)
        };
        let wl = workload(30, 17, 0.7);
        let preloaded = WorkloadGenerator::new(wl.clone()).generate(&g);
        let full = run_simulation(&g, &preloaded, &cfg).unwrap();
        let streamed =
            run_simulation_streamed(&g, WorkloadGenerator::new(wl).stream(&g), &cfg, None).unwrap();
        assert_eq!(streamed.jobs_seen, 30);
        // Both sides run the one event loop, so the aggregates agree to
        // the bit.
        assert_eq!(streamed.invocations, full.totals.invocations);
        assert_eq!(streamed.slices, full.totals.slices);
        assert_eq!(streamed.volume_moved, full.totals.volume_moved);
        assert_eq!(streamed.volume_requested, full.totals.volume_requested);
        assert_eq!(streamed.mean_utilization, full.totals.mean_utilization);
        assert!(streamed.mean_utilization > 0.0);
        let count =
            |pred: fn(&JobOutcome) -> bool| full.outcomes.values().filter(|o| pred(o)).count();
        assert_eq!(
            streamed.completed,
            count(|o| matches!(o, JobOutcome::Completed { .. }))
        );
        assert_eq!(
            streamed.on_time,
            count(|o| matches!(o, JobOutcome::Completed { on_time: true, .. }))
        );
        assert_eq!(
            streamed.expired,
            count(|o| matches!(o, JobOutcome::Expired))
        );
        assert_eq!(
            streamed.rejected,
            count(|o| matches!(o, JobOutcome::Rejected))
        );
        assert_eq!(
            streamed.unfinished,
            count(|o| matches!(o, JobOutcome::Unfinished))
        );
        assert!(streamed.peak_active >= 1);
        assert!(streamed.peak_active <= 30);
    }

    #[test]
    fn decision_log_is_identical_streamed_vs_preloaded() {
        let (g, _) = abilene14(4);
        let cfg = SimConfig {
            max_slices: 4000,
            ..SimConfig::paper(4)
        };
        let wl = workload(25, 23, 0.9);
        let mut log_stream = Vec::new();
        run_simulation_streamed(
            &g,
            WorkloadGenerator::new(wl.clone()).stream(&g),
            &cfg,
            Some(&mut log_stream),
        )
        .unwrap();
        let preloaded = WorkloadGenerator::new(wl).generate(&g);
        let mut log_preload = Vec::new();
        run_simulation_streamed(&g, preloaded, &cfg, Some(&mut log_preload)).unwrap();
        assert!(!log_stream.is_empty());
        assert_eq!(
            log_stream, log_preload,
            "decision logs must be byte-identical"
        );
    }

    /// FNV-1a over the log's bytes.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The decision log of one overloaded Abilene replay under each policy,
    /// lines and hash as the event loop wrote it while it still kept its
    /// own per-job ledger beside the controller's (recorded at 97bd353):
    /// rejections, expiries, late completions under RET extensions, and
    /// jobs done in the first slice of a two-slice period; the
    /// `ExtendDeadlines` row since RET's growth stops at `b_max`, so no job
    /// is extended past it. Beside each hash,
    /// the replay's LP solves and admission counts, read from this test
    /// thread's own obs registry: a change to `Reject`'s admission trials
    /// shows as a named counter, not only as a moved hash.
    #[test]
    fn overloaded_decision_log_is_pinned_under_each_policy() {
        use wavesched_core::controller::OverloadPolicy;
        let (g, _) = abilene14(2);
        let wl = WorkloadConfig {
            num_jobs: 200,
            seed: 42,
            size_gb: (300.0, 600.0),
            arrival: ArrivalModel::Poisson { rate: 1.0 },
            window: (3.0, 6.0),
        };
        let counter = |snap: &[obs::Metric], want: &str| {
            snap.iter()
                .find_map(|m| match m {
                    obs::Metric::Counter { name, value } if name == want => Some(*value),
                    _ => None,
                })
                .unwrap_or(0)
        };
        // (policy, log lines, log hash, [lp.solves, controller.admitted,
        // controller.rejected])
        for (policy, lines, hash, counts) in [
            (
                OverloadPolicy::Reject,
                308,
                0x10d6_aa41_ee22_49c5_u64,
                [236, 114, 86],
            ),
            (
                OverloadPolicy::ShrinkDemands,
                309,
                0x62ce_37d5_472e_2303,
                [192, 200, 0],
            ),
            (
                OverloadPolicy::ExtendDeadlines,
                310,
                0x54fc_66e6_8b46_db6b,
                [792, 200, 0],
            ),
        ] {
            let mut cfg = SimConfig::paper(2);
            cfg.controller.tau = 2;
            cfg.controller.policy = policy;
            let mut log = Vec::new();
            let jobs = WorkloadGenerator::new(wl.clone()).stream(&g);
            obs::set_enabled(true);
            let r = run_simulation_streamed(&g, jobs, &cfg, Some(&mut log)).unwrap();
            obs::set_enabled(false);
            let snap = obs::snapshot();
            obs::reset();
            let got_counts = ["lp.solves", "controller.admitted", "controller.rejected"]
                .map(|name| counter(&snap, name));
            assert_eq!(
                got_counts, counts,
                "{policy:?}: [lp.solves, controller.admitted, controller.rejected] moved"
            );
            assert_eq!(r.jobs_seen, 200);
            assert!(r.expired > 0 && r.unfinished == 0, "{policy:?}: {r:?}");
            let got = (log.iter().filter(|&&b| b == b'\n').count(), fnv1a(&log));
            assert_eq!(
                got,
                (lines, hash),
                "{policy:?}: decision log moved ({} lines, {:#018x})",
                got.0,
                got.1
            );
        }
    }

    #[test]
    fn rejections_are_counted() {
        use wavesched_core::controller::OverloadPolicy;
        let mut g = Graph::new();
        let ns = g.add_nodes(2);
        g.add_link_pair(ns[0], ns[1], 1);
        let jobs: Vec<Job> = (0..6)
            .map(|i| Job::new(JobId(i), 0.0, ns[0], ns[1], 300.0, 0.0, 4.0))
            .collect();
        let mut cfg = SimConfig::paper(1);
        cfg.controller.policy = OverloadPolicy::Reject;
        let r = run_simulation_streamed(&g, jobs, &cfg, None).unwrap();
        assert!(r.rejected > 0);
        assert_eq!(r.jobs_seen, 6);
        assert_eq!(r.completed + r.rejected + r.expired + r.unfinished, 6);
    }

    #[test]
    fn report_rates_are_sane() {
        let r = StreamReport::default();
        assert_eq!(r.completion_rate(), 0.0);
        assert_eq!(r.goodput(), 0.0);
        assert!(!r.completion_rate().is_nan());
        let r = StreamReport {
            jobs_seen: 4,
            completed: 2,
            volume_moved: 30.0,
            volume_requested: 40.0,
            ..Default::default()
        };
        assert_eq!(r.completion_rate(), 0.5);
        assert_eq!(r.goodput(), 0.75);
    }
}
