//! Simulation parameters and the preloaded-trace entry point with per-job
//! outcomes. The event loop itself lives in [`crate::stream`].

use crate::metrics::{JobOutcome, SimReport};
use crate::stream::{run_event_loop, Event};
use std::collections::BTreeMap;
use wavesched_core::controller::ControllerConfig;
use wavesched_lp::SolveError;
use wavesched_net::Graph;
use wavesched_workload::{Job, JobId};

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Controller configuration (period τ, policy, solver settings).
    pub controller: ControllerConfig,
    /// Hard cap on simulated slices (safety against runaway extensions).
    pub max_slices: usize,
}

impl SimConfig {
    /// Defaults: the paper-ish controller on `w` wavelengths, 500-slice cap.
    pub fn paper(w: u32) -> Self {
        SimConfig {
            controller: ControllerConfig::paper(w),
            max_slices: 500,
        }
    }
}

/// Runs the periodic-controller simulation of `jobs` (sorted or not — they
/// are dispatched by arrival time) over `graph`, keeping every job's
/// outcome: the same event loop as
/// [`run_simulation_streamed`](crate::run_simulation_streamed), over the
/// preloaded trace.
pub fn run_simulation(
    graph: &Graph,
    jobs: &[Job],
    cfg: &SimConfig,
) -> Result<SimReport, SolveError> {
    let mut pending: Vec<Job> = jobs.to_vec();
    pending.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));
    let mut outcomes: BTreeMap<JobId, JobOutcome> = jobs
        .iter()
        .map(|j| (j.id, JobOutcome::Unfinished))
        .collect();
    // A job's last event is its outcome; one no event mentions stays
    // `Unfinished`.
    let mut collect = |event: Event| {
        let (id, outcome) = match event {
            Event::Invoke { .. } => return,
            Event::Done(id, at, on_time) => (id, JobOutcome::Completed { at, on_time }),
            Event::Expired(id, _) => (id, JobOutcome::Expired),
            Event::Rejected(id) => (id, JobOutcome::Rejected),
        };
        outcomes.insert(id, outcome);
    };
    let totals = run_event_loop(graph, pending, cfg, &mut collect)?;
    Ok(SimReport { outcomes, totals })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavesched_core::controller::OverloadPolicy;
    use wavesched_net::abilene14;
    use wavesched_workload::{ArrivalModel, WorkloadConfig, WorkloadGenerator};

    fn jobs_for(g: &Graph, n: usize, seed: u64, arrival: ArrivalModel) -> Vec<Job> {
        WorkloadGenerator::new(WorkloadConfig {
            num_jobs: n,
            seed,
            arrival,
            ..Default::default()
        })
        .generate(g)
    }

    #[test]
    fn light_load_completes_everything_on_time() {
        let (g, _) = abilene14(8);
        let jobs = WorkloadGenerator::new(WorkloadConfig {
            num_jobs: 5,
            seed: 3,
            size_gb: (1.0, 10.0),
            window: (16.0, 24.0),
            ..Default::default()
        })
        .generate(&g);
        let cfg = SimConfig::paper(8);
        let r = run_simulation(&g, &jobs, &cfg).unwrap();
        assert_eq!(r.completion_rate(), 1.0, "outcomes: {:?}", r.outcomes);
        assert_eq!(r.on_time_rate(), 1.0);
        assert!((r.totals.goodput() - 1.0).abs() < 1e-9);
        assert!(r.totals.invocations >= 1);
    }

    #[test]
    fn poisson_arrivals_trigger_multiple_invocations() {
        let (g, _) = abilene14(4);
        let jobs = jobs_for(&g, 10, 5, ArrivalModel::Poisson { rate: 0.8 });
        let cfg = SimConfig::paper(4);
        let r = run_simulation(&g, &jobs, &cfg).unwrap();
        assert!(r.totals.invocations > 2);
        assert!(
            r.completion_rate() > 0.5,
            "completion {}",
            r.completion_rate()
        );
        assert!(r.totals.mean_utilization > 0.0);
    }

    #[test]
    fn reject_policy_reports_rejections() {
        // A tiny network flooded with work must reject some jobs.
        let mut g = Graph::new();
        let ns = g.add_nodes(2);
        g.add_link_pair(ns[0], ns[1], 1);
        let jobs: Vec<Job> = (0..6)
            .map(|i| Job::new(JobId(i), 0.0, ns[0], ns[1], 300.0, 0.0, 4.0))
            .collect();
        let mut cfg = SimConfig::paper(1);
        cfg.controller.policy = OverloadPolicy::Reject;
        let r = run_simulation(&g, &jobs, &cfg).unwrap();
        assert!(r.rejection_rate() > 0.0);
        // The admitted jobs complete on time.
        for o in r.outcomes.values() {
            match o {
                JobOutcome::Completed { on_time, .. } => assert!(on_time),
                JobOutcome::Rejected => {}
                other => panic!("unexpected outcome {other:?}"),
            }
        }
    }

    /// Two jobs under one id would replay as one: the controller finds a job
    /// by its id, so every transfer would go to the first, and both would
    /// come out as that one job's outcome.
    #[test]
    fn duplicate_job_ids_are_an_invalid_model() {
        let mut g = Graph::new();
        let ns = g.add_nodes(2);
        g.add_link_pair(ns[0], ns[1], 4);
        let twin = Job::new(JobId(7), 0.0, ns[0], ns[1], 75.0, 0.0, 4.0);
        let jobs = [twin.clone(), twin];
        match run_simulation(&g, &jobs, &SimConfig::paper(4)) {
            Err(SolveError::InvalidModel(m)) => assert!(m.contains("id 7"), "{m}"),
            other => panic!("expected InvalidModel, got {other:?}"),
        }
    }

    #[test]
    fn extend_policy_finishes_late_but_fully() {
        let mut g = Graph::new();
        let ns = g.add_nodes(2);
        g.add_link_pair(ns[0], ns[1], 1);
        let jobs: Vec<Job> = (0..4)
            .map(|i| Job::new(JobId(i), 0.0, ns[0], ns[1], 300.0, 0.0, 4.0))
            .collect();
        let mut cfg = SimConfig::paper(1);
        cfg.controller.policy = OverloadPolicy::ExtendDeadlines;
        let r = run_simulation(&g, &jobs, &cfg).unwrap();
        assert_eq!(r.completion_rate(), 1.0, "outcomes: {:?}", r.outcomes);
        assert!(r.on_time_rate() < 1.0, "someone must be late");
        assert!((r.totals.goodput() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn outcome_iteration_order_is_stable() {
        // `SimReport::outcomes` is a BTreeMap precisely so downstream
        // consumers (CSV writers, comparisons) see a stable order. Guard
        // against a regression back to a hashed map: keys must iterate in
        // ascending JobId order and two runs must render identically.
        let (g, _) = abilene14(4);
        let jobs = jobs_for(&g, 8, 7, ArrivalModel::Poisson { rate: 0.8 });
        let cfg = SimConfig::paper(4);
        let a = run_simulation(&g, &jobs, &cfg).unwrap();
        let b = run_simulation(&g, &jobs, &cfg).unwrap();
        let ids: Vec<u32> = a.outcomes.keys().map(|j| j.0).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted, "outcome iteration must be ordered by JobId");
        assert_eq!(
            format!("{:?}", a.outcomes),
            format!("{:?}", b.outcomes),
            "two identical runs must render outcomes identically"
        );
    }

    #[test]
    fn outcomes_agree_with_decision_log_under_each_policy() {
        // The outcome map and the decision log are two sinks of one loop:
        // replaying the log's retirement lines must rebuild the map.
        let mut g = Graph::new();
        let ns = g.add_nodes(2);
        g.add_link_pair(ns[0], ns[1], 1);
        let jobs: Vec<Job> = (0..6)
            .map(|i| {
                let arrival = (i / 2) as f64;
                Job::new(
                    JobId(i),
                    arrival,
                    ns[0],
                    ns[1],
                    300.0,
                    arrival,
                    arrival + 4.0,
                )
            })
            .collect();
        for policy in [
            OverloadPolicy::Reject,
            OverloadPolicy::ShrinkDemands,
            OverloadPolicy::ExtendDeadlines,
        ] {
            let mut cfg = SimConfig::paper(1);
            cfg.controller.policy = policy;
            let report = run_simulation(&g, &jobs, &cfg).unwrap();
            let mut log = Vec::new();
            crate::run_simulation_streamed(&g, jobs.clone(), &cfg, Some(&mut log)).unwrap();

            let mut from_log: BTreeMap<JobId, JobOutcome> = jobs
                .iter()
                .map(|j| (j.id, JobOutcome::Unfinished))
                .collect();
            for line in String::from_utf8(log).unwrap().lines() {
                let f: Vec<&str> = line.split(' ').collect();
                let outcome = match f[0] {
                    "done" => JobOutcome::Completed {
                        at: f[2].strip_prefix("at=").unwrap().parse().unwrap(),
                        on_time: f[3] == "on_time=true",
                    },
                    "expired" => JobOutcome::Expired,
                    "rejected" => JobOutcome::Rejected,
                    "invoke" => continue,
                    other => panic!("unknown decision-log event {other:?}"),
                };
                from_log.insert(JobId(f[1].parse().unwrap()), outcome);
            }
            assert_eq!(report.outcomes, from_log, "{policy:?}");
            let unfinished = |o: &JobOutcome| matches!(o, JobOutcome::Unfinished);
            assert!(!report.outcomes.values().any(unfinished), "{policy:?}");
        }
    }

    #[test]
    fn zero_period_or_path_budget_is_a_typed_error() {
        let (g, _) = abilene14(4);
        let jobs = jobs_for(&g, 3, 1, ArrivalModel::Batch);
        // (what the error must name, tau, paths_per_job, wavelengths)
        for (what, tau, paths, w) in [
            ("tau", 0, 4, 4),
            ("paths_per_job", 1, 0, 4),
            ("wavelengths", 1, 4, 0),
        ] {
            let mut cfg = SimConfig::paper(4);
            cfg.controller.tau = tau;
            cfg.controller.instance.paths_per_job = paths;
            cfg.controller.instance.wavelengths = w;
            let preloaded = run_simulation(&g, &jobs, &cfg).map(|_| ());
            let streamed = crate::run_simulation_streamed(&g, jobs.clone(), &cfg, None).map(|_| ());
            for out in [preloaded, streamed] {
                assert!(
                    matches!(&out, Err(SolveError::InvalidModel(m)) if m.contains(what)),
                    "{what} = 0: {out:?}"
                );
            }
        }
    }

    #[test]
    fn shrink_policy_moves_partial_volume() {
        let mut g = Graph::new();
        let ns = g.add_nodes(2);
        g.add_link_pair(ns[0], ns[1], 1);
        let jobs: Vec<Job> = (0..4)
            .map(|i| Job::new(JobId(i), 0.0, ns[0], ns[1], 300.0, 0.0, 4.0))
            .collect();
        let cfg = SimConfig::paper(1); // ShrinkDemands default
        let r = run_simulation(&g, &jobs, &cfg).unwrap();
        // Network can move at most 4 of the 8 requested units.
        assert!(r.totals.goodput() < 0.75);
        assert!(r.totals.volume_moved > 0.0);
    }
}
