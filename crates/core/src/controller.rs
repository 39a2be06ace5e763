//! The periodic network controller (paper Section II-A).
//!
//! Every τ time units the controller collects the requests that arrived in
//! the last period, runs admission control, and (re)schedules *all*
//! unfinished jobs from the current time forward — multipath, time-varying
//! assignments, full re-optimization each period. Overload is handled by
//! one of the paper's three actions ([`OverloadPolicy`]).
//!
//! The controller is deliberately I/O-free: the caller (normally
//! `wavesched-sim`) feeds it arrivals and applies the returned schedule,
//! reporting actual transfer progress back via
//! [`Controller::record_transfer`]. It is also the only holder of per-job
//! state: a job's remaining demand, and the rules that retire it — delivered
//! in full, or less than a slice of window left — live here and nowhere
//! else.

use crate::admission::{admit_by_priority, instance_over};
use crate::instance::{Instance, InstanceConfig};
use crate::pipeline::pipeline_from_stage1;
use crate::ret::{solve_ret_with_demands, RetConfig};
use crate::schedule::Schedule;
use crate::stage1::open_stage1;
use std::sync::Arc;
use std::time::Instant;
use wavesched_lp::{SolveError, SolveStats};
use wavesched_net::{Graph, PathSet};
use wavesched_obs as obs;
use wavesched_workload::{Job, JobId};

/// What the controller does when the network cannot meet every deadline
/// (`Z* < 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadPolicy {
    /// Action (i): reject the lowest-priority new requests (footnote 1's
    /// binary search). Admitted jobs keep full demands and deadlines.
    Reject,
    /// Action (ii): admit everything and schedule what fits. No reduced
    /// demand is recorded anywhere: a job still completes only at its full
    /// demand, and what the Stage-2/LPDAR schedules leave unmet at the end
    /// of its window expires with it.
    ShrinkDemands,
    /// Action (iii): admit everything and extend all end times by the
    /// smallest common factor found by RET.
    ExtendDeadlines,
}

/// Controller configuration.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Scheduling period τ, in slice units (must be a positive integer
    /// number of slices).
    pub tau: usize,
    /// Instance construction parameters (paths per job, normalization).
    pub instance: InstanceConfig,
    /// Stage-2 fairness slack α.
    pub alpha: f64,
    /// Overload action.
    pub policy: OverloadPolicy,
    /// RET settings (used by [`OverloadPolicy::ExtendDeadlines`]).
    pub ret: RetConfig,
}

impl ControllerConfig {
    /// A reasonable default around the paper's parameters.
    pub fn paper(w: u32) -> Self {
        ControllerConfig {
            tau: 1,
            instance: InstanceConfig::paper(w),
            alpha: 0.1,
            policy: OverloadPolicy::ShrinkDemands,
            ret: RetConfig::default(),
        }
    }
}

/// An admitted, unfinished job tracked by the controller.
#[derive(Debug, Clone)]
pub struct ActiveJob {
    /// The request as last scheduled: start clamped to that invocation, end
    /// extended by RET.
    pub job: Job,
    /// Remaining demand in normalized units.
    pub remaining: f64,
    /// The end time as submitted, before [`Controller::invoke`]'s clamp to a
    /// whole slice and before any RET extension.
    pub requested_end: f64,
}

impl ActiveJob {
    /// Whether the full demand was delivered; the job then only waits for
    /// the next invocation to retire it.
    pub fn is_done(&self) -> bool {
        self.remaining <= 1e-9
    }

    /// Whether a completion at time `at` meets the end time as submitted.
    pub fn on_time(&self, at: f64) -> bool {
        at <= self.requested_end + 1e-9
    }
}

/// The outcome of one controller invocation.
#[derive(Debug)]
pub struct InvocationResult {
    /// The instance the schedule refers to (jobs ordered as
    /// [`Controller::active`] at return time).
    pub instance: Instance,
    /// The integral (LPDAR) schedule to execute until the next invocation.
    pub schedule: Schedule,
    /// Stage-1 `Z*` over the scheduled set.
    pub z_star: f64,
    /// Ids of newly admitted requests.
    pub admitted: Vec<JobId>,
    /// Ids of rejected requests (only under [`OverloadPolicy::Reject`]).
    pub rejected: Vec<JobId>,
    /// Jobs this invocation retired because their demand was delivered in
    /// full since the previous one.
    pub finished: Vec<JobId>,
    /// Jobs this invocation dropped with demand unmet: less than a slice of
    /// their window was left.
    pub expired: Vec<JobId>,
    /// The common deadline-extension factor applied this round (only under
    /// [`OverloadPolicy::ExtendDeadlines`]).
    pub extension: f64,
    /// Solver work performed by this invocation (all stages, probes and RET
    /// included).
    pub stats: SolveStats,
}

/// The periodic AC/scheduling controller.
#[derive(Debug)]
pub struct Controller {
    cfg: ControllerConfig,
    graph: Arc<Graph>,
    pathset: PathSet,
    active: Vec<ActiveJob>,
    stats: SolveStats,
}

impl Controller {
    /// Creates a controller for a network.
    pub fn new(graph: Graph, cfg: ControllerConfig) -> Self {
        assert!(cfg.tau > 0, "tau must be positive");
        let pathset = PathSet::new(cfg.instance.paths_per_job);
        Controller {
            cfg,
            graph: Arc::new(graph),
            pathset,
            active: Vec::new(),
            stats: SolveStats::default(),
        }
    }

    /// Aggregated solver work counters over every invocation so far.
    pub fn stats(&self) -> &SolveStats {
        &self.stats
    }

    /// The jobs of the last invocation's schedule, in its instance's order
    /// (`instance.jobs[i]` is `active()[i]` until the next invocation). A
    /// job whose demand was delivered since then stays listed
    /// ([`ActiveJob::is_done`]) until the next invocation retires it.
    pub fn active(&self) -> &[ActiveJob] {
        &self.active
    }

    /// Reports that the schedule moved `moved` demand units of `job`; the
    /// simulator calls this after executing each slice. The delivery is
    /// capped at what the job still needs. Returns what was delivered and
    /// whether that completed the job — `None` for a job the controller
    /// does not hold or one already complete, so a job done early in a
    /// period is reported once however often it is scheduled afterwards.
    pub fn record_transfer(&mut self, job: JobId, moved: f64) -> Option<(f64, bool)> {
        let a = self.active.iter_mut().find(|a| a.job.id == job)?;
        if a.is_done() {
            return None;
        }
        let delivered = moved.min(a.remaining);
        a.remaining -= delivered;
        Some((delivered, a.is_done()))
    }

    /// Runs one AC/scheduling invocation at time `now` (a slice boundary,
    /// multiple of τ), with the requests that arrived since the previous
    /// invocation.
    ///
    /// Job ids must be unique among the jobs the controller holds at once —
    /// those still active after this invocation retires the finished and
    /// expired ones, and `new_requests` — because
    /// [`record_transfer`](Self::record_transfer) finds a job by its id. A
    /// request that repeats such an id is a [`SolveError::InvalidModel`]
    /// naming it.
    pub fn invoke(
        &mut self,
        now: f64,
        new_requests: &[Job],
    ) -> Result<InvocationResult, SolveError> {
        let _span = obs::span("invoke");
        obs::counter_add("controller.invocations", 1);
        // A job with less than a full slice of window left can receive
        // nothing more. Ids are checked before anything is retired, so the
        // error leaves the controller as it was.
        let expires = |a: &ActiveJob| a.job.end < now + 1.0;
        let survivors = self.active.iter().filter(|a| !a.is_done() && !expires(a));
        let mut held: Vec<JobId> = survivors.map(|a| a.job.id).collect();
        held.extend(new_requests.iter().map(|j| j.id));
        held.sort_unstable();
        if let Some(dup) = held.windows(2).find(|w| w[0] == w[1]) {
            return Err(SolveError::InvalidModel(format!(
                "job id {} is held twice: ids must be unique among active jobs and requests",
                dup[0].0
            )));
        }
        // Retire completed jobs and expire the rest of the elapsed ones.
        let (mut finished, mut expired) = (Vec::new(), Vec::new());
        self.active.retain(|a| {
            if a.is_done() {
                finished.push(a.job.id);
                return false;
            }
            if expires(a) {
                expired.push(a.job.id);
                return false;
            }
            true
        });

        // Clamp surviving jobs' start times to now (they may be mid-flight).
        let mandatory: Vec<Job> = self
            .active
            .iter()
            .map(|a| {
                let mut j = a.job.clone();
                j.start = j.start.max(now);
                if j.arrival > j.start {
                    j.arrival = j.start;
                }
                j
            })
            .collect();
        let mandatory_demands: Vec<f64> = self.active.iter().map(|a| a.remaining).collect();

        // Normalize and clamp incoming requests.
        let candidates: Vec<Job> = new_requests
            .iter()
            .map(|j| {
                let mut j = j.clone();
                j.start = j.start.max(now);
                j.end = j.end.max(j.start + 1.0);
                j
            })
            .collect();

        // Admission and the overload test are one step, and that step is the
        // scheduling pipeline's first stage: one instance over the admitted
        // set, its LP held open, Stage 1 solved on it cold. Only `Reject`
        // turns requests away (one trial per prefix it tries; the admitted
        // set's comes back, and the others' solver work is counted in
        // `stats`); the other two admit everything. Nothing carries over
        // from the previous period but the path cache and the active jobs.
        #[expect(
            clippy::disallowed_methods,
            reason = "start of the pipeline run's reporting-only stage timings; no scheduling decision reads them"
        )]
        let t0 = Instant::now();
        let (admitted_prefix, inst, mut lp, s1, mut stats) = match self.cfg.policy {
            OverloadPolicy::Reject => {
                let a = admit_by_priority(
                    &self.graph,
                    &mandatory,
                    &mandatory_demands,
                    &candidates,
                    &self.cfg.instance,
                    &mut self.pathset,
                )?;
                (a.admitted_prefix, a.instance, a.lp, a.stage1, a.discarded)
            }
            OverloadPolicy::ShrinkDemands | OverloadPolicy::ExtendDeadlines => {
                let inst = instance_over(
                    &self.graph,
                    &mandatory,
                    &mandatory_demands,
                    &candidates,
                    &self.cfg.instance,
                    &mut self.pathset,
                );
                let (lp, s1) = open_stage1(&inst)?;
                (candidates.len(), inst, lp, s1, SolveStats::default())
            }
        };
        let (accepted, refused) = candidates.split_at(admitted_prefix);
        let admitted: Vec<JobId> = accepted.iter().map(|j| j.id).collect();
        let rejected: Vec<JobId> = refused.iter().map(|j| j.id).collect();

        obs::counter_add("controller.admitted", admitted.len() as u64);
        obs::counter_add("controller.rejected", rejected.len() as u64);
        obs::record("controller.jobs_scheduled", inst.num_jobs() as u64);

        // ExtendDeadlines under overload: schedule via RET (Quick-Finish +
        // capped LPDAR), which completes every job by the extended ends.
        if self.cfg.policy == OverloadPolicy::ExtendDeadlines && s1.z_star < 1.0 {
            if let Some(ret) = solve_ret_with_demands(
                &self.graph,
                &inst.jobs,
                &inst.demands,
                &self.cfg.ret,
                now,
                &mut self.pathset,
            )? {
                stats.merge(&s1.stats);
                stats.merge(&ret.stats);
                self.stats.merge(&stats);
                // Commit the ends RET scheduled against: its instance
                // holds the jobs as relaxed at `b_final`.
                self.commit(&ret.instance, new_requests);
                return Ok(InvocationResult {
                    z_star: s1.z_star,
                    schedule: ret.lpdar,
                    instance: ret.instance,
                    admitted,
                    rejected,
                    finished,
                    expired,
                    extension: ret.b_final,
                    stats,
                });
            }
        }

        // Schedule the admitted set with the rest of the pipeline — Stage 2
        // on the LP Stage 1 was solved on, then LPD and LPDAR.
        let pipe = {
            let _pipeline_span = obs::span("pipeline");
            pipeline_from_stage1(&inst, &mut lp, s1, self.cfg.alpha, t0)?
        };

        self.commit(&inst, new_requests);
        stats.merge(&pipe.stats);
        self.stats.merge(&stats);

        Ok(InvocationResult {
            z_star: pipe.z_star,
            schedule: pipe.lpdar,
            instance: inst,
            admitted,
            rejected,
            finished,
            expired,
            extension: 0.0,
            stats,
        })
    }

    /// Makes the scheduled instance's jobs the active set: the carried jobs
    /// come first, at their remaining demand and the end they asked for when
    /// submitted; the admitted prefix of `new_requests` follows at full
    /// demand.
    fn commit(&mut self, inst: &Instance, new_requests: &[Job]) {
        let carried = self.active.len();
        let next = inst.jobs.iter().zip(&inst.demands).enumerate();
        self.active = next
            .map(|(idx, (job, &remaining))| ActiveJob {
                job: job.clone(),
                remaining,
                requested_end: match self.active.get(idx) {
                    Some(a) => a.requested_end,
                    None => new_requests[idx - carried].end,
                },
            })
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavesched_net::abilene14;
    use wavesched_workload::{ArrivalModel, WorkloadConfig, WorkloadGenerator};

    fn controller(w: u32, policy: OverloadPolicy) -> (Controller, Graph) {
        let (g, _) = abilene14(w);
        let mut cfg = ControllerConfig::paper(w);
        cfg.policy = policy;
        (Controller::new(g.clone(), cfg), g)
    }

    fn jobs(g: &Graph, n: usize, seed: u64) -> Vec<Job> {
        WorkloadGenerator::new(WorkloadConfig {
            num_jobs: n,
            seed,
            ..Default::default()
        })
        .generate(g)
    }

    #[test]
    fn single_invocation_schedules_everything() {
        let (mut c, g) = controller(4, OverloadPolicy::ShrinkDemands);
        let js = jobs(&g, 6, 1);
        let r = c.invoke(0.0, &js).unwrap();
        assert_eq!(r.admitted.len(), 6);
        assert!(r.rejected.is_empty());
        assert_eq!(c.active().len(), 6);
        assert!(r.schedule.is_integral(1e-9));
        assert!(r.schedule.max_capacity_violation(&r.instance) < 1e-9);
    }

    #[test]
    fn transfers_retire_jobs() {
        let (mut c, g) = controller(4, OverloadPolicy::ShrinkDemands);
        let js = jobs(&g, 3, 2);
        let r = c.invoke(0.0, &js).unwrap();
        assert!(r.finished.is_empty() && r.expired.is_empty());
        // Report full transfers for all jobs.
        let ids: Vec<JobId> = c.active().iter().map(|a| a.job.id).collect();
        let rem: Vec<f64> = c.active().iter().map(|a| a.remaining).collect();
        for (&id, r) in ids.iter().zip(rem) {
            assert_eq!(c.record_transfer(id, r), Some((r, true)));
        }
        // Done, but listed until the next invocation retires them.
        assert_eq!(c.active().len(), 3);
        assert!(c.active().iter().all(ActiveJob::is_done));
        let r2 = c.invoke(1.0, &[]).unwrap();
        assert_eq!(c.active().len(), 0);
        assert_eq!(r2.finished, ids);
        assert!(r2.expired.is_empty());
        assert_eq!(r2.admitted.len(), 0);
        // Each retirement is reported by one invocation only.
        assert!(c.invoke(2.0, &[]).unwrap().finished.is_empty());
    }

    #[test]
    fn record_transfer_caps_the_delivery_and_reports_a_job_once() {
        let (mut c, g) = controller(4, OverloadPolicy::ShrinkDemands);
        let js = jobs(&g, 2, 2);
        c.invoke(0.0, &js).unwrap();
        let (id, demand) = (c.active()[0].job.id, c.active()[0].remaining);
        assert_eq!(
            c.record_transfer(id, 0.25 * demand),
            Some((0.25 * demand, false))
        );
        // An over-delivery moves only what is left, and that finishes the job.
        let left = c.active()[0].remaining;
        assert_eq!(c.record_transfer(id, demand), Some((left, true)));
        assert_eq!(c.active()[0].remaining, 0.0);
        // A finished job and an id the controller never saw take nothing.
        assert_eq!(c.record_transfer(id, 1.0), None);
        assert_eq!(c.record_transfer(JobId(999), 1.0), None);
        // The other job's ledger is untouched.
        let full = c.cfg.instance.demand_units(js[1].size_gb);
        assert_eq!(c.active()[1].remaining, full);
    }

    #[test]
    fn an_id_held_twice_is_an_invalid_model_and_a_retired_id_is_free() {
        let mut g = Graph::new();
        let ns = g.add_nodes(2);
        g.add_link_pair(ns[0], ns[1], 1);
        let mut c = Controller::new(g, ControllerConfig::paper(1));
        let job = |id| Job::new(JobId(id), 0.0, ns[0], ns[1], 300.0, 0.0, 2.0);
        let twice = |r: Result<InvocationResult, SolveError>| match r {
            Err(SolveError::InvalidModel(m)) => m.contains("id 7"),
            _ => false,
        };
        assert!(twice(c.invoke(0.0, &[job(7), job(7)])));
        c.invoke(0.0, &[job(7)]).unwrap();
        // Held across a period, the id is still taken.
        assert!(twice(c.invoke(1.0, &[job(7)])));
        // A refused batch retires nothing, not even the job it would expire.
        assert!(c.invoke(2.0, &[job(8), job(8)]).is_err());
        assert_eq!(c.active().len(), 1);
        // Expired at 2.0, its id is free again.
        let r = c.invoke(2.0, &[job(7)]).unwrap();
        assert_eq!((r.expired, r.admitted), (vec![JobId(7)], vec![JobId(7)]));
    }

    #[test]
    fn window_elapsed_expires_the_job_in_the_invocation_that_drops_it() {
        let mut g = Graph::new();
        let ns = g.add_nodes(2);
        g.add_link_pair(ns[0], ns[1], 1);
        let mut c = Controller::new(g, ControllerConfig::paper(1));
        let job = Job::new(JobId(7), 0.0, ns[0], ns[1], 300.0, 0.0, 2.0);
        assert!(c.invoke(0.0, &[job]).unwrap().expired.is_empty());
        // At 1.0 a whole slice of window is left; at 2.0 none is.
        assert!(c.invoke(1.0, &[]).unwrap().expired.is_empty());
        let r = c.invoke(2.0, &[]).unwrap();
        assert_eq!(r.expired, [JobId(7)]);
        assert!(r.finished.is_empty() && c.active().is_empty());
    }

    #[test]
    fn reject_policy_rejects_under_overload() {
        // Tight network: 2 nodes, 1 wavelength. Five 2-unit jobs on a
        // window that carries 4: the search tries the prefixes 5, 0, 2 and
        // 3 and keeps 2.
        let mut g = Graph::new();
        let ns = g.add_nodes(2);
        g.add_link_pair(ns[0], ns[1], 1);
        let cfg = {
            let mut c = ControllerConfig::paper(1);
            c.policy = OverloadPolicy::Reject;
            c
        };
        let mut c = Controller::new(g, cfg);
        let reqs: Vec<Job> = (0..5)
            .map(|i| Job::new(JobId(i), 0.0, ns[0], ns[1], 300.0, 0.0, 4.0))
            .collect();
        let built = crate::instance::tests::BUILDS.with(|n| n.get());
        let r = c.invoke(0.0, &reqs).unwrap();
        let built = crate::instance::tests::BUILDS.with(|n| n.get()) - built;
        assert_eq!((built, r.admitted.len(), r.rejected.len()), (4, 2, 3));
        assert!(r.z_star >= 1.0, "admitted set must be feasible");
        assert_eq!(c.active().len(), r.admitted.len());
        // The empty prefix has no LP, so the invocation's work is three
        // Stage-1 trials plus Stage 2: the trials it did not keep count as
        // much as the one it did.
        assert_eq!(r.stats.solves, 4, "{:?}", r.stats);
        assert_eq!(c.stats().solves, 4);
    }

    #[test]
    fn extend_policy_extends_under_overload() {
        let mut g = Graph::new();
        let ns = g.add_nodes(2);
        g.add_link_pair(ns[0], ns[1], 1);
        let cfg = {
            let mut c = ControllerConfig::paper(1);
            c.policy = OverloadPolicy::ExtendDeadlines;
            c
        };
        let mut c = Controller::new(g, cfg);
        let reqs: Vec<Job> = (0..3)
            .map(|i| Job::new(JobId(i), 0.0, ns[0], ns[1], 300.0, 0.0, 4.0))
            .collect();
        let r = c.invoke(0.0, &reqs).unwrap();
        assert!(r.extension > 0.0, "overload must extend deadlines");
        // The controller schedules against the extended ends from here on,
        // and still knows what each job asked for.
        for a in c.active() {
            assert!(a.job.end > 4.0, "{a:?}");
            assert_eq!(a.requested_end, 4.0);
            assert!(a.on_time(4.0) && !a.on_time(5.0));
        }
        // A second overloaded period extends again; the carried jobs keep
        // the end they submitted, the newcomer gets its own.
        let late = Job::new(JobId(9), 1.0, ns[0], ns[1], 300.0, 1.0, 3.5);
        let r2 = c.invoke(1.0, &[late]).unwrap();
        assert!(r2.extension > 0.0);
        let ends: Vec<f64> = c.active().iter().map(|a| a.requested_end).collect();
        assert_eq!(ends, [4.0, 4.0, 4.0, 3.5]);
        // With extended deadlines the whole demand fits.
        let total: f64 = (0..r.instance.num_jobs())
            .map(|i| {
                r.schedule
                    .transferred(&r.instance, i)
                    .min(r.instance.demands[i])
            })
            .sum();
        assert!((total - r.instance.total_demand()).abs() < 1e-6);
    }

    #[test]
    fn every_stage1_starts_cold_and_stats_accumulate() {
        // Every period builds a new LP over the job set and solves Stage 1
        // on it cold; Stage 2 enters from Stage 1's optimum. So a period
        // with jobs is two solves, one accepted warm start (Stage 2's) and
        // no refused one, however the job set changed since the last.
        for policy in [
            OverloadPolicy::Reject,
            OverloadPolicy::ShrinkDemands,
            OverloadPolicy::ExtendDeadlines,
        ] {
            let (mut c, g) = controller(4, policy);
            let arrivals = WorkloadGenerator::new(WorkloadConfig {
                num_jobs: 36,
                seed: 5,
                arrival: ArrivalModel::Poisson { rate: 3.0 },
                window: (2.0, 5.0),
                ..Default::default()
            })
            .generate(&g);
            let mut lifetime = SolveStats::default();
            let mut periods_with_arrivals = 0;
            for period in 1..=12u32 {
                let now = f64::from(period);
                let new: Vec<Job> = arrivals
                    .iter()
                    .filter(|j| j.arrival > now - 1.0 && j.arrival <= now)
                    .cloned()
                    .collect();
                periods_with_arrivals += usize::from(!new.is_empty());
                let r = c.invoke(now, &new).unwrap();
                assert!(r.instance.num_jobs() > 0, "{policy:?} period {period}");
                assert!(r.z_star >= 1.0, "{policy:?} period {period}: overloaded");
                let s = &r.stats;
                assert_eq!(
                    (s.solves, s.warm_starts_accepted, s.warm_start_fallbacks),
                    (2, 1, 0),
                    "{policy:?} period {period}: {s:?}"
                );
                // Lifetime counters accumulate across invocations.
                lifetime.merge(s);
                assert_eq!(c.stats().solves, lifetime.solves, "{policy:?}");
                assert_eq!(c.stats().iterations, lifetime.iterations, "{policy:?}");
            }
            assert!(periods_with_arrivals >= 10, "{periods_with_arrivals}");
        }
    }

    #[test]
    fn an_invocation_is_one_instance_and_two_solves_under_every_policy() {
        // Not overloaded, so every policy schedules what arrived: one
        // instance over the job set, Stage 1 and Stage 2 on its one LP. The
        // overload test of `Reject` and `ExtendDeadlines` is that Stage 1,
        // not a solve (and a build) of its own in front of it.
        for policy in [
            OverloadPolicy::Reject,
            OverloadPolicy::ShrinkDemands,
            OverloadPolicy::ExtendDeadlines,
        ] {
            let (mut c, g) = controller(4, policy);
            let js = jobs(&g, 6, 1);
            let built = crate::instance::tests::BUILDS.with(|n| n.get());
            let r = c.invoke(0.0, &js).unwrap();
            let built = crate::instance::tests::BUILDS.with(|n| n.get()) - built;
            assert!(r.z_star >= 1.0, "{policy:?}: workload must not overload");
            assert_eq!(r.admitted.len(), 6, "{policy:?}");
            assert_eq!(built, 1, "{policy:?}: instances built");
            assert_eq!(r.stats.solves, 2, "{policy:?}: {:?}", r.stats);
            assert_eq!(c.stats().solves, 2, "{policy:?}");
        }
    }

    #[test]
    fn extend_policy_computes_each_pair_once() {
        // Two overloaded periods over the same endpoint pair: RET schedules
        // over the controller's path cache, which ends up holding the
        // distinct pairs and nothing else.
        let mut g = Graph::new();
        let ns = g.add_nodes(2);
        g.add_link_pair(ns[0], ns[1], 1);
        let mut cfg = ControllerConfig::paper(1);
        cfg.policy = OverloadPolicy::ExtendDeadlines;
        let mut c = Controller::new(g, cfg);
        for period in 0..2u32 {
            let now = f64::from(period);
            let reqs: Vec<Job> = (0..3)
                .map(|i| {
                    Job::new(
                        JobId(3 * period + i),
                        now,
                        ns[0],
                        ns[1],
                        300.0,
                        now,
                        now + 4.0,
                    )
                })
                .collect();
            let r = c.invoke(now, &reqs).unwrap();
            assert!(r.extension > 0.0, "period {period} must overload");
            assert_eq!(c.pathset.cached_pairs(), 1, "period {period}");
        }
    }

    #[test]
    fn extend_policy_reports_ret_stats() {
        let mut g = Graph::new();
        let ns = g.add_nodes(2);
        g.add_link_pair(ns[0], ns[1], 1);
        let cfg = {
            let mut c = ControllerConfig::paper(1);
            c.policy = OverloadPolicy::ExtendDeadlines;
            c
        };
        let mut c = Controller::new(g, cfg);
        let reqs: Vec<Job> = (0..3)
            .map(|i| Job::new(JobId(i), 0.0, ns[0], ns[1], 300.0, 0.0, 4.0))
            .collect();
        let r = c.invoke(0.0, &reqs).unwrap();
        assert!(r.extension > 0.0);
        // The probe plus RET's bisection amount to several LP solves.
        assert!(
            r.stats.solves > 2,
            "RET work missing from stats: {:?}",
            r.stats
        );
        assert_eq!(c.stats().solves, r.stats.solves);
    }

    #[test]
    fn shrink_policy_keeps_full_demands() {
        // Four 2-unit jobs over a window that carries 4 units: the schedule
        // delivers less than was asked, and the ledger still asks for all
        // of it — what stays unmet expires with the window.
        let mut g = Graph::new();
        let ns = g.add_nodes(2);
        g.add_link_pair(ns[0], ns[1], 1);
        let mut c = Controller::new(g, ControllerConfig::paper(1));
        let reqs: Vec<Job> = (0..4)
            .map(|i| Job::new(JobId(i), 0.0, ns[0], ns[1], 300.0, 0.0, 4.0))
            .collect();
        let r = c.invoke(0.0, &reqs).unwrap();
        assert!(r.z_star < 1.0);
        let scheduled: f64 = (0..4).map(|i| r.schedule.transferred(&r.instance, i)).sum();
        assert!(scheduled < r.instance.total_demand() - 1e-9);
        for a in c.active() {
            assert_eq!(a.remaining, 2.0);
        }
    }
}
