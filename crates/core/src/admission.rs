//! Admission control by rejection — the paper's "action (i)" (footnote 1).
//!
//! Jobs are listed in priority order (administrative policy, priority,
//! request time, ...). A binary search finds the longest prefix that can be
//! admitted while every admitted job still meets its deadline, i.e. the
//! longest prefix with Stage-1 `Z* >= 1`. Adding a job can only lower `Z*`
//! (it adds demand under the same capacities), so the predicate is monotone
//! in the prefix length and binary search is exact.

use crate::builders::HeldLp;
use crate::instance::{Instance, InstanceConfig};
use crate::stage1::{open_stage1, Stage1Result};
use std::sync::Arc;
use wavesched_lp::{SolveError, SolveStats};
use wavesched_net::{Graph, PathSet};
use wavesched_workload::Job;

/// Result of prefix admission.
pub(crate) struct AdmissionOutcome {
    /// Number of candidates admitted (a prefix of the candidate list).
    pub(crate) admitted_prefix: usize,
    /// Stage-1 `Z*` of mandatory + admitted prefix.
    pub(crate) z_star: f64,
    /// The instance of mandatory + admitted prefix, its held LP and the
    /// Stage-1 optimum `z_star` was read from: the overload test *is* the
    /// scheduling pipeline's first stage, so the controller continues from
    /// here instead of building and solving the admitted set again.
    pub(crate) instance: Instance,
    pub(crate) lp: HeldLp,
    pub(crate) stage1: Stage1Result,
    /// Solver work of every trial the search tried and did not keep.
    pub(crate) discarded: SolveStats,
}

/// The instance over `mandatory` (at their remaining `mandatory_demands`)
/// followed by `admitted` (at their full demands).
pub(crate) fn instance_over(
    graph: &Arc<Graph>,
    mandatory: &[Job],
    mandatory_demands: &[f64],
    admitted: &[Job],
    cfg: &InstanceConfig,
    pathset: &mut PathSet,
) -> Instance {
    let jobs = [mandatory, admitted].concat();
    let mut demands = mandatory_demands.to_vec();
    demands.extend(admitted.iter().map(|j| cfg.demand_units(j.size_gb)));
    Instance::assemble(graph, &jobs, demands, pathset, None)
}

/// Admits the longest prefix of `candidates` (in priority order) such that
/// `mandatory + prefix` has `Z* >= 1`.
///
/// `mandatory` are previously-admitted, still-unfinished jobs whose
/// guarantees must be preserved; `mandatory_demands` are their *remaining*
/// normalized demands. If even the mandatory set alone is infeasible the
/// prefix is 0 and `z_star` reports the mandatory-only value. Paths come
/// from the caller's `pathset` (`cfg.paths_per_job` per endpoint pair), so
/// a controller pays Yen once per pair, not once per invocation.
pub(crate) fn admit_by_priority(
    graph: &Arc<Graph>,
    mandatory: &[Job],
    mandatory_demands: &[f64],
    candidates: &[Job],
    cfg: &InstanceConfig,
    pathset: &mut PathSet,
) -> Result<AdmissionOutcome, SolveError> {
    assert_eq!(mandatory.len(), mandatory_demands.len());

    // Every trial is a cold Stage 1 on a freshly opened LP.
    let mut try_prefix = |prefix: usize| -> Result<AdmissionOutcome, SolveError> {
        let admitted = &candidates[..prefix];
        let instance = instance_over(graph, mandatory, mandatory_demands, admitted, cfg, pathset);
        let (lp, stage1) = open_stage1(&instance)?;
        Ok(AdmissionOutcome {
            admitted_prefix: prefix,
            z_star: stage1.z_star,
            instance,
            lp,
            stage1,
            discarded: SolveStats::default(),
        })
    };

    // Fast paths.
    let all = try_prefix(candidates.len())?;
    if all.z_star >= 1.0 {
        return Ok(all);
    }
    let mut discarded = all.stage1.stats;
    let mut best = try_prefix(0)?;
    if best.z_star < 1.0 {
        return Ok(AdmissionOutcome { discarded, ..best });
    }

    // Binary search the boundary: `best` admissible, `hi` not.
    let mut hi = candidates.len();
    while hi - best.admitted_prefix > 1 {
        let trial = try_prefix((best.admitted_prefix + hi) / 2)?;
        if trial.z_star >= 1.0 {
            discarded.merge(&best.stage1.stats);
            best = trial;
        } else {
            discarded.merge(&trial.stage1.stats);
            hi = trial.admitted_prefix;
        }
    }
    Ok(AdmissionOutcome { discarded, ..best })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavesched_net::abilene14;
    use wavesched_workload::{JobId, WorkloadConfig, WorkloadGenerator};

    fn one_link_graph(w: u32) -> (Graph, Vec<wavesched_net::NodeId>) {
        let mut g = Graph::new();
        let ns = g.add_nodes(2);
        g.add_link_pair(ns[0], ns[1], w);
        (g, ns)
    }

    /// [`admit_by_priority`] over a fresh path cache.
    fn admit(
        g: &Graph,
        mandatory: &[Job],
        m_demand: &[f64],
        candidates: &[Job],
        cfg: &InstanceConfig,
    ) -> AdmissionOutcome {
        let (g, mut pathset) = (Arc::new(g.clone()), PathSet::new(cfg.paths_per_job));
        admit_by_priority(&g, mandatory, m_demand, candidates, cfg, &mut pathset).unwrap()
    }

    #[test]
    fn admits_all_when_light() {
        let (g, _) = abilene14(8);
        let jobs = WorkloadGenerator::new(WorkloadConfig {
            num_jobs: 4,
            seed: 2,
            size_gb: (1.0, 5.0),
            window: (16.0, 24.0),
            ..Default::default()
        })
        .generate(&g);
        let cfg = InstanceConfig::paper(8);
        let out = admit(&g, &[], &[], &jobs, &cfg);
        assert_eq!(out.admitted_prefix, 4);
        assert!(out.z_star >= 1.0);
    }

    #[test]
    fn admits_exact_prefix_on_single_link() {
        // 1 wavelength, 4-slice windows, each job needs 2 units: capacity
        // of the shared window is 4 units => exactly 2 jobs fit.
        let (g, ns) = one_link_graph(1);
        let cfg = InstanceConfig::paper(1); // 150 GB per unit
        let jobs: Vec<Job> = (0..5)
            .map(|i| Job::new(JobId(i), 0.0, ns[0], ns[1], 300.0, 0.0, 4.0))
            .collect();
        let out = admit(&g, &[], &[], &jobs, &cfg);
        assert_eq!(out.admitted_prefix, 2);
        assert!(out.z_star >= 1.0);
    }

    #[test]
    fn mandatory_jobs_crowd_out_candidates() {
        let (g, ns) = one_link_graph(1);
        let cfg = InstanceConfig::paper(1);
        // Mandatory job eats 3 of the 4 wavelength-slices.
        let mandatory = vec![Job::new(JobId(99), 0.0, ns[0], ns[1], 450.0, 0.0, 4.0)];
        let m_demand = vec![cfg.demand_units(450.0)];
        let candidates: Vec<Job> = (0..3)
            .map(|i| Job::new(JobId(i), 0.0, ns[0], ns[1], 150.0, 0.0, 4.0))
            .collect();
        let out = admit(&g, &mandatory, &m_demand, &candidates, &cfg);
        assert_eq!(out.admitted_prefix, 1);
    }

    #[test]
    fn infeasible_mandatory_admits_nothing() {
        let (g, ns) = one_link_graph(1);
        let cfg = InstanceConfig::paper(1);
        let mandatory = vec![Job::new(JobId(9), 0.0, ns[0], ns[1], 1200.0, 0.0, 4.0)];
        let m_demand = vec![cfg.demand_units(1200.0)];
        let candidates = vec![Job::new(JobId(0), 0.0, ns[0], ns[1], 150.0, 0.0, 4.0)];
        let out = admit(&g, &mandatory, &m_demand, &candidates, &cfg);
        assert_eq!(out.admitted_prefix, 0);
        assert!(out.z_star < 1.0);
    }

    #[test]
    fn empty_candidates() {
        let (g, _) = one_link_graph(2);
        let cfg = InstanceConfig::paper(2);
        let out = admit(&g, &[], &[], &[], &cfg);
        assert_eq!(out.admitted_prefix, 0);
        assert!(out.z_star.is_infinite());
    }
}
