//! Wavelength-assignment schedules and their metrics.
//!
//! A [`Schedule`] holds one value per [`VarMap`](crate::VarMap) variable —
//! fractional for LP solutions, integral for LPD/LPDAR — and computes the
//! quantities the paper's evaluation reports: per-job throughput `Z_i`
//! (eq. 6), weighted throughput (eq. 7), completion times, and capacity
//! feasibility.

use crate::instance::Instance;

/// A (possibly fractional) wavelength assignment for every decision
/// variable of an instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// Assignment per variable, aligned with the instance's [`crate::VarMap`].
    pub x: Vec<f64>,
}

impl Schedule {
    /// The all-zero schedule.
    pub fn zero(inst: &Instance) -> Self {
        Schedule {
            x: vec![0.0; inst.vars.len()],
        }
    }

    /// Wraps raw variable values (must be aligned with the instance).
    pub(crate) fn from_values(inst: &Instance, x: Vec<f64>) -> Self {
        assert_eq!(x.len(), inst.vars.len(), "schedule length mismatch");
        Schedule { x }
    }

    /// Total data moved for `job`, in demand units: `sum_{p,j} x`, every
    /// slice being a unit.
    pub fn transferred(&self, inst: &Instance, job: usize) -> f64 {
        let mut total = 0.0;
        for (var, _) in inst.vars.job_vars(job) {
            total += self.x[var];
        }
        total
    }

    /// The paper's per-job throughput `Z_i` (eq. 6).
    pub fn throughput(&self, inst: &Instance, job: usize) -> f64 {
        self.transferred(inst, job) / inst.demands[job]
    }

    /// The paper's weighted throughput (eq. 7):
    /// `sum_i Z_i D_i / sum_i D_i = total transferred / total demand`.
    pub fn weighted_throughput(&self, inst: &Instance) -> f64 {
        let total: f64 = (0..inst.num_jobs())
            .map(|i| self.transferred(inst, i))
            .sum();
        total / inst.total_demand()
    }

    /// Like [`Self::weighted_throughput`] but counting at most `D_i` per
    /// job — data beyond a job's demand is padding, not useful throughput.
    pub fn effective_throughput(&self, inst: &Instance) -> f64 {
        let total: f64 = (0..inst.num_jobs())
            .map(|i| self.transferred(inst, i).min(inst.demands[i]))
            .sum();
        total / inst.total_demand()
    }

    /// True if `job` receives its full demand (within `tol`).
    pub fn completes(&self, inst: &Instance, job: usize, tol: f64) -> bool {
        self.transferred(inst, job) + tol >= inst.demands[job]
    }

    /// Fraction of jobs completed in full.
    pub fn fraction_finished(&self, inst: &Instance, tol: f64) -> f64 {
        let done = (0..inst.num_jobs())
            .filter(|&i| self.completes(inst, i, tol))
            .count();
        done as f64 / inst.num_jobs().max(1) as f64
    }

    /// Completion time of `job`: the end time of the slice in which its
    /// cumulative transfer first reaches its demand. `None` when the job
    /// never completes under this schedule.
    pub fn completion_time(&self, inst: &Instance, job: usize, tol: f64) -> Option<f64> {
        let w = inst.vars.window(job);
        if w.is_empty() {
            return None;
        }
        let need = inst.demands[job] - tol;
        let mut acc = 0.0;
        for slice in w.clone() {
            for p in 0..inst.vars.paths_of(job) {
                acc += self.x[inst.vars.var(job, p, slice)];
            }
            if acc >= need {
                return Some(inst.grid.end_of(slice));
            }
        }
        None
    }

    /// Mean completion time over the jobs that complete (the paper's
    /// "average end time", Fig. 4, in slice units). `None` if no job
    /// completes.
    pub fn average_end_time(&self, inst: &Instance, tol: f64) -> Option<f64> {
        let times: Vec<f64> = (0..inst.num_jobs())
            .filter_map(|i| self.completion_time(inst, i, tol))
            .collect();
        if times.is_empty() {
            None
        } else {
            Some(times.iter().sum::<f64>() / times.len() as f64)
        }
    }

    /// Largest capacity violation over all (edge, slice) pairs; 0.0 when
    /// the schedule is link-feasible.
    pub fn max_capacity_violation(&self, inst: &Instance) -> f64 {
        let mut worst: f64 = 0.0;
        for ((e, _slice), vars) in inst.capacity_groups.iter() {
            let used: f64 = vars.iter().map(|&v| self.x[v as usize]).sum();
            let cap = inst.graph.wavelengths(wavesched_net::EdgeId(e)) as f64;
            worst = worst.max(used - cap);
        }
        worst
    }

    /// True if every assignment is a nonnegative integer (within `tol`).
    pub fn is_integral(&self, tol: f64) -> bool {
        self.x
            .iter()
            .all(|&v| v >= -tol && (v - v.round()).abs() <= tol)
    }

    /// The operational trim of paper Remark 2: where a job is assigned more
    /// than its demand, release the excess wavelengths (latest slices
    /// first) while keeping the job complete. Integral schedules stay
    /// integral; feasibility can only improve.
    pub fn trim_to_demand(&self, inst: &Instance) -> Schedule {
        let mut out = self.clone();
        for i in 0..inst.num_jobs() {
            let mut excess = out.transferred(inst, i) - inst.demands[i];
            if excess <= 0.0 {
                continue;
            }
            let w = inst.vars.window(i);
            'outer: for slice in w.clone().rev() {
                for p in 0..inst.vars.paths_of(i) {
                    // Less than one wavelength-slice left: nothing whole to
                    // release.
                    if excess < 1.0 {
                        break 'outer;
                    }
                    let var = inst.vars.var(i, p, slice);
                    // Whole wavelengths releasable without going below the
                    // demand.
                    let release = excess.floor().min(out.x[var]);
                    if release > 0.0 {
                        out.x[var] -= release;
                        excess -= release;
                    }
                }
            }
        }
        out
    }

    /// Mean link utilization over (edge, slice) pairs that carry any
    /// allowed path, as a fraction of wavelengths.
    pub fn mean_utilization(&self, inst: &Instance) -> f64 {
        if inst.capacity_groups.is_empty() {
            return 0.0;
        }
        let mut acc = 0.0;
        for ((e, _), vars) in inst.capacity_groups.iter() {
            let used: f64 = vars.iter().map(|&v| self.x[v as usize]).sum();
            let cap = inst.graph.wavelengths(wavesched_net::EdgeId(e)) as f64;
            acc += (used / cap).min(1.0);
        }
        acc / inst.capacity_groups.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceConfig;
    use wavesched_net::{abilene14, PathSet};
    use wavesched_workload::{Job, JobId};

    /// One job, Seattle -> Sunnyvale (adjacent), window [0, 4).
    fn one_job_instance() -> Instance {
        let (g, nodes) = abilene14(4);
        let job = Job::new(JobId(0), 0.0, nodes[0], nodes[1], 75.0, 0.0, 4.0);
        let cfg = InstanceConfig::paper(4); // 5 Gbps per lambda, 60 s slices
        let mut ps = PathSet::new(cfg.paths_per_job);
        Instance::build(&g, &[job], &cfg, &mut ps)
    }

    #[test]
    fn transferred_and_throughput() {
        let inst = one_job_instance();
        // Demand: 75 GB / (5 Gbps * 60 s / 8) = 75 / 37.5 = 2 units.
        assert!((inst.demands[0] - 2.0).abs() < 1e-9);
        let mut s = Schedule::zero(&inst);
        // Assign 1 wavelength on path 0 in slices 0 and 1.
        let w = inst.vars.window(0);
        s.x[inst.vars.var(0, 0, w.start)] = 1.0;
        s.x[inst.vars.var(0, 0, w.start + 1)] = 1.0;
        assert!((s.transferred(&inst, 0) - 2.0).abs() < 1e-9);
        assert!((s.throughput(&inst, 0) - 1.0).abs() < 1e-9);
        assert!(s.completes(&inst, 0, 1e-9));
        assert_eq!(s.completion_time(&inst, 0, 1e-9), Some(2.0));
        assert!(s.is_integral(1e-9));
        assert_eq!(s.fraction_finished(&inst, 1e-9), 1.0);
    }

    #[test]
    fn incomplete_job() {
        let inst = one_job_instance();
        let mut s = Schedule::zero(&inst);
        s.x[inst.vars.var(0, 0, 0)] = 0.5;
        assert!(!s.completes(&inst, 0, 1e-9));
        assert_eq!(s.completion_time(&inst, 0, 1e-9), None);
        assert!(!s.is_integral(1e-9));
        assert_eq!(s.average_end_time(&inst, 1e-9), None);
        assert!((s.weighted_throughput(&inst) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn capacity_violation_detected() {
        let inst = one_job_instance();
        let mut s = Schedule::zero(&inst);
        // 4 wavelengths available; assign 6 on one path/slice.
        s.x[inst.vars.var(0, 0, 0)] = 6.0;
        assert!((s.max_capacity_violation(&inst) - 2.0).abs() < 1e-9);
        s.x[inst.vars.var(0, 0, 0)] = 4.0;
        assert_eq!(s.max_capacity_violation(&inst), 0.0);
    }

    #[test]
    fn trim_releases_excess_only() {
        let inst = one_job_instance();
        let mut s = Schedule::zero(&inst);
        for j in inst.vars.window(0) {
            s.x[inst.vars.var(0, 0, j)] = 4.0; // 16 units vs demand 2
        }
        let t = s.trim_to_demand(&inst);
        assert!(t.completes(&inst, 0, 1e-9));
        assert!((t.transferred(&inst, 0) - 2.0).abs() < 1e-9);
        assert!(t.is_integral(1e-9));
        // Early slices keep their assignment (trim works backwards).
        assert!(t.x[inst.vars.var(0, 0, 0)] > 0.0);
        // A schedule without excess is untouched.
        let t2 = t.trim_to_demand(&inst);
        assert_eq!(t.x, t2.x);
    }

    #[test]
    fn effective_caps_overdelivery() {
        let inst = one_job_instance();
        let mut s = Schedule::zero(&inst);
        for j in inst.vars.window(0) {
            s.x[inst.vars.var(0, 0, j)] = 4.0; // far more than demand 2
        }
        assert!(s.weighted_throughput(&inst) > 1.0);
        assert!((s.effective_throughput(&inst) - 1.0).abs() < 1e-9);
    }
}
