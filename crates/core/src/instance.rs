//! A scheduling instance: network + jobs + allowed paths + the variable
//! enumeration shared by all three formulations.
//!
//! Every formulation in the paper optimizes over the same decision
//! variables `x_i(p, j)` — the bandwidth (number of wavelengths) assigned
//! to job `i` on allowed path `p` during slice `j`. [`VarMap`] enumerates
//! exactly the variables that may be nonzero (eq. 4 zeroes everything
//! outside the job's window), and [`Instance`] carries the data every
//! builder needs: normalized demands, path edge lists, the time grid, and
//! the (edge, slice) capacity groups.

use crate::timegrid::TimeGrid;
use std::collections::BTreeMap;
use std::ops::Range;
use wavesched_net::{Graph, Path, PathSet};
use wavesched_workload::{normalized_demand, Job, LinkRate};

/// Instance-construction parameters.
#[derive(Debug, Clone)]
pub struct InstanceConfig {
    /// Allowed paths per job (`k` shortest); the paper uses 4–8.
    pub paths_per_job: usize,
    /// Aggregate link rate in Gbit/s (20 in all the paper's experiments).
    pub link_gbps: f64,
    /// Wavelengths per link — used for demand normalization; the
    /// per-wavelength rate is `link_gbps / wavelengths` (capacity held
    /// constant as wavelengths vary, as in Figs. 1–2).
    pub wavelengths: u32,
    /// Seconds per unit slice.
    pub slice_secs: f64,
}

impl InstanceConfig {
    /// The paper's setup with `w` wavelengths per 20 Gbps link, 4 paths per
    /// job and 60-second slices.
    pub fn paper(w: u32) -> Self {
        InstanceConfig {
            paths_per_job: 4,
            link_gbps: 20.0,
            wavelengths: w,
            slice_secs: 60.0,
        }
    }

    /// Normalized demand units for a file of `size_gb` gigabytes.
    pub fn demand_units(&self, size_gb: f64) -> f64 {
        normalized_demand(
            size_gb,
            LinkRate {
                total_gbps: self.link_gbps,
                wavelengths: self.wavelengths,
            },
            self.slice_secs,
        )
    }
}

/// Enumeration of the `(job, path, slice)` decision variables.
///
/// Variables of a job are contiguous, ordered path-major then slice, so a
/// variable index can be computed arithmetically from `(job, path, slice)`.
#[derive(Debug, Clone)]
pub struct VarMap {
    /// Per job: index of its first variable.
    job_offsets: Vec<usize>,
    /// Per job: number of allowed paths.
    num_paths: Vec<usize>,
    /// Per job: allowed slice window.
    windows: Vec<Range<usize>>,
    total: usize,
}

impl VarMap {
    fn build(windows: Vec<Range<usize>>, num_paths: Vec<usize>) -> Self {
        let mut job_offsets = Vec::with_capacity(windows.len());
        let mut total = 0usize;
        for (w, &np) in windows.iter().zip(&num_paths) {
            job_offsets.push(total);
            total += w.len() * np;
        }
        VarMap {
            job_offsets,
            num_paths,
            windows,
            total,
        }
    }

    /// Total number of variables.
    pub fn len(&self) -> usize {
        self.total
    }

    /// True when no job has any schedulable variable.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of jobs covered.
    pub fn num_jobs(&self) -> usize {
        self.job_offsets.len()
    }

    /// The variable index of `(job, path, slice)`.
    ///
    /// # Panics
    /// Panics if the slice is outside the job's window or the path index is
    /// out of range.
    pub fn var(&self, job: usize, path: usize, slice: usize) -> usize {
        let w = &self.windows[job];
        assert!(path < self.num_paths[job], "path index out of range");
        assert!(w.contains(&slice), "slice {slice} outside window {w:?}");
        self.job_offsets[job] + path * w.len() + (slice - w.start)
    }

    /// The `(job, path, slice)` of a variable index.
    pub fn triple(&self, var: usize) -> (usize, usize, usize) {
        debug_assert!(var < self.total);
        // Binary search the owning job.
        let job = match self.job_offsets.binary_search(&var) {
            Ok(j) => {
                // Offsets of empty jobs collide; take the last job starting here
                // that has variables.
                let mut j = j;
                while self.windows[j].is_empty() || self.num_paths[j] == 0 {
                    j += 1;
                }
                j
            }
            Err(j) => j - 1,
        };
        let w = &self.windows[job];
        let rel = var - self.job_offsets[job];
        let path = rel / w.len();
        let slice = w.start + rel % w.len();
        (job, path, slice)
    }

    /// Variable index range of one job.
    pub fn job_range(&self, job: usize) -> Range<usize> {
        let start = self.job_offsets[job];
        let end = if job + 1 < self.job_offsets.len() {
            self.job_offsets[job + 1]
        } else {
            self.total
        };
        start..end
    }

    /// The allowed slice window of a job.
    pub fn window(&self, job: usize) -> Range<usize> {
        self.windows[job].clone()
    }

    /// Number of allowed paths of a job.
    pub fn paths_of(&self, job: usize) -> usize {
        self.num_paths[job]
    }

    /// Iterates `(var, job, path, slice)` over all variables.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, usize, usize)> + '_ {
        (0..self.num_jobs()).flat_map(move |job| {
            let w = self.windows[job].clone();
            let base = self.job_offsets[job];
            let wl = w.len();
            (0..self.num_paths[job]).flat_map(move |p| {
                let w = w.clone();
                w.enumerate()
                    .map(move |(off, slice)| (base + p * wl + off, job, p, slice))
            })
        })
    }
}

/// A fully-prepared scheduling instance.
#[derive(Debug, Clone)]
pub struct Instance {
    /// The network (owned snapshot).
    pub graph: Graph,
    /// The jobs being scheduled.
    pub jobs: Vec<Job>,
    /// Normalized demand `D_i` per job (wavelength·slices).
    pub demands: Vec<f64>,
    /// Allowed paths per job.
    pub paths: Vec<Vec<Path>>,
    /// The time grid covering all windows.
    pub grid: TimeGrid,
    /// Decision-variable enumeration.
    pub vars: VarMap,
    /// The configuration the instance was built with.
    pub config: InstanceConfig,
    /// For every (edge, slice) touched by an allowed path: the variables
    /// crossing it. Keys are `(edge index, slice)`.
    pub capacity_groups: BTreeMap<(u32, u32), Vec<u32>>,
}

impl Instance {
    /// Builds an instance from a network and jobs. Demands are normalized
    /// from job sizes with `cfg`; paths come from `pathset`.
    pub fn build(graph: &Graph, jobs: &[Job], cfg: &InstanceConfig, pathset: &mut PathSet) -> Self {
        let demands: Vec<f64> = jobs.iter().map(|j| cfg.demand_units(j.size_gb)).collect();
        Self::build_with_demands(graph, jobs, demands, cfg, pathset)
    }

    /// Builds an instance with explicit normalized demands (used by the
    /// periodic controller to schedule *remaining* demand of in-flight
    /// jobs).
    pub(crate) fn build_with_demands(
        graph: &Graph,
        jobs: &[Job],
        demands: Vec<f64>,
        cfg: &InstanceConfig,
        pathset: &mut PathSet,
    ) -> Self {
        let paths: Vec<Vec<Path>> = jobs
            .iter()
            .map(|j| pathset.paths(graph, j.src, j.dst).to_vec())
            .collect();
        Self::build_with_paths(graph, jobs, demands, cfg, paths)
    }

    /// Builds an instance with explicit per-job path lists instead of the
    /// Yen `PathSet` policy. This is how a converged column-generation
    /// pool materializes into a standard instance: the restricted master's
    /// active paths become the allowed paths, and every downstream
    /// consumer (schedules, LPD/LPDAR discretization, metrics) works
    /// unchanged.
    pub(crate) fn build_with_paths(
        graph: &Graph,
        jobs: &[Job],
        demands: Vec<f64>,
        cfg: &InstanceConfig,
        paths: Vec<Vec<Path>>,
    ) -> Self {
        assert_eq!(jobs.len(), demands.len());
        assert_eq!(jobs.len(), paths.len());
        #[cfg(test)]
        tests::BUILDS.with(|n| n.set(n.get() + 1));
        let grid = TimeGrid::covering(jobs);

        let windows: Vec<Range<usize>> = jobs
            .iter()
            .map(|j| grid.window_slices(j.start, j.end))
            .collect();
        let num_paths: Vec<usize> = paths.iter().map(|p| p.len()).collect();
        let vars = VarMap::build(windows, num_paths);

        let mut capacity_groups: BTreeMap<(u32, u32), Vec<u32>> = BTreeMap::new();
        for (var, job, p, slice) in vars.iter() {
            for &e in paths[job][p].edges() {
                capacity_groups
                    .entry((e.0, slice as u32))
                    .or_default()
                    .push(var as u32);
            }
        }

        Instance {
            graph: graph.clone(),
            jobs: jobs.to_vec(),
            demands,
            paths,
            grid,
            vars,
            config: cfg.clone(),
            capacity_groups,
        }
    }

    /// Number of jobs.
    pub fn num_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Sum of normalized demands.
    pub fn total_demand(&self) -> f64 {
        self.demands.iter().sum()
    }

    /// True when some job has no allowed path or an empty window — such a
    /// job can never be scheduled and makes `Z* = 0`.
    pub(crate) fn has_unschedulable_job(&self) -> bool {
        (0..self.num_jobs()).any(|i| self.paths[i].is_empty() || self.vars.window(i).is_empty())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    thread_local! {
        /// Instances built on this thread, for tests that hold a caller to
        /// one build per job set.
        pub(crate) static BUILDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }
    use wavesched_net::abilene14;
    use wavesched_workload::{JobId, WorkloadConfig, WorkloadGenerator};

    fn small_instance(n_jobs: usize) -> Instance {
        let (g, _) = abilene14(4);
        let jobs = WorkloadGenerator::new(WorkloadConfig {
            num_jobs: n_jobs,
            seed: 1,
            ..Default::default()
        })
        .generate(&g);
        let cfg = InstanceConfig::paper(4);
        let mut ps = PathSet::new(cfg.paths_per_job);
        Instance::build(&g, &jobs, &cfg, &mut ps)
    }

    #[test]
    fn varmap_roundtrip() {
        let inst = small_instance(8);
        for (var, job, p, slice) in inst.vars.iter() {
            assert_eq!(inst.vars.var(job, p, slice), var);
            assert_eq!(inst.vars.triple(var), (job, p, slice));
        }
        let count = inst.vars.iter().count();
        assert_eq!(count, inst.vars.len());
    }

    #[test]
    fn windows_respect_job_times() {
        let inst = small_instance(10);
        for (i, j) in inst.jobs.iter().enumerate() {
            let w = inst.vars.window(i);
            if !w.is_empty() {
                assert!(w.start as f64 >= j.start);
                assert!(inst.grid.end_of(w.end - 1) <= j.end);
            }
        }
    }

    #[test]
    fn capacity_groups_cover_paths() {
        let inst = small_instance(6);
        // Every variable must appear in exactly path-length capacity groups.
        let mut per_var = vec![0usize; inst.vars.len()];
        for vars in inst.capacity_groups.values() {
            for &v in vars {
                per_var[v as usize] += 1;
            }
        }
        for (var, job, p, _slice) in inst.vars.iter() {
            assert_eq!(
                per_var[var],
                inst.paths[job][p].len(),
                "var {var} appears in wrong number of capacity groups"
            );
        }
    }

    #[test]
    fn demands_normalized() {
        let inst = small_instance(5);
        let c = &inst.config;
        for (i, j) in inst.jobs.iter().enumerate() {
            let expect = j.size_gb * 8.0 / ((c.link_gbps / c.wavelengths as f64) * c.slice_secs);
            assert!((inst.demands[i] - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn grid_covers_all_windows() {
        let inst = small_instance(12);
        let max_end = inst.jobs.iter().map(|j| j.end).fold(0.0f64, f64::max);
        assert!(inst.grid.end_of(inst.grid.num_slices() - 1) >= max_end.floor());
    }

    #[test]
    fn empty_window_job_is_flagged() {
        let (g, nodes) = abilene14(4);
        // A job whose window is too short to contain a full slice.
        let job = Job::new(JobId(0), 0.0, nodes[0], nodes[1], 10.0, 0.3, 0.9);
        let cfg = InstanceConfig::paper(4);
        let mut ps = PathSet::new(cfg.paths_per_job);
        let inst = Instance::build(&g, &[job], &cfg, &mut ps);
        assert!(inst.has_unschedulable_job());
        assert_eq!(inst.vars.len(), 0);
    }
}
