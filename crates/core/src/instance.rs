//! A scheduling instance: network + jobs + allowed paths + the variable
//! enumeration shared by all three formulations.
//!
//! Every formulation in the paper optimizes over the same decision
//! variables `x_i(p, j)` — the bandwidth (number of wavelengths) assigned
//! to job `i` on allowed path `p` during slice `j`. [`VarMap`] enumerates
//! exactly the variables that may be nonzero (eq. 4 zeroes everything
//! outside the job's window), and [`Instance`] carries the data every
//! formulation needs: normalized demands, the allowed paths, the time
//! grid, and the (edge, slice) capacity groups ([`CapacityGroups`]).
//!
//! Instances share, not copy, the network (one `Arc<Graph>` per controller,
//! RET search or column-generation master) and the [`PathSet`]'s paths;
//! [`VarMap::key`] names a column in all.

use crate::timegrid::TimeGrid;
use std::ops::Range;
use std::sync::Arc;
use wavesched_lp::SolveError;
use wavesched_net::{EdgeId, Graph, Path, PathSet};
use wavesched_workload::{Job, JobId};

/// Instance-construction parameters.
#[derive(Debug, Clone)]
pub struct InstanceConfig {
    /// Allowed paths per job (`k` shortest); the paper uses 4–8.
    pub paths_per_job: usize,
    /// Wavelengths per link — used for demand normalization; the
    /// per-wavelength rate is [`LINK_GBPS`](Self::LINK_GBPS)` / wavelengths`
    /// (capacity held constant as wavelengths vary, as in Figs. 1–2).
    pub wavelengths: u32,
}

impl InstanceConfig {
    /// Aggregate link rate in Gbit/s (20 in all the paper's experiments).
    pub const LINK_GBPS: f64 = 20.0;
    /// Seconds per unit slice.
    pub const SLICE_SECS: f64 = 60.0;

    /// The paper's setup with `w` wavelengths per 20 Gbps link and 4 paths
    /// per job.
    pub fn paper(w: u32) -> Self {
        InstanceConfig {
            paths_per_job: 4,
            wavelengths: w,
        }
    }

    /// Normalized demand units (wavelength·slices, the `D_i` of the
    /// formulations) for a file of `size_gb` gigabytes. The paper normalizes
    /// "by the capacity per wavelength": one unit is what one wavelength of
    /// a [`LINK_GBPS`](Self::LINK_GBPS) link moves in one slice.
    ///
    /// # Panics
    /// Panics if `wavelengths` is zero.
    pub fn demand_units(&self, size_gb: f64) -> f64 {
        assert!(self.wavelengths > 0, "a link needs at least one wavelength");
        size_gb / (Self::LINK_GBPS / self.wavelengths as f64 * Self::SLICE_SECS / 8.0)
    }

    /// An entry point's answer to no paths or no wavelengths, where
    /// [`PathSet::new`] and [`demand_units`](Self::demand_units) panic: a
    /// [`SolveError::InvalidModel`] naming the field that is zero.
    pub fn check(&self) -> Result<(), SolveError> {
        let zero = if self.paths_per_job == 0 {
            "paths_per_job"
        } else if self.wavelengths == 0 {
            "wavelengths"
        } else {
            return Ok(());
        };
        Err(SolveError::InvalidModel(format!("{zero} must be positive")))
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
    /// Per job: its id.
    ids: Vec<JobId>,
    /// Per job: the Yen rank of each allowed path, in path order.
    ranks: Vec<Vec<u32>>,
    /// Per job: allowed slice window.
    windows: Vec<Range<usize>>,
    total: usize,
}

impl VarMap {
    fn build(ids: Vec<JobId>, windows: Vec<Range<usize>>, ranks: Vec<Vec<u32>>) -> Self {
        let mut job_offsets = Vec::with_capacity(windows.len());
        let mut total = 0usize;
        for (w, r) in windows.iter().zip(&ranks) {
            job_offsets.push(total);
            total += w.len() * r.len();
        }
        VarMap {
            job_offsets,
            ids,
            ranks,
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
        assert!(path < self.paths_of(job), "path index out of range");
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
                while self.windows[j].is_empty() || self.paths_of(j) == 0 {
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

    /// The identity of a variable that holds across instances: its job's
    /// id, the Yen rank of its path among the job's endpoint pair's paths,
    /// and its absolute slice. Two instances over the same jobs and path
    /// cache give a column the same key wherever both have it.
    pub fn key(&self, var: usize) -> (JobId, usize, usize) {
        let (job, path, slice) = self.triple(var);
        (self.ids[job], self.ranks[job][path] as usize, slice)
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

    /// Iterates `(var, slice)` over one job's variables, in variable
    /// order: path by path over the job's window.
    pub(crate) fn job_vars(&self, job: usize) -> impl Iterator<Item = (usize, usize)> {
        self.job_range(job).zip(self.window(job).cycle())
    }

    /// The allowed slice window of a job.
    pub fn window(&self, job: usize) -> Range<usize> {
        self.windows[job].clone()
    }

    /// Number of allowed paths of a job.
    pub fn paths_of(&self, job: usize) -> usize {
        self.ranks[job].len()
    }

    /// Iterates `(var, job, path, slice)` over all variables.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, usize, usize)> + '_ {
        (0..self.num_jobs()).flat_map(move |job| {
            let w = self.windows[job].clone();
            let base = self.job_offsets[job];
            let wl = w.len();
            (0..self.paths_of(job)).flat_map(move |p| {
                let w = w.clone();
                w.enumerate()
                    .map(move |(off, slice)| (base + p * wl + off, job, p, slice))
            })
        })
    }
}

/// The capacity groups of eq. 3: for every (edge, slice) pair some item
/// crosses — a variable of an [`Instance`], a pool column of the
/// column-generation master — the items crossing it.
///
/// One flat index: group `g` is `keys[g]`, an `(edge index, slice)` pair,
/// with members `items[ptr[g]..ptr[g + 1]]`. Keys ascend by (edge, slice)
/// and members ascend within a group. That order is a contract: capacity
/// rows are laid out in it, so every LP row index, pivot and pinned digest
/// depends on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapacityGroups {
    keys: Vec<(u32, u32)>,
    /// `keys.len() + 1` offsets into `items`.
    ptr: Vec<u32>,
    items: Vec<u32>,
}

impl CapacityGroups {
    /// Groups the crossings of consecutively numbered items given as runs:
    /// a run `(window, edges)` holds one item per slice of `window`,
    /// numbered on from the previous run's last, each crossing every edge
    /// of `edges`. Windows lie in `slices`; edge indexes are below
    /// `num_edges`. `runs` is walked twice.
    ///
    /// Two stable counting passes, taken in item order — the items by
    /// slice, then their crossings by edge — leave the crossings sorted by
    /// (edge, slice) with items ascending within a key. Time and memory
    /// are O(crossings + edges + slices), in a fixed number of allocations,
    /// whatever the slice indexes' magnitude.
    pub(crate) fn from_runs<'a>(
        slices: Range<usize>,
        num_edges: usize,
        runs: impl Iterator<Item = (Range<usize>, &'a [EdgeId])> + Clone,
    ) -> Self {
        let first = slices.start;
        let mut by_slice = vec![0u32; slices.len()];
        let mut num_runs = 0;
        for (window, _) in runs.clone() {
            for slice in window {
                by_slice[slice - first] += 1;
            }
            num_runs += 1;
        }
        let num_items = into_starts(by_slice.iter_mut());

        // Pass 1: the items by slice, each as its run. Each bucket's cursor
        // ends at the next one's start, so `by_slice[s]` then ends bucket `s`.
        let mut by_slice_runs = vec![0u32; num_items as usize];
        let mut run_table = Vec::with_capacity(num_runs);
        let mut item = 0u32;
        for (run, (window, edges)) in runs.enumerate() {
            let offset = (window.start - first) as u32;
            run_table.push(ItemRun {
                edges,
                item,
                offset,
            });
            for slice in window {
                let at = &mut by_slice[slice - first];
                by_slice_runs[*at as usize] = run as u32;
                *at += 1;
                item += 1;
            }
        }

        // Crossings and keys per edge: a key per slice the edge is crossed
        // in, the length of the union of its runs' windows, swept in
        // ascending window start (a run's first item sits in its start
        // slice's bucket).
        let mut tally = vec![EdgeTally::default(); num_edges];
        let mut lo = 0;
        for (offset, &hi) in by_slice.iter().enumerate() {
            let offset = offset as u32;
            for &r in &by_slice_runs[lo as usize..hi as usize] {
                let run = &run_table[r as usize];
                if run.offset != offset {
                    continue;
                }
                let next = run_table.get(r as usize + 1).map_or(item, |n| n.item);
                let end = offset + (next - run.item);
                for e in run.edges {
                    let t = &mut tally[e.index()];
                    t.crossings += end - offset;
                    let from = t.reach.max(offset);
                    if end > from {
                        t.keys += end - from;
                        t.reach = end;
                    }
                }
            }
            lo = hi;
        }
        let num_crossings = into_starts(tally.iter_mut().map(|t| &mut t.crossings));
        let groups = into_starts(tally.iter_mut().map(|t| &mut t.keys)) as usize;

        // Pass 2, by edge. Each edge reaches its slices in ascending order,
        // so a key starts at the edge's first crossing at a slice.
        for t in &mut tally {
            t.reach = u32::MAX;
        }
        let mut keys = vec![(0u32, 0u32); groups];
        let mut ptr = vec![0u32; groups + 1];
        let mut items = vec![0u32; num_crossings as usize];
        let mut lo = 0;
        for (offset, &hi) in by_slice.iter().enumerate() {
            let offset = offset as u32;
            for &r in &by_slice_runs[lo as usize..hi as usize] {
                let run = &run_table[r as usize];
                let item = run.item + (offset - run.offset);
                for e in run.edges {
                    let t = &mut tally[e.index()];
                    items[t.crossings as usize] = item;
                    if t.reach != offset {
                        t.reach = offset;
                        keys[t.keys as usize] = (e.0, (first + offset as usize) as u32);
                        ptr[t.keys as usize] = t.crossings;
                        t.keys += 1;
                    }
                    t.crossings += 1;
                }
            }
            lo = hi;
        }
        ptr[groups] = num_crossings;
        CapacityGroups { keys, ptr, items }
    }

    /// Number of groups — of capacity rows.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when nothing crosses any edge.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Iterates `((edge index, slice), members)` by ascending key.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = ((u32, u32), &[u32])> + '_ {
        self.keys
            .iter()
            .zip(self.ptr.windows(2))
            .map(|(&key, w)| (key, &self.items[w[0] as usize..w[1] as usize]))
    }
}

/// One edge's counters in [`CapacityGroups::from_runs`]: counts, then the
/// second pass's cursors.
#[derive(Clone, Copy, Default)]
struct EdgeTally {
    /// Crossings of the edge; then where its next crossing goes.
    crossings: u32,
    /// Keys of the edge; then where its next key goes.
    keys: u32,
    /// One past the last slice offset its runs cover so far; then the
    /// slice offset of its last key.
    reach: u32,
}

/// A run of items as [`CapacityGroups::from_runs`] reads it back.
struct ItemRun<'a> {
    edges: &'a [EdgeId],
    /// The run's first item, and the slice offset it is at.
    item: u32,
    offset: u32,
}

/// Turns per-bucket counts into bucket starts, in place; returns the
/// total.
fn into_starts<'a>(counts: impl Iterator<Item = &'a mut u32>) -> u32 {
    let mut start = 0;
    for c in counts {
        (*c, start) = (start, start + *c);
    }
    start
}

/// A fully-prepared scheduling instance.
#[derive(Debug, Clone)]
pub struct Instance {
    /// The network, shared with every instance built from the same handle.
    pub graph: Arc<Graph>,
    /// The jobs being scheduled.
    pub jobs: Vec<Job>,
    /// Normalized demand `D_i` per job (wavelength·slices).
    pub demands: Vec<f64>,
    /// Allowed paths per job, the path cache's own; [`VarMap::key`] names
    /// each by its Yen rank.
    pub paths: Vec<Vec<Path>>,
    /// The time grid covering all windows.
    pub grid: TimeGrid,
    /// Decision-variable enumeration.
    pub vars: VarMap,
    /// For every (edge, slice) touched by an allowed path: the variables
    /// crossing it.
    pub capacity_groups: CapacityGroups,
}

impl Instance {
    /// Builds an instance from a network and jobs. Demands are normalized
    /// from job sizes with `cfg`; paths come from `pathset`. The network is
    /// copied once, into the handle the instance shares.
    ///
    /// # Panics
    /// Panics if `cfg.wavelengths` is zero ([`InstanceConfig::demand_units`]).
    pub fn build(graph: &Graph, jobs: &[Job], cfg: &InstanceConfig, pathset: &mut PathSet) -> Self {
        let demands: Vec<f64> = jobs.iter().map(|j| cfg.demand_units(j.size_gb)).collect();
        Self::assemble(&Arc::new(graph.clone()), jobs, demands, pathset, None)
    }

    /// Builds an instance on a shared network with explicit normalized
    /// demands (the controller schedules what in-flight jobs have left).
    /// Job `i` is allowed the Yen ranks `ranks[i]` of `pathset`'s paths, in
    /// that order — a column-generation pool's — or, with `None`, all.
    pub(crate) fn assemble(
        graph: &Arc<Graph>,
        jobs: &[Job],
        demands: Vec<f64>,
        pathset: &mut PathSet,
        ranks: Option<&[Vec<u32>]>,
    ) -> Self {
        assert_eq!(jobs.len(), demands.len());
        #[cfg(test)]
        tests::BUILDS.with(|n| n.set(n.get() + 1));
        let grid = TimeGrid::covering(jobs);

        let mut paths: Vec<Vec<Path>> = Vec::with_capacity(jobs.len());
        let mut job_ranks = Vec::with_capacity(jobs.len());
        for (i, j) in jobs.iter().enumerate() {
            // Explicit ranks need the search only up to the highest of them.
            let yen = match ranks {
                Some(r) => {
                    let upto = r[i].iter().max().map_or(0, |&k| k as usize + 1);
                    pathset.paths_upto(graph, j.src, j.dst, upto)
                }
                None => pathset.paths(graph, j.src, j.dst),
            };
            let r = ranks.map_or_else(|| (0..yen.len() as u32).collect(), |r| r[i].clone());
            paths.push(r.iter().map(|&k| yen[k as usize].clone()).collect());
            job_ranks.push(r);
        }
        let ids = jobs.iter().map(|j| j.id).collect();
        let windows = jobs
            .iter()
            .map(|j| grid.window_slices(j.start, j.end))
            .collect();
        let vars = VarMap::build(ids, windows, job_ranks);

        // Variables run job by job, path-major then slice: one run of
        // consecutive variables per (job, path), over the job's window.
        let capacity_groups = CapacityGroups::from_runs(
            grid.first_slice()..grid.num_slices(),
            graph.num_edges(),
            paths.iter().enumerate().flat_map(|(job, ps)| {
                let window = vars.window(job);
                ps.iter().map(move |p| (window.clone(), p.edges()))
            }),
        );

        Instance {
            graph: Arc::clone(graph),
            jobs: jobs.to_vec(),
            demands,
            paths,
            grid,
            vars,
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
pub(crate) mod tests;
