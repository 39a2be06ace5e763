//! Delayed column generation over paths: the restricted master problem
//! and its pricing.
//!
//! The paper's formulations are time-expanded path-flow LPs whose column
//! count is (jobs × paths × slices); materializing every Yen path column up
//! front is what caps the solvable scale. Following the column-generation
//! structure documented by Ahani–Wiatr–Yuan for the same model family
//! ("Routing and Scheduling of Network Flows with Deadlines and Discrete
//! Capacity Allocation"), this module keeps only an *active* column pool:
//!
//! 1. seed the pool with each job's hop-shortest path, its Yen rank 0,
//! 2. solve the restricted master over the pool,
//! 3. price each job's out-of-pool Yen k-shortest paths against the
//!    optimal duals: a path column for `(job i, slice j)` improves the
//!    master iff its reduced cost is positive, i.e. iff its dual load
//!    `Σ_{e∈p} μ_{e,j}` is below the budget `c_ij − λ_i − tol` (a column's
//!    job-row coefficient is `LEN(j) = 1`),
//! 4. repeat until no job has an improving out-of-pool path.
//!
//! Yen ranks are computed on demand, in rank order, and only while a
//! later rank could still win: when no capacity dual is negative, a path's
//! load is at least zero, so no path beats the job's best budget (see
//! `CgMaster::price`).
//!
//! The path universe is the paper's: each job's `paths_per_job` Yen paths,
//! the same set the monolithic [`Instance`] build materializes; the pool
//! names a path by its rank there. When the loop terminates, the master
//! duals extended with zeros on the unmaterialized capacity rows are
//! dual-feasible within tolerance for every Yen column, so the restricted
//! optimum is the monolithic LP's optimum to tolerance.
//!
//! The master and its pool are the crate's internals: callers reach them
//! through
//! [`max_throughput_pipeline_colgen`](crate::pipeline::max_throughput_pipeline_colgen)
//! and [`solve_ret_colgen`](crate::ret::solve_ret_colgen).
//!
//! Everything here is serial and deterministically ordered (capacity rows
//! created in sorted `(edge, slice)` order and looked up per edge, duals read
//! straight from the solution, Yen's tie-broken searches in
//! `wavesched-net`), so runs are byte-reproducible.

use crate::builders::{expect_optimal, Form};
use crate::instance::{CapacityGroups, Instance, InstanceConfig};
use crate::timegrid::TimeGrid;
use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::Arc;
use wavesched_lp::{
    Col, NewColumn, NewRow, Objective, Problem, Row, Solution, SolveError, SolveStats,
    SolverSession, Status,
};
use wavesched_net::{EdgeId, Graph, Path, PathSet};
use wavesched_obs as obs;
use wavesched_workload::Job;

/// The column-generation path universe. There is one, the Yen k-shortest
/// paths, so nothing reads this: the type remains only because the
/// outside-in benchmark spells `PricerChoice::Exhaustive`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PricerChoice {
    /// Price each job's Yen k-shortest paths, the paper's path universe.
    #[default]
    Exhaustive,
}

/// The type of [`solve_ret_colgen`](crate::ret::solve_ret_colgen)'s `cg`
/// parameter. Has no effect, like `RetConfig::threads`: it remains only
/// because the outside-in benchmark passes it.
#[derive(Debug, Clone, Default)]
pub struct ColGenConfig {
    /// Always [`PricerChoice::Exhaustive`].
    pub pricer: PricerChoice,
}

/// Safety cap on price–resolve rounds per master form (stage 1, stage 2,
/// each RET probe, each growth step). A loop that has not priced out
/// within it is reported as a breakdown, never answered from a master that
/// was not priced to optimality.
const MAX_ROUNDS: usize = 50;

/// Reduced-cost tolerance: a column must beat the duals by more than this
/// to enter the pool.
const TOLERANCE: f64 = 1e-7;

/// Column-generation work counters (also mirrored into the `cg.*` obs
/// counters: `cg.rounds`, `cg.columns_added`, `cg.pricer_calls`,
/// `cg.pricing_ns`, `cg.master_lu_reuse_hits`, `cg.yen_paths`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CgStats {
    /// Price–resolve rounds run.
    pub rounds: u64,
    /// Master columns added after the seed.
    pub columns_added: u64,
    /// Pricing passes (one per round).
    pub pricer_calls: u64,
    /// Wall-clock nanoseconds spent pricing (reporting only).
    pub pricing_ns: u64,
    /// Master re-solves that entered through the factorization-reuse path
    /// (no `Lu::factor` at solve entry; column splices and capacity-row
    /// growth kept the carried factors valid).
    pub master_lu_reuse_hits: u64,
    /// Yen paths the master's path search computed: the ranks pricing
    /// asked for, at most `paths_per_job` a job's endpoint pair.
    pub yen_paths: u64,
}

/// One pool column: `(job, path index within the job's pool, slice)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PoolCol {
    job: u32,
    /// Index into the job's [`ColumnPool::ranks`].
    path: u32,
    slice: u32,
}

/// The restricted master's active `(job, path, slice)` columns.
///
/// Paths are append-only per job and columns are append-only globally, so
/// variable indices are **stable across rounds**: the master session's
/// basis after round `r` still addresses the same columns in round `r + 1`
/// (with new columns appended at the end), which is what lets every
/// pricing round, and every form the master is re-aimed at (Stage 2, RET's
/// probes and Quick-Finish), re-solve warm on the one session.
#[derive(Debug, Clone)]
pub(crate) struct ColumnPool {
    /// The Yen ranks of each job's active paths, in pool order.
    ranks: Vec<Vec<u32>>,
    /// The pool columns in master order.
    cols: Vec<PoolCol>,
}

/// The master's capacity rows, looked up by edge and then by slice: each
/// edge keeps the slices it has a row in as sorted runs of consecutive
/// slices, one row handle per slice. Memory is O(edges + rows) however long
/// the horizon; a lookup searches one edge's runs (one, as a rule) and
/// indexes into the run.
#[derive(Debug, Clone, PartialEq)]
struct CapRows {
    /// `runs[e]`: edge `e`'s runs in ascending slice order, disjoint and
    /// never adjacent (two runs that touch are merged), so two indexes over
    /// the same rows are equal.
    runs: Vec<Vec<Run>>,
}

/// Consecutive slices of one edge that all have a capacity row.
#[derive(Debug, Clone, PartialEq)]
struct Run {
    /// Slice of `rows[0]`.
    first: usize,
    /// Row of slice `first + k`, for each `k`.
    rows: Vec<Row>,
}

impl Run {
    /// One past the run's last slice.
    fn end(&self) -> usize {
        self.first + self.rows.len()
    }
}

impl CapRows {
    /// An index with no rows, over `edges` edges.
    fn new(edges: usize) -> Self {
        CapRows {
            runs: vec![Vec::new(); edges],
        }
    }

    /// The row of `(e, slice)`, if the master has one.
    fn get(&self, e: EdgeId, slice: usize) -> Option<Row> {
        let runs = self.runs.get(e.index())?;
        let run = &runs[runs.partition_point(|r| r.first <= slice).checked_sub(1)?];
        run.rows.get(slice - run.first).copied()
    }

    /// The dual `μ_{e,slice}` in `duals`: zero where no row exists, since
    /// such a constraint is slack by construction.
    fn dual(&self, duals: &[f64], e: EdgeId, slice: usize) -> f64 {
        self.get(e, slice).map_or(0.0, |r| duals[r.index()])
    }

    /// Records `row` as the row of `(e, slice)`, which has none yet.
    fn insert(&mut self, e: EdgeId, slice: usize, row: Row) {
        let runs = &mut self.runs[e.index()];
        let k = runs.partition_point(|r| r.first <= slice);
        debug_assert!(k == 0 || runs[k - 1].end() <= slice, "row inserted twice");
        let joins_next = k < runs.len() && runs[k].first == slice + 1;
        if k > 0 && runs[k - 1].end() == slice {
            runs[k - 1].rows.push(row);
            if joins_next {
                let next = runs.remove(k);
                runs[k - 1].rows.extend(next.rows);
            }
        } else if joins_next {
            runs[k].first = slice;
            runs[k].rows.insert(0, row);
        } else {
            runs.insert(
                k,
                Run {
                    first: slice,
                    rows: vec![row],
                },
            );
        }
    }
}

/// The restricted master problem of the column-generation loop.
///
/// Owns one incremental [`SolverSession`] for the whole loop — and, via
/// form switching, for the whole Stage-1 → Stage-2 pipeline or the whole
/// RET bisection + δ-growth — so the simplex basis is reused across every
/// resolve, augmentation, and bound change.
pub(crate) struct CgMaster {
    graph: Arc<Graph>,
    jobs: Vec<Job>,
    demands: Vec<f64>,
    grid: TimeGrid,
    /// Envelope slice window per job (from the jobs the master was built
    /// with — RET callers build at the deadline envelope `b_max`).
    windows: Vec<Range<usize>>,
    /// Currently active window per job (`⊆` envelope); columns outside are
    /// fixed to zero.
    active: Vec<Range<usize>>,
    /// The Yen paths priced, up to `paths_per_job` per endpoint pair,
    /// computed as pricing asks for them: the pool's ranks index them.
    pathset: PathSet,
    /// Price–resolve rounds allowed per form: [`MAX_ROUNDS`], lowered only
    /// by the cap's own unit test.
    max_rounds: usize,
    session: SolverSession,
    z: Col,
    job_rows: Vec<Row>,
    cap_rows: CapRows,
    pool: ColumnPool,
    /// LP column of each pool column, in pool order.
    lp_cols: Vec<Col>,
    /// The formulation the master currently encodes; see [`Form`].
    form: Form,
    stats: CgStats,
    /// Every path of every pair, for the full-scan pricer test builds
    /// check each round against.
    #[cfg(test)]
    full_scan: PathSet,
}

impl CgMaster {
    /// Builds the restricted master seeded with each job's Yen rank 0, its
    /// hop-shortest path, in Stage-1 form. `demands` are normalized demand
    /// units (use [`InstanceConfig::demand_units`]); jobs with no route
    /// simply get an empty pool (their job row then forces `Z = 0`, exactly
    /// like the monolithic build).
    pub(crate) fn build(
        graph: &Graph,
        jobs: &[Job],
        demands: Vec<f64>,
        config: &InstanceConfig,
    ) -> Result<Self, SolveError> {
        assert_eq!(jobs.len(), demands.len());
        let grid = TimeGrid::covering(jobs);
        let windows: Vec<Range<usize>> = jobs
            .iter()
            .map(|j| grid.window_slices(j.start, j.end))
            .collect();

        let mut pathset = PathSet::new(config.paths_per_job);
        let mut pool = ColumnPool {
            ranks: vec![Vec::new(); jobs.len()],
            cols: Vec::new(),
        };
        // (job, path) of each seed, in job order.
        let mut seeds = Vec::with_capacity(jobs.len());
        for (i, job) in jobs.iter().enumerate() {
            if let Some(p) = pathset.paths_upto(graph, job.src, job.dst, 1).first() {
                pool.ranks[i].push(0);
                seeds.push((i, p.clone()));
            }
        }

        // Master LP: Z first (stable index 0), then the seed columns in
        // pool order, then a row per job, then the capacity rows the seed
        // columns cross, in sorted (edge, slice) order.
        let mut p = Problem::new(Objective::Maximize);
        let z = p.add_col(0.0, f64::INFINITY, 1.0);
        let mut lp_cols = Vec::new();
        for &(i, _) in &seeds {
            for slice in windows[i].clone() {
                lp_cols.push(p.add_col(0.0, f64::INFINITY, 0.0));
                pool.cols.push(PoolCol {
                    job: i as u32,
                    path: 0,
                    slice: slice as u32,
                });
            }
        }
        // `pool.cols` is grouped by job in job order, so one cursor walks it.
        let mut job_rows = Vec::with_capacity(jobs.len());
        let mut k = 0;
        for (i, demand) in demands.iter().enumerate() {
            let mut coeffs: Vec<(Col, f64)> = Vec::new();
            while k < pool.cols.len() && pool.cols[k].job as usize == i {
                coeffs.push((lp_cols[k], 1.0));
                k += 1;
            }
            coeffs.push((z, -demand));
            job_rows.push(p.add_row(0.0, 0.0, &coeffs));
        }
        // The seed columns' crossings, grouped by the instance's counting
        // passes: `pool.cols` runs path by path over each job's window, so
        // groups come out in `(edge, slice)` order with each key's columns
        // in pool order.
        let groups = CapacityGroups::from_runs(
            grid.first_slice()..grid.num_slices(),
            graph.num_edges(),
            seeds.iter().map(|(i, p)| (windows[*i].clone(), p.edges())),
        );
        let mut cap_rows = CapRows::new(graph.num_edges());
        let mut coeffs: Vec<(Col, f64)> = Vec::new();
        for ((e, slice), ks) in groups.iter() {
            coeffs.clear();
            coeffs.extend(ks.iter().map(|&k| (lp_cols[k as usize], 1.0)));
            let cap = graph.wavelengths(EdgeId(e)) as f64;
            let row = p.add_row(f64::NEG_INFINITY, cap, &coeffs);
            cap_rows.insert(EdgeId(e), slice as usize, row);
        }

        let session = SolverSession::new(&p)?;
        let mut master = CgMaster {
            graph: Arc::new(graph.clone()),
            jobs: jobs.to_vec(),
            demands,
            grid,
            active: windows.clone(),
            windows,
            pathset,
            max_rounds: MAX_ROUNDS,
            session,
            z,
            job_rows,
            cap_rows,
            pool,
            lp_cols,
            form: Form::Stage1,
            stats: CgStats::default(),
            #[cfg(test)]
            full_scan: PathSet::new(config.paths_per_job),
        };
        master.count_yen_paths();
        Ok(master)
    }

    /// Brings [`CgStats::yen_paths`] and `cg.yen_paths` up to the paths
    /// the master's path search has computed.
    fn count_yen_paths(&mut self) {
        let found = self.pathset.paths_found() as u64;
        obs::counter_add("cg.yen_paths", found - self.stats.yen_paths);
        self.stats.yen_paths = found;
    }

    /// The master's time grid.
    pub(crate) fn grid(&self) -> &TimeGrid {
        &self.grid
    }

    /// Column-generation work counters so far.
    pub(crate) fn stats(&self) -> CgStats {
        self.stats
    }

    /// Aggregated simplex counters over every master solve.
    pub(crate) fn session_stats(&self) -> SolveStats {
        self.session.stats()
    }

    /// Switches the master to `form`: `Z`'s cost and bounds, the job rows'
    /// upper bound and every pool column's cost, straight from the table.
    pub(crate) fn install(&mut self, form: Form) {
        self.form = form;
        let (z_cost, z_lo, z_hi, row_hi) = self.form.z_and_rows();
        self.session.set_cost(self.z, z_cost);
        self.session.set_col_bounds(self.z, z_lo, z_hi);
        for i in 0..self.job_rows.len() {
            self.session.set_row_bounds(self.job_rows[i], 0.0, row_hi);
        }
        for k in 0..self.pool.cols.len() {
            let pc = self.pool.cols[k];
            let c = self.cost_of(pc.slice as usize);
            self.session.set_cost(self.lp_cols[k], c);
        }
    }

    /// Installs `form` and prices it out to optimality over the Yen
    /// paths: the optimum of the monolithic LP over the same paths, to
    /// tolerance. Any other status is the breakdown it is for the
    /// instance-backed LP.
    pub(crate) fn solve_form(&mut self, form: Form) -> Result<Solution, SolveError> {
        let what = form.name();
        self.install(form);
        expect_optimal(self.price_resolve()?, what)
    }

    /// The current form's objective coefficient of a column in `slice`.
    fn cost_of(&self, slice: usize) -> f64 {
        self.form.cost_of(slice)
    }

    /// Restricts each job to `windows[i]` (clipped to the envelope):
    /// columns outside are fixed to zero, columns inside reopened. RET
    /// drives this per bisection probe and per δ-growth step, re-pricing
    /// after every change.
    pub(crate) fn set_active_windows(&mut self, windows: &[Range<usize>]) {
        assert_eq!(windows.len(), self.jobs.len());
        for (i, w) in windows.iter().enumerate() {
            let env = &self.windows[i];
            self.active[i] = w.start.max(env.start)..w.end.min(env.end);
        }
        self.apply_active_bounds();
    }

    /// Re-aims every pool column's upper bound at the current active
    /// windows: open inside, fixed to zero outside.
    fn apply_active_bounds(&mut self) {
        for k in 0..self.pool.cols.len() {
            let pc = self.pool.cols[k];
            let hi = if self.active[pc.job as usize].contains(&(pc.slice as usize)) {
                f64::INFINITY
            } else {
                0.0
            };
            self.session.set_col_bounds(self.lp_cols[k], 0.0, hi);
        }
    }

    /// Solves the restricted master, warm from the previous optimum (on
    /// its carried factors when the edits since kept them valid).
    fn solve(&mut self) -> Result<Solution, SolveError> {
        let sol = self.session.solve()?;
        self.stats.master_lu_reuse_hits += sol.stats.lu_reuse_hits;
        obs::counter_add("cg.master_lu_reuse_hits", sol.stats.lu_reuse_hits);
        Ok(sol)
    }

    /// Runs the price–resolve loop on the master's **current** form:
    /// solve, price, augment, repeat until pricing adds nothing (or a
    /// non-optimal status stops the loop — RET's Quick-Finish form can
    /// legitimately be infeasible). Returns the final restricted solution;
    /// a loop not priced out within [`MAX_ROUNDS`] is a
    /// [`SolveError::Numerical`], because a master cut off there was never
    /// priced to optimality.
    pub(crate) fn price_resolve(&mut self) -> Result<Solution, SolveError> {
        self.price_resolve_until(|_| false)
    }

    /// [`price_resolve`](Self::price_resolve) with an early-stop predicate,
    /// checked on each restricted optimum *before* pricing. Stopping early
    /// is only sound when the caller needs a one-sided answer: the
    /// restricted objective is a lower bound on the full optimum
    /// (Maximize), so once a feasibility threshold is reached, more columns
    /// cannot un-reach it. RET's bisection probes use this — a probe only
    /// needs pricing to optimality to certify *in*feasibility, and stopping
    /// at the threshold keeps the pool lean.
    pub(crate) fn price_resolve_until(
        &mut self,
        stop: impl Fn(&Solution) -> bool,
    ) -> Result<Solution, SolveError> {
        let mut rounds = 0usize;
        loop {
            let sol = self.solve()?;
            if sol.status != Status::Optimal || stop(&sol) {
                return Ok(sol);
            }
            if rounds == self.max_rounds {
                return Err(SolveError::Numerical(format!(
                    "column generation ({}) not priced out after {rounds} rounds",
                    self.form.name()
                )));
            }
            if self.price_and_augment(&sol) == 0 {
                return Ok(sol);
            }
            rounds += 1;
        }
    }

    /// One pricing round: computes each job's budgets from the duals of
    /// `sol`, [prices](Self::price) the Yen paths against them, and adds
    /// the proposed paths' columns (and any newly crossed capacity rows)
    /// to the master. Returns the number of columns added — zero means the
    /// restricted optimum is optimal over the Yen paths and the loop is
    /// done.
    fn price_and_augment(&mut self, sol: &Solution) -> usize {
        debug_assert_eq!(sol.status, Status::Optimal, "pricing needs optimal duals");
        self.stats.rounds += 1;
        obs::counter_add("cg.rounds", 1);

        let budgets: Vec<Vec<f64>> = (0..self.jobs.len())
            .map(|i| {
                let lambda = sol.duals[self.job_rows[i].index()];
                self.active[i]
                    .clone()
                    .map(|j| self.cost_of(j) - lambda - TOLERANCE)
                    .collect()
            })
            .collect();

        let _pricing = obs::span("cg_pricing");
        #[expect(
            clippy::disallowed_methods,
            reason = "cg.pricing_ns is a reporting-only counter; no scheduling decision reads it"
        )]
        let t0 = std::time::Instant::now();
        let proposals = self.price(&sol.duals, &budgets);
        #[cfg(test)]
        self.check_against_full_scan(&sol.duals, &budgets, &proposals);
        self.count_yen_paths();
        self.stats.pricer_calls += 1;
        let spent = t0.elapsed().as_nanos() as u64;
        self.stats.pricing_ns += spent;
        obs::counter_add("cg.pricer_calls", 1);
        obs::counter_add("cg.pricing_ns", spent);
        drop(_pricing);

        let _augment = obs::span("cg_augment");
        let added = self.add_paths(proposals);
        self.stats.columns_added += added as u64;
        obs::counter_add("cg.columns_added", added as u64);
        added
    }

    /// Proposes, for each job with an active window, the out-of-pool Yen
    /// path with the best exact reduced-cost margin, if that margin is
    /// positive; ties keep the first in Yen order. A path's margin is the
    /// maximum over the job's active slices `j` of
    /// `budgets[i][j − start] − Σ_{e∈p} μ_{e,j}` under the raw duals, so a
    /// proposal improves the master in at least one slice. One path per job
    /// per round keeps the pool lean: entering every improving column
    /// floods the restricted master back to the monolithic size.
    ///
    /// Ranks are asked of the path search in order, and only while a later
    /// one could still be proposed. When no capacity dual is negative or
    /// NaN, every load is at least zero, so no margin exceeds the job's
    /// bound, its best budget over the active slices: a job whose bound is
    /// not positive is skipped without a path, and a scan ends once its
    /// best margin reaches the bound, since a later rank would have to beat
    /// it strictly. A round with a negative or NaN capacity dual scans
    /// every rank.
    fn price(&mut self, duals: &[f64], budgets: &[Vec<f64>]) -> Vec<(usize, u32)> {
        // Every row after the job rows is a capacity row.
        let loads_nonnegative = duals[self.job_rows.len()..].iter().all(|&mu| mu >= 0.0);
        let mut out = Vec::new();
        for (i, job) in self.jobs.iter().enumerate() {
            let w = &self.active[i];
            if w.is_empty() {
                continue;
            }
            // Folded as the margins are, so a NaN budget drops out of both.
            let bound = if loads_nonnegative {
                budgets[i].iter().fold(f64::NEG_INFINITY, |b, &x| b.max(x))
            } else {
                f64::INFINITY
            };
            let mut best: Option<(f64, u32)> = None;
            if bound > 0.0 {
                let (pool, cap_rows) = (&self.pool.ranks[i], &self.cap_rows);
                let (src, dst) = (job.src, job.dst);
                self.pathset.visit_while(&self.graph, src, dst, |rank, p| {
                    let rank = rank as u32;
                    if !pool.contains(&rank) {
                        let mut m = f64::NEG_INFINITY;
                        for j in w.clone() {
                            let load: f64 =
                                p.edges().iter().map(|&e| cap_rows.dual(duals, e, j)).sum();
                            m = m.max(budgets[i][j - w.start] - load);
                        }
                        if m > 0.0 && best.is_none_or(|(bm, _)| m > bm) {
                            best = Some((m, rank));
                        }
                    }
                    // A later rank must beat the best margin strictly.
                    best.is_none_or(|(bm, _)| bm < bound)
                });
            }
            if let Some((_, rank)) = best {
                out.push((i, rank));
            }
        }
        out
    }

    /// Materializes each `(job, Yen rank)` of `batch` not yet in the pool over
    /// the job's full envelope window, with one row splice and one column
    /// splice for the whole batch: missing capacity rows first (empty — by
    /// the coverage invariant no existing column crosses an unmaterialized
    /// `(edge, slice)`), path by path in sorted key order, then the
    /// columns in path order, bounded by the active window. Handles come
    /// out exactly as if every path had been spliced on its own. Returns
    /// the number of columns added.
    fn add_paths(&mut self, batch: Vec<(usize, u32)>) -> usize {
        // (job, index in the job's pool, path) of every path admitted.
        let mut admitted: Vec<(usize, usize, Path)> = Vec::new();
        // Rows to create, in handle order, and the same keys for lookup.
        let mut missing: Vec<(u32, u32)> = Vec::new();
        let mut pending: BTreeSet<(u32, u32)> = BTreeSet::new();
        let mut keys: Vec<(u32, u32)> = Vec::new();
        for (job, rank) in batch {
            if self.pool.ranks[job].contains(&rank) {
                continue;
            }
            let (src, dst, n) = (self.jobs[job].src, self.jobs[job].dst, rank as usize + 1);
            let path = self.pathset.paths_upto(&self.graph, src, dst, n)[n - 1].clone();
            keys.clear();
            for &e in path.edges() {
                for j in self.windows[job].clone() {
                    keys.push((e.0, j as u32));
                }
            }
            keys.sort_unstable();
            for &key in &keys {
                let (e, j) = (EdgeId(key.0), key.1 as usize);
                if self.cap_rows.get(e, j).is_none() && pending.insert(key) {
                    missing.push(key);
                }
            }
            admitted.push((job, self.pool.ranks[job].len(), path));
            self.pool.ranks[job].push(rank);
        }
        if admitted.is_empty() {
            return 0;
        }
        if !missing.is_empty() {
            let new_rows: Vec<NewRow> = missing
                .iter()
                .map(|&(e, _)| NewRow {
                    lower: f64::NEG_INFINITY,
                    upper: self.graph.wavelengths(EdgeId(e)) as f64,
                    entries: Vec::new(),
                })
                .collect();
            let rows = self.session.add_rows(&new_rows);
            for ((e, j), row) in missing.into_iter().zip(rows) {
                self.cap_rows.insert(EdgeId(e), j as usize, row);
            }
        }

        let mut new_cols = Vec::new();
        for (job, path_idx, path) in admitted {
            for j in self.windows[job].clone() {
                let mut entries: Vec<(Row, f64)> = vec![(self.job_rows[job], 1.0)];
                for &e in path.edges() {
                    #[expect(
                        clippy::expect_used,
                        reason = "invariant: every (edge, slice) of the path got its row above"
                    )]
                    let row = self.cap_rows.get(e, j).expect("capacity row exists");
                    entries.push((row, 1.0));
                }
                let upper = if self.active[job].contains(&j) {
                    f64::INFINITY
                } else {
                    0.0
                };
                new_cols.push(NewColumn {
                    lower: 0.0,
                    upper,
                    cost: self.cost_of(j),
                    entries,
                });
                self.pool.cols.push(PoolCol {
                    job: job as u32,
                    path: path_idx as u32,
                    slice: j as u32,
                });
            }
        }
        let cols = self.session.add_columns(&new_cols);
        self.lp_cols.extend(cols);
        new_cols.len()
    }

    /// Materializes the converged pool as a standard [`Instance`] over
    /// `jobs` — the master's, or substitutes with the same count, sources
    /// and destinations (RET passes the jobs extended to the current trial
    /// deadline). The pool paths become the allowed paths, in pool order
    /// with their Yen ranks, so schedules, LPD/LPDAR and all metrics work
    /// downstream exactly as after a monolithic build.
    pub(crate) fn materialize(&mut self, jobs: &[Job]) -> Instance {
        assert_eq!(jobs.len(), self.jobs.len());
        let (demands, ranks) = (self.demands.clone(), Some(self.pool.ranks.as_slice()));
        Instance::assemble(&self.graph, jobs, demands, &mut self.pathset, ranks)
    }

    /// Maps a master solution's column values onto `inst`'s variable
    /// space (an instance from [`materialize`](Self::materialize)). Pool
    /// columns whose slice falls outside the instance window are dropped —
    /// they are bound to zero whenever the active windows match the
    /// instance.
    pub(crate) fn values_on(&self, inst: &Instance, x: &[f64]) -> Vec<f64> {
        let mut v = vec![0.0; inst.vars.len()];
        for (k, pc) in self.pool.cols.iter().enumerate() {
            let (job, pi, slice) = (pc.job as usize, pc.path as usize, pc.slice as usize);
            if inst.vars.window(job).contains(&slice) {
                v[inst.vars.var(job, pi, slice)] = x[self.lp_cols[k].index()];
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceConfig;
    use crate::ret::{solve_ret_colgen, RetConfig};
    use crate::stage1::solve_stage1;
    use std::cell::Cell;
    use std::collections::BTreeMap;

    thread_local! {
        /// Pricing rounds checked against the full scan on this thread,
        /// and the proposals they made.
        static CHECKED: Cell<[usize; 2]> = const { Cell::new([0; 2]) };
    }

    /// The pricer as it ran before ranks were computed on demand, kept as
    /// its oracle: every rank of every job with an active window, no bound.
    impl CgMaster {
        fn price_full_scan(&mut self, duals: &[f64], budgets: &[Vec<f64>]) -> Vec<(usize, u32)> {
            let mut out = Vec::new();
            for (i, job) in self.jobs.iter().enumerate() {
                let w = &self.active[i];
                if w.is_empty() {
                    continue;
                }
                let mut best: Option<(f64, u32)> = None;
                for (rank, p) in (0..).zip(self.full_scan.paths(&self.graph, job.src, job.dst)) {
                    if self.pool.ranks[i].contains(&rank) {
                        continue;
                    }
                    let mut m = f64::NEG_INFINITY;
                    for j in w.clone() {
                        let load: f64 = p
                            .edges()
                            .iter()
                            .map(|&e| self.cap_rows.dual(duals, e, j))
                            .sum();
                        m = m.max(budgets[i][j - w.start] - load);
                    }
                    if m > 0.0 && best.is_none_or(|(bm, _)| m > bm) {
                        best = Some((m, rank));
                    }
                }
                if let Some((_, rank)) = best {
                    out.push((i, rank));
                }
            }
            out
        }

        /// Asserts that [`price`](CgMaster::price) proposed what the full
        /// scan proposes, and counts the round.
        pub(super) fn check_against_full_scan(
            &mut self,
            duals: &[f64],
            budgets: &[Vec<f64>],
            got: &[(usize, u32)],
        ) {
            let want = self.price_full_scan(duals, budgets);
            assert_eq!(got, want, "bounded pricing vs the full scan");
            CHECKED.with(|c| {
                let [rounds, proposals] = c.get();
                c.set([rounds + 1, proposals + got.len()]);
            });
        }
    }

    /// Stage 1 priced out on `master`: `Z*` over the Yen paths.
    fn stage1_colgen(master: &mut CgMaster) -> Result<f64, SolveError> {
        Ok(master.solve_form(Form::Stage1)?.objective)
    }
    use wavesched_net::abilene14;
    use wavesched_workload::{WorkloadConfig, WorkloadGenerator};

    fn setup(n_jobs: usize, seed: u64) -> (Arc<Graph>, Vec<Job>, Vec<f64>, InstanceConfig) {
        let (g, _) = abilene14(4);
        let jobs = WorkloadGenerator::new(WorkloadConfig {
            num_jobs: n_jobs,
            seed,
            ..Default::default()
        })
        .generate(&g);
        let cfg = InstanceConfig::paper(4);
        let demands: Vec<f64> = jobs.iter().map(|j| cfg.demand_units(j.size_gb)).collect();
        (Arc::new(g), jobs, demands, cfg)
    }

    #[test]
    fn exhaustive_pricer_matches_monolithic_stage1() {
        let (g, jobs, demands, cfg) = setup(10, 42);
        let mut ps = PathSet::new(cfg.paths_per_job);
        let inst = Instance::build(&g, &jobs, &cfg, &mut ps);
        let mono = solve_stage1(&inst).unwrap();

        let mut master = CgMaster::build(&g, &jobs, demands, &cfg).unwrap();
        let z = stage1_colgen(&mut master).unwrap();
        assert!(
            (z - mono.z_star).abs() < 1e-6,
            "colgen z* {z} vs monolithic {}",
            mono.z_star
        );
    }

    #[test]
    fn pool_stays_restricted() {
        let (g, jobs, demands, cfg) = setup(10, 42);
        let mut master = CgMaster::build(&g, &jobs, demands, &cfg).unwrap();
        stage1_colgen(&mut master).unwrap();
        // Exhaustive column count over the same jobs.
        let mut ps = PathSet::new(cfg.paths_per_job);
        let inst = Instance::build(&g, &jobs, &cfg, &mut ps);
        assert!(
            master.pool.cols.len() <= inst.vars.len(),
            "pool {} vs exhaustive {}",
            master.pool.cols.len(),
            inst.vars.len()
        );
    }

    /// The seed is each job's Yen rank 0, which is the path
    /// `dijkstra::shortest_path` returns; the materialized instance allows
    /// it first, under its rank.
    #[test]
    fn seed_paths_are_shortest() {
        let (g, jobs, demands, cfg) = setup(5, 3);
        let mut master = CgMaster::build(&g, &jobs, demands, &cfg).unwrap();
        let inst = master.materialize(&jobs);
        let mut yen = PathSet::new(cfg.paths_per_job);
        for (i, job) in jobs.iter().enumerate() {
            let want = wavesched_net::dijkstra::shortest_path(&g, job.src, job.dst).unwrap();
            assert_eq!(master.pool.ranks[i], [0]);
            assert_eq!(yen.paths(&g, job.src, job.dst)[0], want);
            assert_eq!(inst.paths[i], [want]);
            let var = inst.vars.job_range(i).start;
            assert_eq!(inst.vars.key(var), (job.id, 0, inst.vars.window(i).start));
        }
    }

    /// A loop cut off at its round cap was never priced to optimality: it
    /// must say so, not hand back the restricted optimum as if converged.
    #[test]
    fn round_cap_is_an_error_not_an_answer() {
        let (g, jobs, demands, cfg) = setup(10, 42);
        let mut free = CgMaster::build(&g, &jobs, demands.clone(), &cfg).unwrap();
        stage1_colgen(&mut free).unwrap();
        assert!(free.stats().rounds > 2, "workload must need several rounds");

        let mut capped = CgMaster::build(&g, &jobs, demands, &cfg).unwrap();
        capped.max_rounds = 1;
        let out = stage1_colgen(&mut capped);
        assert!(
            matches!(&out, Err(SolveError::Numerical(why)) if why.contains("stage 1")),
            "{out:?}"
        );
        assert_eq!(capped.stats().rounds, 1);
    }

    /// `add_paths(batch)` must leave the master exactly where one splice
    /// per path would: same handles, same pool, and — after a warm
    /// re-solve — the same bits, pivot for pivot.
    #[test]
    fn batched_augmentation_matches_singleton_batches() {
        let (g, jobs, demands, cfg) = setup(10, 42);
        let mut batched = CgMaster::build(&g, &jobs, demands.clone(), &cfg).unwrap();
        let mut twin = CgMaster::build(&g, &jobs, demands, &cfg).unwrap();
        let mut yen = PathSet::new(cfg.paths_per_job);

        // Round 1: every job's second Yen path, the first of them proposed
        // twice. Round 2: all the remaining Yen paths.
        let mut rounds: Vec<Vec<(usize, u32)>> = vec![Vec::new(), Vec::new()];
        for (i, job) in jobs.iter().enumerate() {
            for rank in 1..yen.paths(&g, job.src, job.dst).len() as u32 {
                rounds[(rank > 1) as usize].push((i, rank));
            }
        }
        let repeated = rounds[0][0];
        rounds[0].push(repeated);

        for batch in rounds {
            // The carried basis is part of what the splice must preserve.
            assert_eq!(batched.solve().unwrap().status, Status::Optimal);
            assert_eq!(twin.solve().unwrap().status, Status::Optimal);

            // The batch must hold what the batching has to get right: two
            // paths crossing the same not-yet-materialized capacity row.
            let mut distinct: Vec<(usize, u32)> = Vec::new();
            for &proposal in &batch {
                if !distinct.contains(&proposal) {
                    distinct.push(proposal);
                }
            }
            let mut crossings: BTreeMap<(u32, u32), usize> = BTreeMap::new();
            for (job, rank) in distinct {
                let (src, dst) = (jobs[job].src, jobs[job].dst);
                for &e in yen.paths(&g, src, dst)[rank as usize].edges() {
                    for j in batched.windows[job].clone() {
                        *crossings.entry((e.0, j as u32)).or_default() += 1;
                    }
                }
            }
            assert!(
                crossings
                    .iter()
                    .any(|(&(e, j), n)| *n > 1
                        && batched.cap_rows.get(EdgeId(e), j as usize).is_none()),
                "no two paths of the batch share a missing capacity row"
            );

            let mut one_by_one = 0;
            for &proposal in &batch {
                one_by_one += twin.add_paths(vec![proposal]);
            }
            assert_eq!(batched.add_paths(batch), one_by_one);
            assert!(one_by_one > 0);

            assert_eq!(batched.cap_rows, twin.cap_rows);
            assert_eq!(batched.lp_cols, twin.lp_cols);
            assert_eq!(batched.pool.cols, twin.pool.cols);
            assert_eq!(batched.pool.ranks, twin.pool.ranks);

            let (a, b) = (batched.solve().unwrap(), twin.solve().unwrap());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(a.status, Status::Optimal);
            assert_eq!(a.objective.to_bits(), b.objective.to_bits());
            assert_eq!(bits(&a.x), bits(&b.x));
            assert_eq!(bits(&a.duals), bits(&b.duals));
            assert_eq!(a.stats.iterations, b.stats.iterations);
        }
    }

    /// Every `(edge, slice, row)` of the index, in `(edge, slice)` order.
    fn cap_rows_in_order(index: &CapRows) -> Vec<(usize, usize, Row)> {
        let mut out = Vec::new();
        for (e, runs) in index.runs.iter().enumerate() {
            for run in runs {
                for (k, &row) in run.rows.iter().enumerate() {
                    out.push((e, run.first + k, row));
                }
            }
        }
        out
    }

    /// Inserts in every order — appending to a run, prepending, bridging
    /// two runs, opening a run between others — answer as an ordered map
    /// would, and leave no two runs touching.
    #[test]
    fn capacity_index_answers_as_an_ordered_map() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let mut keys: Vec<(u32, usize)> = Vec::new();
            for e in 0..3 {
                for j in 0..40 {
                    if rng.random_range(0..3) > 0 {
                        keys.push((e, 1000 + j));
                    }
                }
            }
            for i in (1..keys.len()).rev() {
                keys.swap(i, rng.random_range(0..=i));
            }
            let mut index = CapRows::new(3);
            let mut map = BTreeMap::new();
            for (n, &(e, j)) in keys.iter().enumerate() {
                index.insert(EdgeId(e), j, Row::from_index(n));
                map.insert((e, j), Row::from_index(n));
                for runs in &index.runs {
                    assert!(runs.windows(2).all(|w| w[0].end() < w[1].first));
                }
            }
            for e in 0..4 {
                for j in 990..1050 {
                    assert_eq!(index.get(EdgeId(e), j), map.get(&(e, j)).copied());
                }
            }
        }
    }

    /// A fresh master creates its capacity rows right after the job rows,
    /// in ascending `(edge, slice)` order — the handles every pinned master
    /// trajectory depends on — and the index answers every `(edge, slice)`
    /// a seed column crosses and nothing else.
    #[test]
    fn fresh_capacity_rows_come_out_in_edge_slice_order() {
        let (g, jobs, demands, cfg) = setup(10, 42);
        let master = CgMaster::build(&g, &jobs, demands, &cfg).unwrap();
        let rows = cap_rows_in_order(&master.cap_rows);
        assert!(rows.len() > jobs.len(), "{} capacity rows", rows.len());
        for (i, &(e, j, row)) in rows.iter().enumerate() {
            assert_eq!(row.index(), jobs.len() + i, "row of ({e}, {j})");
            assert_eq!(master.cap_rows.get(EdgeId(e as u32), j), Some(row));
        }
        let mut yen = PathSet::new(cfg.paths_per_job);
        let seeds: Vec<Vec<EdgeId>> = jobs
            .iter()
            .map(|j| yen.paths(&g, j.src, j.dst)[0].edges().to_vec())
            .collect();
        let crossed = |e: usize, j: usize| {
            master.pool.cols.iter().any(|pc| {
                pc.slice as usize == j
                    && master.pool.ranks[pc.job as usize][pc.path as usize] == 0
                    && seeds[pc.job as usize].contains(&EdgeId(e as u32))
            })
        };
        for e in 0..g.num_edges() {
            for j in master.grid.first_slice()..master.grid.num_slices() {
                let row = master.cap_rows.get(EdgeId(e as u32), j);
                assert_eq!(row.is_some(), crossed(e, j), "({e}, {j})");
            }
        }
    }

    /// Jobs spread over a 10 000-slice horizon: the index grows with the
    /// rows the master has, not with edges × slices.
    #[test]
    fn capacity_index_stays_proportional_to_its_rows() {
        let (g, mut jobs, _, cfg) = setup(40, 9);
        for (i, job) in jobs.iter_mut().enumerate() {
            let shift = (i * 250) as f64;
            job.start += shift;
            job.end += shift;
        }
        let demands: Vec<f64> = jobs.iter().map(|j| cfg.demand_units(j.size_gb)).collect();
        let mut master = CgMaster::build(&g, &jobs, demands, &cfg).unwrap();
        stage1_colgen(&mut master).unwrap();
        assert!(master.stats().columns_added > 0);
        let horizon = master.grid.num_slices() - master.grid.first_slice();
        assert!(horizon >= 9_750, "horizon {horizon}");

        let index = &master.cap_rows;
        let rows = cap_rows_in_order(index).len();
        let runs: usize = index.runs.iter().map(Vec::len).sum();
        let bytes = index.runs.capacity() * size_of::<Vec<Run>>()
            + index
                .runs
                .iter()
                .map(|runs| {
                    runs.capacity() * size_of::<Run>()
                        + runs
                            .iter()
                            .map(|r| r.rows.capacity() * size_of::<Row>())
                            .sum::<usize>()
                })
                .sum::<usize>();
        // A handle, its share of the run headers and the growth slack stay
        // within four handles a row past the per-edge headers; a dense
        // edges × slices table would hold a handle for every pair.
        let per_edge = g.num_edges() * size_of::<Vec<Run>>();
        assert!(runs < rows / 4, "{runs} runs for {rows} rows");
        assert!(
            bytes < per_edge + 4 * size_of::<Row>() * rows,
            "{bytes} bytes for {rows} rows"
        );
        assert!(10 * bytes < g.num_edges() * horizon * size_of::<Row>());
    }

    /// Every pricing round of a `claims fig4 --smoke --colgen` RET run
    /// (100-node Waxman, W = 2, k = 16, 20 and 50 jobs) is checked against
    /// the full scan inside `price_and_augment`; this holds the run to
    /// rounds that propose paths, and to the bound having spared ranks.
    #[test]
    fn bounded_pricing_proposes_what_the_full_scan_proposes() {
        let g = wavesched_net::waxman_network(&wavesched_net::WaxmanConfig {
            nodes: 100,
            link_pairs: 200,
            wavelengths: 2,
            alpha: 0.15,
            seed: 42,
        });
        let cfg = InstanceConfig {
            paths_per_job: 16,
            ..InstanceConfig::paper(2)
        };
        let ret = RetConfig {
            bsearch_tol: 0.05,
            b_max: 10.0,
            max_delta_steps: 120,
            ..RetConfig::default()
        };
        let [rounds0, proposals0] = CHECKED.with(Cell::get);
        let (mut calls, mut yen) = (0, 0);
        for n in [20, 50] {
            let jobs = WorkloadGenerator::new(WorkloadConfig {
                num_jobs: n,
                seed: 3000,
                size_gb: (1.0, 100.0),
                window: (4.0, 10.0),
                ..Default::default()
            })
            .generate(&g);
            let colgen = solve_ret_colgen(&g, &jobs, &cfg, &ret, &ColGenConfig::default());
            let (_, cg) = colgen.unwrap().expect("RET answers");
            assert!(cg.yen_paths < (n * cfg.paths_per_job) as u64 / 4, "{cg:?}");
            calls += cg.pricer_calls as usize;
            yen += cg.yen_paths;
        }
        let [rounds, proposals] = CHECKED.with(Cell::get);
        assert_eq!(rounds - rounds0, calls);
        assert!(
            calls >= 3 && proposals - proposals0 > 0,
            "{calls} rounds, {yen} paths"
        );
    }

    /// A scan may end only where no later rank can win. A rank whose
    /// margin is positive but below the bound does not end it; one whose
    /// margin reaches the bound does, unless a negative capacity dual lets
    /// a later path's load fall below zero and its margin past the bound.
    #[test]
    fn pricing_stops_only_where_no_later_rank_can_win() {
        let (g, jobs, _, cfg) = setup(1, 42);
        let mut yen = PathSet::new(cfg.paths_per_job);
        // A pair whose ranks 1 and 2 each cross an edge of rank 0 (so the
        // seed gives it a capacity row) that the other does not.
        let nodes: Vec<_> = (0..g.num_nodes() as u32)
            .map(wavesched_net::NodeId)
            .collect();
        let (src, dst, only1, only2) = nodes
            .iter()
            .flat_map(|&s| nodes.iter().map(move |&d| (s, d)))
            .find_map(|(s, d)| {
                let ps = yen.paths(&g, s, d);
                let p2 = ps.get(2)?.edges();
                let (p0, p1) = (ps[0].edges(), ps[1].edges());
                let only = |a: &[EdgeId], b: &[EdgeId]| {
                    a.iter().copied().find(|e| p0.contains(e) && !b.contains(e))
                };
                Some((s, d, only(p1, p2)?, only(p2, p1)?))
            })
            .expect("abilene has such a pair");
        let job = Job {
            src,
            dst,
            ..jobs[0].clone()
        };
        let demands = vec![cfg.demand_units(job.size_gb)];
        let mut master = CgMaster::build(&g, &[job], demands, &cfg).unwrap();
        let w = master.active[0].clone();
        let budgets = vec![vec![1.0; w.len()]];
        let row = |e, j| master.cap_rows.get(e, j).expect("the seed crosses e");
        let rows1: Vec<Row> = w.clone().map(|j| row(only1, j)).collect();
        let row2 = row(only2, w.start);
        let mut duals = vec![0.0; master.session.num_rows()];
        // Rank 1 has zero load: margin 1, the bound itself.
        assert_eq!(master.price(&duals, &budgets), [(0, 1)]);
        // Rank 1 loaded in every slice, margin 0.5; rank 2 unloaded,
        // margin 1.
        for r in &rows1 {
            duals[r.index()] = 0.5;
        }
        assert_eq!(master.price(&duals, &budgets), [(0, 2)]);
        // Rank 1 back at the bound, and rank 2 crossing a row priced below
        // zero: margin 2.
        for r in &rows1 {
            duals[r.index()] = 0.0;
        }
        duals[row2.index()] = -1.0;
        assert_eq!(master.price(&duals, &budgets), [(0, 2)]);
    }

    #[test]
    fn values_map_onto_materialized_instance() {
        let (g, jobs, demands, cfg) = setup(8, 5);
        let mut master = CgMaster::build(&g, &jobs, demands, &cfg).unwrap();
        let z = stage1_colgen(&mut master).unwrap();
        let sol = master.solve().unwrap();
        let inst = master.materialize(&jobs);
        let x = master.values_on(&inst, &sol.x);
        let sched = crate::schedule::Schedule::from_values(&inst, x);
        assert!(sched.max_capacity_violation(&inst) < 1e-6);
        for i in 0..inst.num_jobs() {
            assert!(
                sched.throughput(&inst, i) >= z - 1e-5,
                "job {i} moved less than Z*"
            );
        }
    }
}
