//! The Relaxing-End-Times (RET) problem — paper Section II-C.
//!
//! When the network is overloaded and users would rather finish their whole
//! transfer a bit late than truncate it, the controller finds the smallest
//! common factor `(1+b)` by which all end times must be extended so every
//! job completes in full:
//!
//! 1. **SUB-RET** (eqs. 14–16): a feasibility program with the Quick-Finish
//!    objective `min sum_j gamma(j) sum_{i,p} x_i(p,j)`, `gamma(j) = j+1`,
//!    demand-completion rows and windows extended to `I((1+b) E_i)`.
//! 2. **Algorithm 2**: binary search for the smallest `b` making the LP
//!    relaxation feasible, apply LPDAR to the fractional solution, and grow
//!    `b` by `delta` until the integral schedule also completes every job.

use crate::arena::BuildArena;
use crate::builders::{add_assignment_cols, add_capacity_rows, job_volume_coeffs, Form, HeldLp};
use crate::colgen::{CgMaster, CgStats, ColGenConfig};
use crate::instance::{Instance, InstanceConfig};
use crate::lpdar::{adjust_rates_capped, truncate, AdjustOrder};
use crate::schedule::Schedule;
use crate::timegrid::TimeGrid;
use std::ops::Range;
use wavesched_lp::{
    solve, Col, Objective, Problem, SimplexConfig, Solution, SolveError, SolveStats, SolverSession,
    Status,
};
use wavesched_net::{Graph, PathSet};
use wavesched_obs as obs;
use wavesched_workload::Job;

/// Completion tolerance used when checking whether a job received its full
/// demand.
const COMPLETION_TOL: f64 = 1e-6;

/// Knobs for [`solve_ret`] (Algorithm 2).
#[derive(Debug, Clone)]
pub struct RetConfig {
    /// Upper end of the binary-search interval for `b`.
    pub b_max: f64,
    /// Binary-search resolution on `b`.
    pub bsearch_tol: f64,
    /// Safety cap on δ-growth iterations.
    pub max_delta_steps: usize,
    /// Solve the bisection's feasibility probes that need an LP in place on
    /// one held [`SolverSession`], built at twice the probe's `b` and rebuilt
    /// when a probe outgrows it, each probe warm-starting from the optimum
    /// of the one before. Disable to build and cold-solve a fresh LP per such
    /// probe. Both modes answer the same probes from the same memo and
    /// gallop, so the search trajectory and the returned schedules are
    /// identical either way — only the work counters differ.
    pub warm_start: bool,
    /// Has no effect: every probe runs serially on the calling thread. The
    /// field remains only because the outside-in benchmark sets it, and goes
    /// with that benchmark's `par.ret_scale_t2` row.
    pub threads: usize,
}

impl Default for RetConfig {
    fn default() -> Self {
        RetConfig {
            b_max: 4.0,
            bsearch_tol: 0.01,
            max_delta_steps: 60,
            warm_start: true,
            threads: 1,
        }
    }
}

/// Outcome of Algorithm 2.
#[derive(Debug, Clone)]
pub struct RetResult {
    /// `b̂`: the smallest extension at which the *fractional* SUB-RET is
    /// feasible (binary-search result).
    pub b_lp: f64,
    /// The final extension after δ-growth, at which LPDAR completes all
    /// jobs.
    pub b_final: f64,
    /// The instance at `b_final` (ends extended, grid enlarged).
    pub instance: Instance,
    /// Fractional SUB-RET solution at `b_final`.
    pub lp: Schedule,
    /// Truncated (LPD) solution at `b_final`.
    pub lpd: Schedule,
    /// LPDAR solution at `b_final` — completes every job by construction.
    pub lpdar: Schedule,
    /// Aggregated solver work over every LP solve Algorithm 2 performed
    /// (bisection probes + δ-growth), including warm-start accounting.
    pub stats: SolveStats,
}

impl RetResult {
    /// Number of LP solves performed (bisection + growth), derived from
    /// [`RetResult::stats`].
    pub fn lp_solves(&self) -> usize {
        self.stats.solves as usize
    }
    /// Fraction of jobs finished by the fractional solution (1.0 whenever
    /// SUB-RET is feasible — completion is a hard constraint).
    pub fn lp_fraction_finished(&self) -> f64 {
        self.lp.fraction_finished(&self.instance, COMPLETION_TOL)
    }

    /// Fraction of jobs the truncated solution finishes (the paper observes
    /// "typically zero").
    pub fn lpd_fraction_finished(&self) -> f64 {
        self.lpd.fraction_finished(&self.instance, COMPLETION_TOL)
    }

    /// Fraction of jobs LPDAR finishes (1.0 by Algorithm 2's termination).
    pub fn lpdar_fraction_finished(&self) -> f64 {
        self.lpdar.fraction_finished(&self.instance, COMPLETION_TOL)
    }

    /// Average end time (slices) of the fractional solution.
    pub fn lp_avg_end_time(&self) -> Option<f64> {
        self.lp.average_end_time(&self.instance, COMPLETION_TOL)
    }

    /// Average end time (slices) of the LPDAR solution.
    pub fn lpdar_avg_end_time(&self) -> Option<f64> {
        self.lpdar.average_end_time(&self.instance, COMPLETION_TOL)
    }
}

/// Tolerance on the probe LP's completion ratio: SUB-RET counts as feasible
/// when every job can reach at least `1 - RET_PROBE_TOL` of its demand.
const RET_PROBE_TOL: f64 = 1e-6;

/// The δ growth step of Algorithm 2 (the paper's value).
const RET_DELTA: f64 = 0.1;

/// Visit order of Algorithm 2's capped LPDAR.
const RET_ORDER: AdjustOrder = AdjustOrder::Paper;

/// Builds the SUB-RET problem (Quick-Finish objective, eqs. 14–16) on an
/// (already end-extended) instance whose jobs start at or after slice
/// `origin`: `gamma(j) = j - origin + 1`, so a slice weighs by how long
/// after the scheduling instant it ends, not by the clock.
fn build_subret(inst: &Instance, origin: usize) -> Problem {
    let mut p = Problem::new(Objective::Minimize);
    let (mut cols, mut coeffs) = (Vec::new(), Vec::new());
    add_assignment_cols(&mut p, inst, &mut cols);
    for (var, _, _, slice) in inst.vars.iter() {
        p.set_cost(cols[var], (slice - origin + 1) as f64);
    }
    // Eq. 15: every job moves at least its demand.
    for i in 0..inst.num_jobs() {
        job_volume_coeffs(inst, &cols, i, &mut coeffs);
        p.add_row(inst.demands[i], f64::INFINITY, &coeffs);
    }
    add_capacity_rows(&mut p, inst, &cols, &mut coeffs);
    p
}

/// Opens the bisection's feasibility probe over `inst`: the [`Form::Probe`]
/// of the instance's held LP, an always-feasible question — maximize the
/// common completion ratio `z` (capped at 1) subject to `volume_i >= z D_i`,
/// Stage 1's question with completion inequalities. SUB-RET at the same
/// windows is feasible exactly when `z* = 1`; testing
/// `z* >= 1 - RET_PROBE_TOL` makes the check robust. Because `x = 0, z = 0`
/// is always feasible, a warm start never has to prove infeasibility — the
/// situation where a warm simplex must discard its basis — so re-solves in
/// a session stay warm across every probe it answers. `None` when some job
/// has no usable (path, slice) at all: the probe is then answered —
/// infeasible — without an LP.
fn open_probe(inst: &Instance) -> Result<Option<SolverSession>, SolveError> {
    if inst.has_unschedulable_job() {
        return Ok(None);
    }
    let mut lp = HeldLp::open(inst, &SimplexConfig::default(), &mut BuildArena::new())?;
    lp.install(inst, &Form::Probe);
    Ok(lp.into_session())
}

/// Does a probe-form optimum certify feasibility at its trial `b`?
fn probe_feasible(sol: &Solution) -> bool {
    sol.status == Status::Optimal && sol.objective >= 1.0 - RET_PROBE_TOL
}

/// The jobs' slice windows at trial extension `b` on an envelope `grid` (one
/// built at an extension of at least `b`); `None` when some job's window is
/// empty — the question is then answered without an LP solve, like an
/// instance built directly at `b` with an unschedulable job. Slices are
/// unit slices by global index, so a window that fits under the envelope
/// horizon is the same range the shorter grid of the `b`-instance would
/// produce. A trial `b` relaxes end times as measured from the scheduling
/// instant `origin`, `E_i -> o + (1+b)(E_i - o)` — the paper's eq. 16, which
/// schedules once at `o = 0`; inside the controller `o` is the invocation
/// time.
fn windows_at(grid: &TimeGrid, jobs: &[Job], origin: f64, b: f64) -> Option<Vec<Range<usize>>> {
    let mut windows = Vec::with_capacity(jobs.len());
    for job in jobs {
        let ext = job.with_extended_end(b, origin);
        let w = grid.window_slices(ext.start, ext.end);
        if w.is_empty() {
            return None;
        }
        windows.push(w);
    }
    Some(windows)
}

/// What Algorithm 2 needs from an LP backend. Two implementations:
/// [`EnvelopeBackend`] (monolithic LPs over envelope instances) and
/// [`CgBackend`] (one column-generation master).
trait RetBackend {
    /// One probe of the search — the two opening ones (`b = 0`,
    /// `b = b_max`) and every bisection midpoint: is the fractional SUB-RET
    /// feasible at extension `b`?
    fn probe(&mut self, b: f64) -> Result<bool, SolveError>;

    /// Solves the Quick-Finish SUB-RET at extension `b`. Returns the
    /// instance at `b` with the fractional values over its variables, or
    /// `None` when the LP is not optimal there.
    fn quick_finish(&mut self, b: f64) -> Result<Option<(Instance, Vec<f64>)>, SolveError>;

    /// δ-growth stops once `b` exceeds this.
    fn growth_limit(&self) -> f64;

    /// Solver work over every LP solve so far.
    fn stats(&self) -> SolveStats;
}

/// Algorithm 2, once: binary search for the smallest `b` at which the
/// fractional SUB-RET is feasible, then Quick-Finish + LPDAR at `b`,
/// growing `b` by δ until the integral schedule completes every job.
/// `make` builds the backend after the input check; it is handed back with
/// the result so callers can read backend-specific counters.
fn algorithm2<B: RetBackend>(
    jobs: &[Job],
    cfg: &RetConfig,
    make: impl FnOnce() -> Result<B, SolveError>,
) -> Result<Option<(RetResult, B)>, SolveError> {
    if jobs.is_empty() {
        return Err(SolveError::InvalidModel(
            "RET needs at least one job".into(),
        ));
    }
    if !(cfg.b_max.is_finite() && cfg.b_max >= 0.0) {
        return Err(SolveError::InvalidModel(format!(
            "RetConfig::b_max must be finite and at least 0, got {}",
            cfg.b_max
        )));
    }
    if !(cfg.bsearch_tol.is_finite() && cfg.bsearch_tol > 0.0) {
        return Err(SolveError::InvalidModel(format!(
            "RetConfig::bsearch_tol must be finite and positive, got {}",
            cfg.bsearch_tol
        )));
    }
    let _span = obs::span("ret");
    let mut backend = make()?;

    let b_lp = if backend.probe(0.0)? {
        0.0
    } else if !backend.probe(cfg.b_max)? {
        return Ok(None);
    } else {
        // Bisect between an infeasible `lo` and a feasible `hi`. The
        // interval stops shrinking at adjacent floats, which a tolerance
        // below their spacing would otherwise never reach.
        let (mut lo, mut hi) = (0.0, cfg.b_max);
        while hi - lo > cfg.bsearch_tol {
            let mid = 0.5 * (lo + hi);
            if !(lo < mid && mid < hi) {
                break;
            }
            if backend.probe(mid)? {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    };

    let mut b = b_lp;
    for _ in 0..cfg.max_delta_steps {
        let _step_span = obs::span("ret_growth_step");
        obs::counter_add("ret.growth_rounds", 1);
        if let Some((inst, x)) = backend.quick_finish(b)? {
            let lp_sched = Schedule::from_values(&inst, x);
            let lpd = truncate(&inst, &lp_sched);
            let adj = adjust_rates_capped(&inst, &lpd, RET_ORDER);
            if (0..inst.num_jobs()).all(|i| adj.completes(&inst, i, COMPLETION_TOL)) {
                let result = RetResult {
                    b_lp,
                    b_final: b,
                    lp: lp_sched,
                    lpd,
                    lpdar: adj,
                    instance: inst,
                    stats: backend.stats(),
                };
                return Ok(Some((result, backend)));
            }
        }
        b += RET_DELTA;
        if b > backend.growth_limit() {
            break;
        }
    }
    Ok(None)
}

/// One LP built **once** on an envelope instance — one built at extension
/// `reach`, whose variable space contains that of every trial `b <= reach`,
/// since windows only grow with `b` — and re-aimed per trial by column
/// bounds alone. The restricted LP asks the same question as one built
/// directly at `b`: the extra capacity rows are satisfied trivially by the
/// zeros, and the job rows reduce to the in-window sums.
struct EnvelopeLp {
    /// The instance at `reach`; every trial's windows up to `reach` nest
    /// inside its own.
    inst: Instance,
    /// The largest trial `b` the envelope holds.
    reach: f64,
    session: SolverSession,
    /// Per-variable upper bound: the path's bottleneck wavelength count.
    upper: Vec<f64>,
}

impl EnvelopeLp {
    /// Wraps `session`, an LP over `inst`, the instance built at `reach`.
    fn new(inst: Instance, reach: f64, session: SolverSession) -> Self {
        let mut upper = Vec::with_capacity(inst.vars.len());
        for (job, paths) in inst.paths.iter().enumerate() {
            let slices = inst.vars.window(job).len();
            for path in paths {
                let bottleneck = path.bottleneck_wavelengths(&inst.graph) as f64;
                upper.resize(upper.len() + slices, bottleneck);
            }
        }
        EnvelopeLp {
            inst,
            reach,
            session,
            upper,
        }
    }

    /// Retightens the session to the windows at extension `b <= reach` and
    /// solves **in place**, so the next solve warm-starts from this optimum:
    /// variables of out-of-window slices are fixed to `[0, 0]`, the rest
    /// restored to `[0, bottleneck]`. A solved session carries a valid basis
    /// factorization and the retightening is a bound-only edit, so the
    /// re-solve enters through the factorization-reuse path
    /// (`SolveStats::lu_reuse_hits`). `None` when some window is empty at
    /// `b` (no solve).
    fn solve_at(
        &mut self,
        jobs: &[Job],
        origin: f64,
        b: f64,
    ) -> Result<Option<Solution>, SolveError> {
        let Some(windows) = windows_at(&self.inst.grid, jobs, origin, b) else {
            return Ok(None);
        };
        for (var, job, _, slice) in self.inst.vars.iter() {
            let ub = if windows[job].contains(&slice) {
                self.upper[var]
            } else {
                0.0
            };
            self.session.set_col_bounds(Col::from_index(var), 0.0, ub);
        }
        self.session.solve().map(Some)
    }
}

/// Algorithm 2's backend over the monolithic builders: probe LPs sized to
/// the bisection's bracket, then a Quick-Finish LP on the `b_max` envelope.
///
/// **Probing.** Feasibility only grows with `b` (windows only grow), so the
/// backend keeps a monotone memo — the least `b` answered feasible and the
/// greatest answered infeasible — and answers every probe at or beyond
/// either end without an LP. The opening `b_max` probe is reached by a
/// gallop up the bisection's own first midpoints `b_max · 2^-k`, from the
/// largest one at most `1/z₀ - 1` (`z₀` the probe optimum at `b = 0`, so
/// the extension that would complete the jobs if capacity scaled with the
/// windows) but not below `bsearch_tol`, to the first feasible one. That
/// point and the one below it, half of it, are midpoints the bisection asks
/// next, and come back from the memo. The start only decides which small
/// probes get solved, never an answer. A probe that needs an LP is
/// answered through the [`open_probe`] LP: in warm mode one held LP built
/// at `2b` (capped at `b_max`) for the first such probe and rebuilt at `2b`
/// whenever a probe outgrows it, every probe within it solving **in
/// place**, warm from the one before; cold mode builds instance and LP at
/// every such `b`. Only a probe's yes/no leaves the backend, never its
/// vertex, and both modes solve the same probes, so the bisection
/// trajectory and `b̂` never depend on `warm_start` or on the size of the LP
/// a probe solved on. Structural trouble degrades to a cold solve, never to
/// a wrong answer.
///
/// **Growth.** The first δ-step builds the `b_max` envelope, and
/// consecutive steps chain through its one Quick-Finish session in *both*
/// modes — the same deterministic call sequence either way — so the
/// fractional points, and therefore the LPDAR schedules and `b_final`,
/// cannot depend on `warm_start`. Only an extension past `b_max`, possible
/// on the final step, exceeds the envelope and drops to a one-off cold
/// build.
struct EnvelopeBackend<'a> {
    graph: &'a Graph,
    jobs: &'a [Job],
    demands: &'a [f64],
    inst_cfg: &'a InstanceConfig,
    cfg: &'a RetConfig,
    origin: f64,
    pathset: &'a mut PathSet,
    /// The least `b` answered feasible (`∞` before any).
    feasible_from: f64,
    /// The greatest `b` answered infeasible (`-∞` before any).
    infeasible_to: f64,
    /// The probe optimum at `b = 0`, once solved there.
    z0: Option<f64>,
    /// The warm probe LP; `None` in cold mode, before the first probe that
    /// needs an LP, when some job is unschedulable at its envelope, and once
    /// the search is over.
    probe_lp: Option<EnvelopeLp>,
    /// The Quick-Finish LP, built on the `b_max` envelope at the first
    /// growth step.
    growth_lp: Option<EnvelopeLp>,
    stats: SolveStats,
}

impl<'a> EnvelopeBackend<'a> {
    fn new(
        graph: &'a Graph,
        jobs: &'a [Job],
        demands: &'a [f64],
        inst_cfg: &'a InstanceConfig,
        cfg: &'a RetConfig,
        origin: f64,
        pathset: &'a mut PathSet,
    ) -> Self {
        EnvelopeBackend {
            graph,
            jobs,
            demands,
            inst_cfg,
            cfg,
            origin,
            pathset,
            feasible_from: f64::INFINITY,
            infeasible_to: f64::NEG_INFINITY,
            z0: None,
            probe_lp: None,
            growth_lp: None,
            stats: SolveStats::default(),
        }
    }

    /// Builds the instance with every window relaxed by `(1+b)`.
    fn instance_at(&mut self, b: f64) -> Instance {
        let ext: Vec<Job> = self
            .jobs
            .iter()
            .map(|j| j.with_extended_end(b, self.origin))
            .collect();
        let demands = self.demands.to_vec();
        Instance::build_with_demands(self.graph, &ext, demands, self.inst_cfg, self.pathset)
    }

    /// The memo's answer at `b`, else the probe LP's, which the memo keeps.
    fn answer(&mut self, b: f64) -> Result<bool, SolveError> {
        if b >= self.feasible_from {
            return Ok(true);
        }
        if b <= self.infeasible_to {
            return Ok(false);
        }
        let feasible = self.solve_probe(b)?;
        if feasible {
            self.feasible_from = b;
        } else {
            self.infeasible_to = b;
        }
        Ok(feasible)
    }

    /// Runs ahead of the `b_max` probe while nothing is known feasible:
    /// answers `b_max · 2^-k` upward from the gallop's start, up to the first
    /// feasible point or `b_max` itself, whichever comes first.
    fn gallop(&mut self) -> Result<(), SolveError> {
        let b_max = self.cfg.b_max;
        let estimate = self.z0.map_or(f64::INFINITY, |z| 1.0 / z - 1.0);
        let mut b = b_max;
        while b > estimate && 0.5 * b >= self.cfg.bsearch_tol {
            b *= 0.5;
        }
        while b < b_max && !self.answer(b)? {
            b *= 2.0;
        }
        Ok(())
    }

    /// Solves the probe LP at `b`: on the held LP in warm mode, built at
    /// `2b` when `b` is beyond its reach; on a fresh LP at `b` in cold mode.
    fn solve_probe(&mut self, b: f64) -> Result<bool, SolveError> {
        let sol = if self.cfg.warm_start {
            if self.probe_lp.as_ref().is_none_or(|lp| b > lp.reach) {
                // The outgrown LP goes before its successor is built.
                self.probe_lp = None;
                let reach = (2.0 * b).min(self.cfg.b_max);
                let inst = self.instance_at(reach);
                self.probe_lp = open_probe(&inst)?.map(|session| {
                    obs::counter_add("ret.probe_builds", 1);
                    EnvelopeLp::new(inst, reach, session)
                });
            }
            match &mut self.probe_lp {
                Some(lp) => lp.solve_at(self.jobs, self.origin, b)?,
                None => None,
            }
        } else {
            let sol = self.solve_fresh(b)?;
            if sol.is_some() {
                obs::counter_add("ret.probe_builds", 1);
            }
            sol
        };
        let Some(sol) = sol else {
            return Ok(false);
        };
        obs::counter_add("ret.probe_lps", 1);
        self.stats.merge(&sol.stats);
        if b == 0.0 {
            self.z0 = Some(sol.objective);
        }
        Ok(probe_feasible(&sol))
    }

    /// The probe LP built at `b` and solved cold; `None` when some job is
    /// unschedulable there.
    fn solve_fresh(&mut self, b: f64) -> Result<Option<Solution>, SolveError> {
        let inst = self.instance_at(b);
        open_probe(&inst)?
            .map(|mut session| session.solve())
            .transpose()
    }

    /// The probe at `b` answered directly by [`Self::solve_fresh`], with no
    /// memo, counter or statistic touched.
    #[cfg(test)]
    fn direct(&mut self, b: f64) -> Result<bool, SolveError> {
        Ok(self.solve_fresh(b)?.is_some_and(|sol| probe_feasible(&sol)))
    }
}

impl RetBackend for EnvelopeBackend<'_> {
    fn probe(&mut self, b: f64) -> Result<bool, SolveError> {
        obs::counter_add("ret.probes", 1);
        let _span = obs::span("ret_probe");
        if self.feasible_from.is_infinite() && b >= self.cfg.b_max {
            self.gallop()?;
        }
        self.answer(b)
    }

    fn quick_finish(&mut self, b: f64) -> Result<Option<(Instance, Vec<f64>)>, SolveError> {
        let origin = self.origin as usize;
        if self.growth_lp.is_none() {
            // The search is over: the probe LP goes, and the Quick-Finish LP
            // is built on the `b_max` envelope.
            self.probe_lp = None;
            let env = self.instance_at(self.cfg.b_max);
            let session = SolverSession::new(&build_subret(&env, origin))?;
            self.growth_lp = Some(EnvelopeLp::new(env, self.cfg.b_max, session));
        }
        let inst = self.instance_at(b);
        if b > self.cfg.b_max {
            let sol = solve(&build_subret(&inst, origin))?;
            self.stats.merge(&sol.stats);
            let x = (sol.status == Status::Optimal).then(|| sol.x[..inst.vars.len()].to_vec());
            return Ok(x.map(|x| (inst, x)));
        }
        #[expect(clippy::expect_used, reason = "invariant: populated just above")]
        let growth = self.growth_lp.as_mut().expect("invariant: growth LP built");
        let Some(sol) = growth.solve_at(self.jobs, self.origin, b)? else {
            return Ok(None);
        };
        self.stats.merge(&sol.stats);
        if sol.status != Status::Optimal {
            return Ok(None);
        }
        // The envelope's windows contain `inst`'s, so every variable of
        // `inst` has a counterpart in the envelope solution.
        let env = &growth.inst;
        let x = inst
            .vars
            .iter()
            .map(|(_, job, path, slice)| sol.x[env.vars.var(job, path, slice)])
            .collect();
        Ok(Some((inst, x)))
    }

    fn growth_limit(&self) -> f64 {
        self.cfg.b_max + RET_DELTA
    }

    fn stats(&self) -> SolveStats {
        self.stats
    }
}

/// Algorithm 2's backend over one column-generation master, built at the
/// `b_max` envelope and seeded with shortest paths: per trial `b` the
/// active windows tighten or reopen, the form switches (probe /
/// Quick-Finish), and the price–resolve loop re-prices — columns
/// accumulate monotonically across the whole search and the simplex basis
/// chains warm throughout. Growth is capped at the envelope: the pool's
/// windows cannot extend past `b_max`.
struct CgBackend<'a> {
    master: CgMaster,
    jobs: &'a [Job],
    cfg: &'a RetConfig,
    origin: f64,
}

impl RetBackend for CgBackend<'_> {
    /// Tightens the master's active windows, switches to the probe form,
    /// and runs the price–resolve loop. **Re-pricing after the bound change
    /// matters** — a path that was worthless under wide windows can become
    /// the completing path under tight ones, and a restricted master that
    /// skipped pricing here could wrongly answer "infeasible".
    fn probe(&mut self, b: f64) -> Result<bool, SolveError> {
        obs::counter_add("ret.probes", 1);
        let _span = obs::span("ret_probe");
        let Some(windows) = windows_at(self.master.grid(), self.jobs, self.origin, b) else {
            return Ok(false);
        };
        self.master.set_active_windows(&windows);
        self.master.install(Form::Probe);
        // Early-stop at the feasibility threshold: the restricted optimum
        // only underestimates the universe optimum, so reaching `Z >= 1`
        // already answers the probe — pricing to optimality is needed only
        // to certify infeasibility.
        let sol = self.master.price_resolve_until(probe_feasible)?;
        Ok(probe_feasible(&sol))
    }

    fn quick_finish(&mut self, b: f64) -> Result<Option<(Instance, Vec<f64>)>, SolveError> {
        let Some(windows) = windows_at(self.master.grid(), self.jobs, self.origin, b) else {
            return Ok(None);
        };
        self.master.set_active_windows(&windows);
        self.master.install(Form::QuickFinish);
        let sol = self.master.price_resolve()?;
        if sol.status != Status::Optimal {
            return Ok(None);
        }
        let ext: Vec<Job> = self
            .jobs
            .iter()
            .map(|j| j.with_extended_end(b, self.origin))
            .collect();
        let inst = self.master.materialize_for(&ext);
        let x = self.master.values_on(&inst, &sol.x);
        Ok(Some((inst, x)))
    }

    fn growth_limit(&self) -> f64 {
        self.cfg.b_max
    }

    fn stats(&self) -> SolveStats {
        self.master.session_stats()
    }
}

/// Solves the RET problem with Algorithm 2.
///
/// Returns `Ok(None)` when even `b_max` cannot complete all jobs (e.g. a
/// job with no usable path), `Err` on an empty job set or solver breakdown.
pub fn solve_ret(
    graph: &Graph,
    jobs: &[Job],
    inst_cfg: &InstanceConfig,
    cfg: &RetConfig,
) -> Result<Option<RetResult>, SolveError> {
    let demands: Vec<f64> = jobs
        .iter()
        .map(|j| inst_cfg.demand_units(j.size_gb))
        .collect();
    let mut pathset = PathSet::new(inst_cfg.paths_per_job);
    solve_ret_with_demands(graph, jobs, &demands, inst_cfg, cfg, 0.0, &mut pathset)
}

/// [`solve_ret`] with explicit normalized demands, measured from the
/// scheduling instant `origin` — used by the periodic controller to
/// complete the *remaining* demand of in-flight jobs. End times extend as
/// distances from `origin` and Quick-Finish weighs
/// slice `j` by `j - origin + 1`, so the answer does not depend on the
/// clock; no job may start before `origin`. Paths come from the caller's
/// `pathset` (`inst_cfg.paths_per_job` per endpoint pair), so a controller
/// pays Yen once per pair, not once per overloaded period.
pub fn solve_ret_with_demands(
    graph: &Graph,
    jobs: &[Job],
    demands: &[f64],
    inst_cfg: &InstanceConfig,
    cfg: &RetConfig,
    origin: f64,
    pathset: &mut PathSet,
) -> Result<Option<RetResult>, SolveError> {
    if jobs.len() != demands.len() {
        return Err(SolveError::InvalidModel(format!(
            "RET got {} jobs but {} demands",
            jobs.len(),
            demands.len()
        )));
    }
    if !(origin >= 0.0 && jobs.iter().all(|j| j.start >= origin)) {
        return Err(SolveError::InvalidModel(format!(
            "RET origin {origin} is negative or after a job's start"
        )));
    }
    let out = algorithm2(jobs, cfg, || {
        Ok(EnvelopeBackend::new(
            graph, jobs, demands, inst_cfg, cfg, origin, pathset,
        ))
    })?;
    Ok(out.map(|(result, _)| result))
}

/// Solves the RET problem (Algorithm 2) by delayed column generation: one
/// restricted master, built at the `b_max` envelope and seeded with
/// shortest paths, answers every bisection probe and δ-growth step.
///
/// Matches [`solve_ret`]'s trajectory semantics, end times measured from
/// time 0 included, with one documented difference: growth is capped at
/// the `b_max` envelope, where the monolithic path may take one final cold
/// step beyond `b_max`. Each job's paths are its `inst_cfg.paths_per_job`
/// Yen paths, the set [`solve_ret`] materializes. Returns the result
/// together with the column-generation work counters, or `Ok(None)` when
/// no extension within `b_max` completes all jobs. `_cg` has no effect:
/// it remains only because the outside-in benchmark passes it.
pub fn solve_ret_colgen(
    graph: &Graph,
    jobs: &[Job],
    inst_cfg: &InstanceConfig,
    cfg: &RetConfig,
    _cg: &ColGenConfig,
) -> Result<Option<(RetResult, CgStats)>, SolveError> {
    let origin = 0.0;
    let out = algorithm2(jobs, cfg, || {
        let demands = jobs
            .iter()
            .map(|j| inst_cfg.demand_units(j.size_gb))
            .collect();
        let env_jobs: Vec<Job> = jobs
            .iter()
            .map(|j| j.with_extended_end(cfg.b_max, origin))
            .collect();
        Ok(CgBackend {
            master: CgMaster::build(graph, &env_jobs, demands, inst_cfg)?,
            jobs,
            cfg,
            origin,
        })
    })?;
    Ok(out.map(|(result, backend)| (result, backend.master.stats())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavesched_net::abilene14;
    use wavesched_workload::{JobId, WorkloadConfig, WorkloadGenerator};

    fn overloaded_jobs(n: usize, seed: u64) -> (Graph, Vec<Job>) {
        let (g, _) = abilene14(2);
        let jobs = WorkloadGenerator::new(WorkloadConfig {
            num_jobs: n,
            seed,
            size_gb: (50.0, 100.0),
            window: (4.0, 8.0), // short windows force overload
            ..Default::default()
        })
        .generate(&g);
        (g, jobs)
    }

    #[test]
    fn ret_completes_all_jobs() {
        let (g, jobs) = overloaded_jobs(10, 2);
        let cfg = InstanceConfig::paper(2);
        let r = solve_ret(&g, &jobs, &cfg, &RetConfig::default())
            .unwrap()
            .expect("RET should find an extension");
        assert_eq!(r.lpdar_fraction_finished(), 1.0);
        assert_eq!(r.lp_fraction_finished(), 1.0);
        assert!(r.b_final >= r.b_lp);
        assert!(r.lpdar.is_integral(1e-9));
        assert!(r.lpdar.max_capacity_violation(&r.instance) < 1e-9);
    }

    #[test]
    fn lpd_finishes_fewer_than_lpdar() {
        let (g, jobs) = overloaded_jobs(12, 7);
        let cfg = InstanceConfig::paper(2);
        let r = solve_ret(&g, &jobs, &cfg, &RetConfig::default())
            .unwrap()
            .expect("feasible");
        assert!(
            r.lpd_fraction_finished() <= r.lpdar_fraction_finished(),
            "LPD {} > LPDAR {}",
            r.lpd_fraction_finished(),
            r.lpdar_fraction_finished()
        );
    }

    #[test]
    fn underloaded_needs_no_extension() {
        let (g, _) = abilene14(8);
        let jobs = WorkloadGenerator::new(WorkloadConfig {
            num_jobs: 3,
            seed: 1,
            size_gb: (1.0, 5.0),
            window: (16.0, 24.0),
            ..Default::default()
        })
        .generate(&g);
        let cfg = InstanceConfig::paper(8);
        let r = solve_ret(&g, &jobs, &cfg, &RetConfig::default())
            .unwrap()
            .expect("feasible");
        assert_eq!(r.b_lp, 0.0);
        assert_eq!(r.lpdar_fraction_finished(), 1.0);
    }

    #[test]
    fn quick_finish_packs_early() {
        // With plenty of slack, the QF objective should finish jobs well
        // before the extended deadline.
        let (g, nodes) = abilene14(4);
        let job = Job::new(JobId(0), 0.0, nodes[0], nodes[4], 75.0, 0.0, 20.0);
        let cfg = InstanceConfig::paper(4);
        let r = solve_ret(&g, &[job], &cfg, &RetConfig::default())
            .unwrap()
            .expect("feasible");
        let t = r.lpdar_avg_end_time().unwrap();
        assert!(t <= 3.0, "QF should finish early, got {t}");
    }

    #[test]
    fn impossible_job_returns_none() {
        // Disconnected destination: no extension helps.
        let mut g = Graph::new();
        let ns = g.add_nodes(3);
        g.add_link_pair(ns[0], ns[1], 2);
        // ns[2] is isolated.
        let job = Job::new(JobId(0), 0.0, ns[0], ns[2], 10.0, 0.0, 4.0);
        let cfg = InstanceConfig::paper(2);
        let r = solve_ret(&g, &[job], &cfg, &RetConfig::default()).unwrap();
        assert!(r.is_none());
    }

    #[test]
    fn warm_probes_match_cold_bitwise() {
        // Same b̂, same final b, and the exact same schedules — the session
        // only changes how fast probes are answered, never the answers.
        for seed in [2, 4, 7] {
            let (g, jobs) = overloaded_jobs(10, seed);
            let cfg = InstanceConfig::paper(2);
            let cold_cfg = RetConfig {
                warm_start: false,
                ..RetConfig::default()
            };
            let cold = solve_ret(&g, &jobs, &cfg, &cold_cfg)
                .unwrap()
                .expect("cold feasible");
            let warm = solve_ret(&g, &jobs, &cfg, &RetConfig::default())
                .unwrap()
                .expect("warm feasible");
            assert_eq!(cold.b_lp.to_bits(), warm.b_lp.to_bits(), "seed {seed}");
            assert_eq!(
                cold.b_final.to_bits(),
                warm.b_final.to_bits(),
                "seed {seed}"
            );
            assert_eq!(cold.lp, warm.lp, "seed {seed}");
            assert_eq!(cold.lpd, warm.lpd, "seed {seed}");
            assert_eq!(cold.lpdar, warm.lpdar, "seed {seed}");
            assert_eq!(cold.lp_solves(), warm.lp_solves(), "seed {seed}");
            // Cold mode still chains the δ-growth session (shared by both
            // modes); the warm mode adds the probe session on top.
            assert!(
                warm.stats.warm_starts_accepted >= cold.stats.warm_starts_accepted,
                "seed {seed}"
            );
            assert!(
                warm.stats.iterations <= cold.stats.iterations,
                "seed {seed}: warm {} > cold {}",
                warm.stats.iterations,
                cold.stats.iterations
            );
        }
    }

    #[test]
    fn warm_probes_cut_iterations_on_fig4_workload() {
        // The Fig. 4 RET workload (scaled to test size): warm-started probes
        // must save at least 45% of the total simplex iterations. Probes
        // answered from the monotone memo on a probe LP sized to the
        // bracket take 364 against 751 cold (52% saved); solving every
        // probe on the `b_max` envelope took 705 against 951 (26%).
        let (g, _) = abilene14(2);
        let jobs = WorkloadGenerator::new(WorkloadConfig {
            num_jobs: 15,
            seed: 3000,
            size_gb: (100.0, 400.0),
            window: (2.0, 4.0),
            ..Default::default()
        })
        .generate(&g);
        let cfg = InstanceConfig::paper(2);
        let base = RetConfig {
            bsearch_tol: 0.05,
            b_max: 10.0,
            max_delta_steps: 120,
            ..RetConfig::default()
        };
        let cold_cfg = RetConfig {
            warm_start: false,
            ..base.clone()
        };
        let cold = solve_ret(&g, &jobs, &cfg, &cold_cfg)
            .unwrap()
            .expect("cold feasible");
        let warm = solve_ret(&g, &jobs, &cfg, &base)
            .unwrap()
            .expect("warm feasible");
        assert_eq!(cold.b_lp.to_bits(), warm.b_lp.to_bits());
        assert_eq!(cold.lpdar, warm.lpdar);
        assert!(
            (warm.stats.iterations as f64) <= 0.55 * cold.stats.iterations as f64,
            "warm {} vs cold {} iterations: less than 45% saved",
            warm.stats.iterations,
            cold.stats.iterations
        );
    }

    /// Fig. 4-shaped overload: heavy transfers in short windows, so the
    /// fractional SUB-RET is infeasible at `b = 0` and the bisection
    /// actually runs (the lighter `overloaded_jobs` workloads are already
    /// LP-feasible unextended).
    fn bisecting_jobs(n: usize, seed: u64) -> (Graph, Vec<Job>) {
        let (g, _) = abilene14(2);
        let jobs = WorkloadGenerator::new(WorkloadConfig {
            num_jobs: n,
            seed,
            size_gb: (100.0, 400.0),
            window: (2.0, 4.0),
            ..Default::default()
        })
        .generate(&g);
        (g, jobs)
    }

    /// The RET knobs the Fig. 4 bench uses for that workload shape.
    fn bisecting_cfg() -> RetConfig {
        RetConfig {
            bsearch_tol: 0.05,
            b_max: 10.0,
            max_delta_steps: 120,
            ..RetConfig::default()
        }
    }

    /// [`EnvelopeBackend`] with every probe also answered by
    /// [`EnvelopeBackend::direct`]: logs `(b, answer, direct answer)` and
    /// counts the LP solves the backend's own answers took.
    struct Oracle<'a> {
        inner: EnvelopeBackend<'a>,
        log: Vec<(f64, bool, bool)>,
        probe_lps: u64,
    }

    impl RetBackend for Oracle<'_> {
        fn probe(&mut self, b: f64) -> Result<bool, SolveError> {
            let before = self.inner.stats.solves;
            let answer = self.inner.probe(b)?;
            self.probe_lps += self.inner.stats.solves - before;
            let direct = self.inner.direct(b)?;
            self.log.push((b, answer, direct));
            Ok(answer)
        }
        fn quick_finish(&mut self, b: f64) -> Result<Option<(Instance, Vec<f64>)>, SolveError> {
            self.inner.quick_finish(b)
        }
        fn growth_limit(&self) -> f64 {
            self.inner.growth_limit()
        }
        fn stats(&self) -> SolveStats {
            self.inner.stats()
        }
    }

    /// Runs Algorithm 2 over `jobs` through the [`Oracle`] in both probe
    /// modes. Every answer must be the direct one, and the `b` asked must be
    /// the sequence a search answering every probe directly asks: the
    /// opening `0` and `b_max`, then the bisection's midpoints. Returns the
    /// probes asked and the probe LPs solved, summed over the two modes.
    fn memo_answers_match_direct(g: &Graph, jobs: &[Job], cfg: &RetConfig) -> (u64, u64) {
        let inst_cfg = InstanceConfig::paper(2);
        let demands: Vec<f64> = jobs
            .iter()
            .map(|j| inst_cfg.demand_units(j.size_gb))
            .collect();
        let (mut asked, mut lps) = (0, 0);
        for warm_start in [true, false] {
            let ret = RetConfig {
                warm_start,
                ..cfg.clone()
            };
            let mut ps = PathSet::new(inst_cfg.paths_per_job);
            let out = algorithm2(jobs, &ret, || {
                Ok(Oracle {
                    inner: EnvelopeBackend::new(g, jobs, &demands, &inst_cfg, &ret, 0.0, &mut ps),
                    log: Vec::new(),
                    probe_lps: 0,
                })
            })
            .unwrap();
            let (_, oracle) = out.expect("feasible within b_max");
            let mut next = oracle.log.iter();
            let mut ask = |b: f64| {
                let &(asked, answer, direct) = next.next().expect("a probe the search asks");
                assert_eq!(
                    asked.to_bits(),
                    b.to_bits(),
                    "warm {warm_start}: asked {asked}, want {b}"
                );
                assert_eq!(answer, direct, "warm {warm_start}: answer at b = {b}");
                direct
            };
            if !ask(0.0) && ask(ret.b_max) {
                let (mut lo, mut hi) = (0.0, ret.b_max);
                while hi - lo > ret.bsearch_tol {
                    let mid = 0.5 * (lo + hi);
                    if !(lo < mid && mid < hi) {
                        break;
                    }
                    if ask(mid) {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
            }
            assert!(
                next.next().is_none(),
                "warm {warm_start}: probes past the search"
            );
            asked += oracle.log.len() as u64;
            lps += oracle.probe_lps;
        }
        (asked, lps)
    }

    #[test]
    fn memo_and_gallop_answer_as_direct_solves() {
        let (mut asked, mut lps) = (0, 0);
        for seed in [3000, 3001, 3002] {
            let (g, jobs) = bisecting_jobs(10, seed);
            let (a, l) = memo_answers_match_direct(&g, &jobs, &bisecting_cfg());
            (asked, lps) = (asked + a, lps + l);
        }
        // Fig. 4's own shape: its workload on a smoke-sized random network.
        let g = wavesched_net::waxman_network(&wavesched_net::WaxmanConfig {
            nodes: 30,
            link_pairs: 60,
            wavelengths: 2,
            ..wavesched_net::WaxmanConfig::paper_default(42)
        });
        for seed in [3000, 3001, 3002, 3003] {
            let jobs = WorkloadGenerator::new(WorkloadConfig {
                num_jobs: 20,
                seed,
                size_gb: (100.0, 400.0),
                window: (2.0, 4.0),
                ..Default::default()
            })
            .generate(&g);
            let (a, l) = memo_answers_match_direct(&g, &jobs, &bisecting_cfg());
            (asked, lps) = (asked + a, lps + l);
        }
        assert!(
            lps < asked,
            "the memo answered no probe: {lps} LPs for {asked} probes"
        );
    }

    #[test]
    fn routes_over_the_callers_path_cache() {
        // The caller's cache comes back holding the distinct endpoint pairs;
        // a second solve over it adds none and answers the same.
        let (g, jobs) = bisecting_jobs(10, 3000);
        let cfg = InstanceConfig::paper(2);
        let demands: Vec<f64> = jobs.iter().map(|j| cfg.demand_units(j.size_gb)).collect();
        let mut pairs: Vec<_> = jobs.iter().map(|j| (j.src, j.dst)).collect();
        pairs.sort_unstable();
        pairs.dedup();

        let mut ps = PathSet::new(cfg.paths_per_job);
        let mut solve = || {
            solve_ret_with_demands(&g, &jobs, &demands, &cfg, &bisecting_cfg(), 0.0, &mut ps)
                .unwrap()
                .expect("feasible")
        };
        let (first, again) = (solve(), solve());
        assert_eq!(ps.cached_pairs(), pairs.len());
        assert_eq!(first.b_final.to_bits(), again.b_final.to_bits());
        assert_eq!(first.lpdar, again.lpdar);
        assert_eq!(first.stats, again.stats);
    }

    #[test]
    fn malformed_job_sets_are_typed_errors() {
        let (g, jobs) = overloaded_jobs(2, 2);
        let (cfg, ret, cg) = (
            InstanceConfig::paper(2),
            RetConfig::default(),
            ColGenConfig::default(),
        );
        let mut ps = PathSet::new(cfg.paths_per_job);
        let cases = [
            ("no jobs", solve_ret(&g, &[], &cfg, &ret).map(drop)),
            (
                "no jobs, explicit demands",
                solve_ret_with_demands(&g, &[], &[], &cfg, &ret, 0.0, &mut ps).map(drop),
            ),
            (
                "2 jobs but 1 demand",
                solve_ret_with_demands(&g, &jobs, &[1.0], &cfg, &ret, 0.0, &mut ps).map(drop),
            ),
            (
                "origin after a job's start",
                solve_ret_with_demands(&g, &jobs, &[1.0, 1.0], &cfg, &ret, 1e9, &mut ps).map(drop),
            ),
            (
                "NaN origin",
                solve_ret_with_demands(&g, &jobs, &[1.0, 1.0], &cfg, &ret, f64::NAN, &mut ps)
                    .map(drop),
            ),
            (
                "no jobs, colgen",
                solve_ret_colgen(&g, &[], &cfg, &ret, &cg).map(drop),
            ),
        ];
        for (name, out) in cases {
            assert!(
                matches!(out, Err(SolveError::InvalidModel(_))),
                "{name}: {out:?}"
            );
        }

        // Hostile search knobs on a workload that bisects. Unchecked, a
        // non-positive tolerance asks for a search finer than the floats, a
        // NaN or infinite one skips it and answers `b_max`, a NaN or
        // negative `b_max` panics in the job model, and an infinite one
        // builds an endless horizon.
        let (g, jobs) = bisecting_jobs(10, 3000);
        let hostile = [
            ("bsearch_tol 0", 0.0, 10.0),
            ("bsearch_tol -1", -1.0, 10.0),
            ("bsearch_tol NaN", f64::NAN, 10.0),
            ("bsearch_tol inf", f64::INFINITY, 10.0),
            ("b_max NaN", 0.05, f64::NAN),
            ("b_max -1", 0.05, -1.0),
            ("b_max inf", 0.05, f64::INFINITY),
        ];
        for (name, bsearch_tol, b_max) in hostile {
            let ret = RetConfig {
                bsearch_tol,
                b_max,
                ..bisecting_cfg()
            };
            let mono = solve_ret(&g, &jobs, &cfg, &ret).map(drop);
            let colgen = solve_ret_colgen(&g, &jobs, &cfg, &ret, &cg).map(drop);
            for (solver, out) in [("solve_ret", mono), ("solve_ret_colgen", colgen)] {
                assert!(
                    matches!(out, Err(SolveError::InvalidModel(_))),
                    "{name}, {solver}: {out:?}"
                );
            }
        }
    }

    #[test]
    fn tolerance_below_float_spacing_ends_the_search() {
        // Bisection halts at adjacent floats; the answer is the one a
        // tolerance just above their spacing reaches.
        let (g, jobs) = bisecting_jobs(10, 3000);
        let cfg = InstanceConfig::paper(2);
        let at = |bsearch_tol: f64| {
            let ret = RetConfig {
                bsearch_tol,
                ..bisecting_cfg()
            };
            solve_ret(&g, &jobs, &cfg, &ret).unwrap().expect("feasible")
        };
        let (tiny, fine) = (at(f64::MIN_POSITIVE), at(1e-12));
        assert!(tiny.b_lp > 0.0, "workload must bisect");
        assert!((tiny.b_lp - fine.b_lp).abs() <= 1e-12);
    }

    #[test]
    fn b_lp_close_to_analytic() {
        // Single job, single 1-wavelength link, demand 8 units, window 4
        // slices => needs end extended to 8 slices: b ~ 1.0.
        let mut g = Graph::new();
        let ns = g.add_nodes(2);
        g.add_link_pair(ns[0], ns[1], 1);
        let job = Job::new(JobId(0), 0.0, ns[0], ns[1], 1200.0, 0.0, 4.0);
        let cfg = InstanceConfig::paper(1);
        let r = solve_ret(&g, &[job], &cfg, &RetConfig::default())
            .unwrap()
            .expect("feasible");
        assert!(
            (r.b_lp - 1.0).abs() <= 0.02,
            "expected b ~ 1.0, got {}",
            r.b_lp
        );
    }
}
