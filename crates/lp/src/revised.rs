//! Sparse two-phase revised simplex.
//!
//! This is the default LP solver of the crate. Key design points, following
//! standard practice for production simplex codes:
//!
//! * **Bounded-variable simplex** over the standardized form
//!   `A z = 0, l <= z <= u` (see `stdform`), so range rows and general
//!   bounds need no row/column blowup.
//! * **Two phases with signed artificials**: the initial basis is diagonal
//!   (row activity variables where feasible, artificials elsewhere); phase 1
//!   minimizes the total artificial magnitude, phase 2 the true objective.
//!   An artificial that leaves the basis is immediately fixed at zero and
//!   never priced again.
//! * **Product-form basis updates**: FTRAN/BTRAN go through a sparse LU
//!   factorization (Gilbert–Peierls left-looking, partial pivoting,
//!   sparsest-column-first ordering) plus an eta file, refactorized
//!   periodically and on numerical drift.
//! * **Devex pricing with a Bland fallback** after a run of degenerate
//!   pivots, guaranteeing termination in the presence of degeneracy (the
//!   MCF-style scheduling LPs of the paper are massively degenerate). The
//!   reference framework resets when the Devex weights blow up
//!   (`SolveStats::devex_resets` counts these).
//! * **Two-pass (Harris-style) ratio test**: pass one finds the best step
//!   with a relaxed feasibility tolerance, pass two picks the numerically
//!   largest pivot among the near-blocking rows.

mod dual;
mod lu;
mod sanitize;

use crate::model::{Col, Problem, Row};
use crate::solution::{Basis, BasisStatus, Solution, SolveError, SolveStats, Status};
use crate::sparse::{CscMatrix, WorkVec};
use crate::stdform::{standardize, ColKind, StdForm};
use crate::{is_inf, FEAS_TOL, OPT_TOL, PIVOT_TOL};
use wavesched_obs as obs;

use lu::{Lu, LuScratch};

/// Basis-refactorization policy: when the engine rebuilds the LU factors
/// instead of growing the product-form eta file, and whether a
/// [`SolverSession`] may carry the factorization across solves.
///
/// Every policy produces the same answers — the policy moves work between
/// `Lu::factor` and eta passes, and every claimed optimum is still
/// verified against a fresh factor before extraction. Only the pivot
/// *trajectory* (and with it the work counters) may differ between
/// policies; within one policy the trajectory is deterministic because
/// every trigger below counts entries, never wall-clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefactorPolicy {
    /// Refactorize on every solve entry and on the fixed
    /// [`SimplexConfig::refactor_interval`] cadence — the pre-persistence
    /// behavior, kept as the reuse-off A/B baseline.
    Always,
    /// Carry the factorization across session solves; in-loop
    /// refactorization on the fixed interval only.
    Interval,
    /// Carry the factorization across session solves; in-loop, also cut
    /// the eta file as soon as its entry count stops paying for itself
    /// against the factor's own entry count (the default; see
    /// `COST_MODEL_ETA_FACTOR`). The fixed interval stays as a hard cap.
    CostModel,
}

/// Cost-model trigger ratio: refactorize once the eta file holds more
/// than this many times the LU's entry count. One FTRAN/BTRAN pass
/// touches every factor entry and every eta entry once, but the factor
/// itself costs many passes' worth of work, so the cut only pays for
/// itself once the file dwarfs the factors — not at parity. At 8× the
/// pass spends ~90% of its time in the eta file before we cut; below
/// that the model fires more often than the interval cadence it
/// replaces and loses wall-clock to its own refactorizations.
const COST_MODEL_ETA_FACTOR: usize = 8;

/// Cost-model floor: never cut a file shorter than this many etas. Tiny
/// bases otherwise refactorize every few pivots, and the fixed overhead
/// of `Lu::factor` never amortizes over so short a window.
const COST_MODEL_MIN_ETAS: usize = 16;

/// Why a refactorization is being performed — routed into the matching
/// per-reason [`SolveStats`] counter so smoke fixtures can tell cadence
/// refactorizations from forced ones. (`refactor_forced_singular` is
/// counted separately per `repair_basis` call, and `refactor_reuse_rejected`
/// at the reuse gate; neither is a `refactorize` entry reason.)
#[derive(Debug, Clone, Copy)]
enum RefactorReason {
    /// The eta file reached the fixed `refactor_interval` cadence.
    Interval,
    /// The cost model decided the eta file stopped paying for itself.
    CostModel,
    /// Structurally required: solve entry, warm/dual basis installation,
    /// claimed-optimal verification, or a zero-pivot retry.
    Forced,
}

/// Tunable parameters of the revised simplex.
#[derive(Debug, Clone)]
pub struct SimplexConfig {
    /// Hard cap on total simplex iterations (both phases). `0` means the
    /// solver picks `50 * (rows + cols) + 10_000`.
    pub max_iterations: u64,
    /// Primal feasibility tolerance.
    pub feas_tol: f64,
    /// Reduced-cost optimality tolerance.
    pub opt_tol: f64,
    /// Minimum acceptable pivot magnitude.
    pub pivot_tol: f64,
    /// Refactorize after this many eta updates.
    pub refactor_interval: usize,
    /// Consecutive degenerate pivots before switching to Bland's rule.
    pub degeneracy_threshold: u64,
    /// Fraction of the basis dimension above which the sparse FTRAN/BTRAN
    /// kernels abandon pattern tracking and finish with the dense solves
    /// (`SolveStats` counts these fallbacks). `0.0` forces the dense
    /// kernels everywhere, which the differential tests use as an oracle:
    /// the answer is bit-identical either way, only the work differs.
    pub kernel_density_threshold: f64,
    /// Candidate-list partial pricing for the primal path: pricing scans a
    /// minor-iteration sublist of attractive columns instead of every
    /// nonbasic column, with periodic full refreshes. Bland's anti-cycling
    /// rule always bypasses the sublist, so the termination guarantee is
    /// unchanged.
    ///
    /// Off by default: partial pricing reaches the same *objective* but may
    /// land on a different vertex of a degenerate optimal face, and several
    /// consumers (LPDAR rounding, schedule extraction) are functions of the
    /// particular vertex. Callers whose decisions are objective-only (e.g.
    /// the RET feasibility probes) opt in per config.
    pub partial_pricing: bool,
    /// When to rebuild the LU factors vs. growing the eta file, and
    /// whether a [`SolverSession`] carries the factorization across
    /// solves. A disabled cadence (`refactor_interval: usize::MAX`, the
    /// kernel probes) pins the policy to [`RefactorPolicy::Interval`]
    /// regardless, so probed windows keep measuring steady-state eta
    /// chains.
    pub refactor_policy: RefactorPolicy,
}

impl Default for SimplexConfig {
    fn default() -> Self {
        SimplexConfig {
            max_iterations: 0,
            feas_tol: FEAS_TOL,
            opt_tol: OPT_TOL,
            pivot_tol: PIVOT_TOL,
            refactor_interval: 100,
            degeneracy_threshold: 400,
            kernel_density_threshold: 0.3,
            partial_pricing: false,
            refactor_policy: RefactorPolicy::CostModel,
        }
    }
}

/// Clamps a quantity to nonnegative with a deterministic `+0.0`.
///
/// `f64::max` leaves the sign of a zero result unspecified — optimized and
/// unoptimized builds can disagree on `(-0.0).max(0.0)` — and a `-0.0`
/// step or ratio leaks into `total_cmp`-ordered candidate sorts, which
/// distinguish the two zeros. Every zero-clamp on the pivot trajectory
/// (and, workspace-wide, every `.max(0.0)` the `zero-sign-clamp` lint rule
/// would otherwise flag) goes through here so debug and release builds
/// pick identical pivots. `NaN` clamps to `+0.0`, same as `f64::max(0.0)`.
#[inline]
pub fn pos_or_zero(t: f64) -> f64 {
    if t > 0.0 {
        t
    } else {
        0.0
    }
}

/// A structural column to append to a [`SolverSession`]'s held problem via
/// [`SolverSession::add_columns`]. Costs and bounds are in the original
/// objective direction, exactly as [`Problem::add_col`] takes them.
#[derive(Debug, Clone)]
pub struct NewColumn {
    /// Lower bound.
    pub lower: f64,
    /// Upper bound.
    pub upper: f64,
    /// Objective coefficient.
    pub cost: f64,
    /// Sparse constraint entries `(row, coefficient)`, in any order;
    /// duplicate rows are rejected.
    pub entries: Vec<(Row, f64)>,
}

/// A constraint row to append to a [`SolverSession`]'s held problem via
/// [`SolverSession::add_rows`], exactly as [`Problem::add_row`] takes it.
#[derive(Debug, Clone)]
pub struct NewRow {
    /// Row lower bound.
    pub lower: f64,
    /// Row upper bound.
    pub upper: f64,
    /// Sparse entries `(column, coefficient)` over the *structural*
    /// columns, in any order.
    pub entries: Vec<(Col, f64)>,
}

/// Solves `p` with the sparse revised simplex under default settings.
pub fn solve(p: &Problem) -> Result<Solution, SolveError> {
    solve_with(p, &SimplexConfig::default())
}

/// Solves `p` with explicit [`SimplexConfig`] settings.
pub fn solve_with(p: &Problem, cfg: &SimplexConfig) -> Result<Solution, SolveError> {
    solve_with_start(p, cfg, None)
}

/// Solves `p`, optionally warm-starting from a basis of a related problem.
///
/// When `start` is given and its shape matches `p` (same number of columns
/// and rows), the solver installs that basis, repairs any infeasibility it
/// causes with a bound-shift phase-1 restart, and proceeds to phase 2. On a
/// shape mismatch, any numerical trouble during installation, or a repair
/// phase 1 that cannot clear the violations (which includes every genuinely
/// infeasible instance — only the cold artificial-based phase 1 constitutes
/// an infeasibility proof), the solver silently restarts cold. A warm start
/// can therefore never change the answer, only the work required to reach
/// it. `Solution::stats` records which path ran (`warm_starts_accepted` /
/// `warm_start_fallbacks`).
pub fn solve_with_start(
    p: &Problem,
    cfg: &SimplexConfig,
    start: Option<&Basis>,
) -> Result<Solution, SolveError> {
    let std = standardize(p)?;
    let mut engine = Engine::new(std, cfg.clone());
    // A caller-supplied basis has no provenance guarantee, so the dual
    // re-solve and factorization-reuse paths (which require "own last
    // optimal basis with tracked edits") are reserved for `SolverSession`.
    engine.solve(start, false, false)
}

/// Folds a finished solve's counters into the process-wide observability
/// registry (one branch when the layer is disabled, see `wavesched-obs`).
fn publish_stats(s: &SolveStats, nrows: usize) {
    if !obs::enabled() {
        return;
    }
    obs::counter_add("lp.solves", s.solves);
    obs::counter_add("lp.iterations", s.iterations);
    obs::counter_add("lp.phase1_iterations", s.phase1_iterations);
    obs::counter_add("lp.refactorizations", s.refactorizations);
    obs::counter_add("lp.refactor_interval", s.refactor_interval);
    obs::counter_add("lp.refactor_cost_model", s.refactor_cost_model);
    obs::counter_add("lp.refactor_forced_fallback", s.refactor_forced_fallback);
    obs::counter_add("lp.refactor_forced_singular", s.refactor_forced_singular);
    obs::counter_add("lp.refactor_reuse_rejected", s.refactor_reuse_rejected);
    obs::counter_add("lp.lu_reuse_hits", s.lu_reuse_hits);
    obs::counter_add("lp.lu_updates", s.lu_updates);
    obs::counter_add("lp.degenerate_pivots", s.degenerate_pivots);
    obs::counter_add("lp.devex_resets", s.devex_resets);
    obs::counter_add("lp.bound_flips", s.bound_flips);
    obs::counter_add("lp.warm_starts_accepted", s.warm_starts_accepted);
    obs::counter_add("lp.warm_start_fallbacks", s.warm_start_fallbacks);
    obs::counter_add("lp.ftran_dense_fallbacks", s.ftran_dense_fallbacks);
    obs::counter_add("lp.btran_dense_fallbacks", s.btran_dense_fallbacks);
    obs::counter_add("lp.dual_iterations", s.dual_iterations);
    obs::counter_add("lp.dual_bound_flips", s.dual_bound_flips);
    obs::counter_add(
        "lp.pricing_candidates_scanned",
        s.pricing_candidates_scanned,
    );
    obs::counter_add("lp.partial_refreshes", s.partial_refreshes);
    obs::counter_add("lp.sanitizer_checks", s.sanitizer_checks);
    obs::counter_add("lp.sanitizer_violations", s.sanitizer_violations);
    obs::record("lp.solve_iterations", s.iterations);
    // Kernel density profile: histograms of the per-solve mean nonzero
    // counts and densities (percent of the basis dimension), the signal
    // that says whether hypersparsity is paying off on this workload.
    if let Some(avg) = s.ftran_nnz.checked_div(s.ftran_ops) {
        obs::record("lp.ftran_avg_nnz", avg);
        if let Some(pct) = (s.ftran_nnz * 100).checked_div(s.ftran_ops * nrows as u64) {
            obs::record("lp.ftran_density_pct", pct);
        }
    }
    if let Some(row_nnz) = s.pivot_row_nnz.checked_div(s.btran_ops) {
        obs::record("lp.pivot_row_nnz", row_nnz);
        if let Some(pct) = (s.btran_nnz * 100).checked_div(s.btran_ops * nrows as u64) {
            obs::record("lp.btran_density_pct", pct);
        }
    }
}

/// Where a nonbasic variable rests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VarState {
    Basic(u32),
    AtLower,
    AtUpper,
    /// Free nonbasic, resting at zero.
    Free,
    /// Fixed (`l == u`) or retired artificial; never priced.
    Fixed,
}

#[derive(Clone)]
struct Engine {
    std: StdForm,
    cfg: SimplexConfig,
    /// Column occupying each basis position.
    basis: Vec<usize>,
    /// State per standardized column.
    state: Vec<VarState>,
    /// Current value per standardized column (basic entries mirrored from
    /// `xb` on demand).
    xval: Vec<f64>,
    /// Basic values by basis position.
    xb: Vec<f64>,
    /// Phase-dependent cost vector.
    cost: Vec<f64>,
    lu: Option<Lu>,
    etas: EtaFile,
    stats: SolveStats,
    /// Consecutive degenerate pivots; triggers Bland's rule.
    degen_run: u64,
    bland: bool,
    /// Scratch: dense vector indexed by basis position.
    work_pos: Vec<f64>,
    /// Scratch: dense vector indexed by row.
    work_row: Vec<f64>,
    /// Reduced costs, updated incrementally per pivot and recomputed at
    /// every refactorization.
    d: Vec<f64>,
    /// Devex reference weights.
    weights: Vec<f64>,
    /// Row-wise mirror of the constraint matrix in CSR form (column
    /// indices only; values are re-gathered column-wise). Built at
    /// construction and rebuilt wholesale whenever the structure grows
    /// (`append_columns` / `append_rows`); between growth events the
    /// matrix structure is immutable, only bounds and costs change. It
    /// lets the pivotal-row pass touch only columns intersecting the
    /// (sparse) BTRAN result.
    csr_ptr: Vec<usize>,
    csr_cols: Vec<u32>,
    /// Sparse FTRAN scratch: the entering column (row-indexed RHS).
    ftran_rhs: WorkVec,
    /// Sparse FTRAN result `w = B^{-1} a_q` (basis-position indexed),
    /// borrowed out of the engine for the ratio-test/pivot span via
    /// `mem::take` and always put back.
    ftran_w: WorkVec,
    /// Sparse pivotal-row BTRAN result `rho = B^{-T} e_r` (row-indexed).
    rho: WorkVec,
    /// Dense BTRAN scratch for full dual recomputation (row-indexed).
    dual: Vec<f64>,
    /// Pricing scratch: nonbasic columns touched by the pivotal row. Sized
    /// to `nnz(A)` up front (the worst-case number of pushes before
    /// dedup), so steady-state pivots never grow it.
    touched: Vec<u32>,
    /// DFS scratch for the sparse LU triangular solves.
    lu_scratch: LuScratch,
    /// Per-eta activation flags for the pruned BTRAN eta pass (scratch,
    /// rebuilt from the rhs pattern on every sparse BTRAN).
    eta_active: Vec<bool>,
    /// Reach size above which the sparse kernels fall back to dense
    /// (`kernel_density_threshold` × rows, precomputed).
    kernel_cap: usize,
    /// Columns whose bounds are temporarily shifted during phase 1 so the
    /// starting point is feasible, with their original bounds. Covers the
    /// signed artificials of a cold start and any basic variables a warm
    /// start left outside their bounds.
    relaxed: Vec<Relaxed>,
    /// Partial-pricing candidate list: column indices, rebuilt by each full
    /// refresh, scanned on minor iterations. Cleared at phase start.
    cand: Vec<u32>,
    /// Candidate membership flags (sized to the column count at phase
    /// start); Devex weight maintenance is restricted to members while the
    /// sublist is active.
    cand_member: Vec<bool>,
    /// Minor iterations remaining before the next forced full refresh.
    cand_budget: u32,
    /// Refresh scratch: `(score, column)` pairs of eligible columns.
    cand_scores: Vec<(f64, u32)>,
    /// Dual ratio-test scratch: `(column, alpha)` pairs over the pivotal
    /// row's nonbasic support.
    dual_cols: Vec<(u32, f64)>,
    /// Dual BFRT scratch: candidate order of `dual_cols` indices, sorted by
    /// dual ratio.
    dual_order: Vec<u32>,
    /// Sanitizer sweep interval (`WS_SANITIZE`, resolved at construction);
    /// 0 disables the sanitizer entirely.
    sanitize_every: u64,
    /// Pivots remaining until the next sanitizer sweep (0 when disabled).
    sanitize_left: u64,
    /// Entry count of the current LU factors, set at every
    /// refactorization and bumped by the `add_rows` border extension —
    /// the cost model's per-pass work unit.
    lu_nnz: usize,
    /// True when the live engine state is a clean optimal endpoint the
    /// next solve may continue from without reinstalling anything:
    /// basis/state/xval consistent, LU factored for the live basis, eta
    /// file empty except for structural bordering etas. Cleared on every
    /// solve entry, re-established after an optimal extract, and
    /// maintained (not cleared) by `append_columns` / `append_rows`.
    reuse_ready: bool,
    /// Bordering etas appended by structural edits since the last solve,
    /// folded into the next solve's `lu_updates` stat.
    pending_lu_updates: u64,
}

/// A phase-1 bound relaxation: column `col` temporarily has one bound opened
/// and a ±1 phase-1 cost; `(lo, up)` are the bounds to restore afterwards.
#[derive(Clone)]
struct Relaxed {
    col: usize,
    lo: f64,
    up: f64,
}

/// The product-form eta file: `B_new = B_old * E_1 … E_k`, each `E` the
/// identity with column `pos` replaced by `w = B_old^{-1} a_q`.
///
/// Stored as a flat arena — every eta's entry list lives back-to-back in
/// one buffer — so steady-state pivots append without allocating once the
/// buffers reach their working set, and clearing at refactorization keeps
/// the capacity.
#[derive(Debug, Clone, Default)]
struct EtaFile {
    heads: Vec<EtaHead>,
    /// `(basis position, w value)` entries, ascending by position within
    /// each eta — the BTRAN gather order depends on it.
    entries: Vec<(u32, f64)>,
    /// Row-wise index over the arena: `pos_head[i]` is the most recent
    /// entry slot referencing basis position `i` (`ETA_NONE` if none), and
    /// `link`/`eta_of` run parallel to `entries`, chaining each slot to
    /// the previous one for the same position and naming its eta. Lets a
    /// sparse BTRAN visit only the etas that intersect its pattern.
    pos_head: Vec<u32>,
    link: Vec<u32>,
    eta_of: Vec<u32>,
}

/// Chain terminator / "no entry" sentinel for the eta row index.
const ETA_NONE: u32 = u32::MAX;

/// Header of one eta: its pivotal basis position, the offset of its entry
/// list in the arena, and the pivot element `w[pos]`.
#[derive(Debug, Clone, Copy)]
struct EtaHead {
    pos: u32,
    start: usize,
    pivot: f64,
}

impl EtaFile {
    fn len(&self) -> usize {
        self.heads.len()
    }

    fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Sizes the per-position chain heads (idempotent; one-time cost at
    /// engine construction).
    fn ensure_rows(&mut self, m: usize) {
        if self.pos_head.len() < m {
            self.pos_head.resize(m, ETA_NONE);
        }
    }

    /// Drops every eta but keeps the allocated buffers. Chain heads are
    /// reset by walking the entries (cheaper than refilling all `m`).
    fn clear(&mut self) {
        for &(i, _) in &self.entries {
            self.pos_head[i as usize] = ETA_NONE;
        }
        self.heads.clear();
        self.entries.clear();
        self.link.clear();
        self.eta_of.clear();
    }

    /// Pre-grows the arena (used by the allocation-free probe harness).
    fn reserve(&mut self, heads: usize, entries: usize) {
        self.heads.reserve(heads);
        self.entries.reserve(entries);
        self.link.reserve(entries);
        self.eta_of.reserve(entries);
    }

    #[inline]
    fn head(&self, k: usize) -> EtaHead {
        self.heads[k]
    }

    #[inline]
    fn entries_of(&self, k: usize) -> &[(u32, f64)] {
        let lo = self.heads[k].start;
        let hi = self
            .heads
            .get(k + 1)
            .map_or(self.entries.len(), |h| h.start);
        &self.entries[lo..hi]
    }

    /// Opens a new eta; its entries follow via [`Self::push_entry`].
    fn begin(&mut self, pos: u32, pivot: f64) {
        self.heads.push(EtaHead {
            pos,
            start: self.entries.len(),
            pivot,
        });
    }

    fn push_entry(&mut self, i: u32, v: f64) {
        let slot = self.entries.len() as u32;
        self.link.push(self.pos_head[i as usize]);
        self.eta_of.push(self.heads.len() as u32 - 1);
        self.pos_head[i as usize] = slot;
        self.entries.push((i, v));
    }
}

enum PhaseOutcome {
    Optimal,
    Unbounded,
    IterationLimit,
}

/// Builds the flat CSR row mirror (column indices per row) of `a`. Filling
/// in ascending column order keeps each row's list sorted, so the
/// pivotal-row pass visits columns in the same order a dense scan would.
fn build_row_mirror(a: &CscMatrix) -> (Vec<usize>, Vec<u32>) {
    let m = a.nrows();
    let mut csr_ptr = vec![0usize; m + 1];
    for j in 0..a.ncols() {
        let (rows, _) = a.col(j);
        for &r in rows {
            csr_ptr[r as usize + 1] += 1;
        }
    }
    for r in 0..m {
        csr_ptr[r + 1] += csr_ptr[r];
    }
    let mut csr_cols = vec![0u32; a.nnz()];
    let mut fill = csr_ptr.clone();
    for j in 0..a.ncols() {
        let (rows, _) = a.col(j);
        for &r in rows {
            csr_cols[fill[r as usize]] = j as u32;
            fill[r as usize] += 1;
        }
    }
    (csr_ptr, csr_cols)
}

impl Engine {
    fn new(std: StdForm, mut cfg: SimplexConfig) -> Self {
        let m = std.nrows;
        let ncols = std.ncols();
        if cfg.max_iterations == 0 {
            cfg.max_iterations = 50 * (m as u64 + ncols as u64) + 10_000;
        }
        // A disabled cadence (usize::MAX, the kernel probes) pins the
        // policy to the plain interval mode: probed windows must measure
        // steady-state eta chains deterministically.
        if cfg.refactor_interval == usize::MAX {
            cfg.refactor_policy = RefactorPolicy::Interval;
        }
        let nnz = std.a.nnz();
        let (csr_ptr, csr_cols) = build_row_mirror(&std.a);
        // lint: allow(lossy-cast, reason = "intentional truncation of a density fraction to a scratch-arena size")
        let kernel_cap = (pos_or_zero(cfg.kernel_density_threshold) * m as f64) as usize;
        let mut etas = EtaFile::default();
        etas.ensure_rows(m);
        Engine {
            cost: vec![0.0; ncols],
            state: vec![VarState::Fixed; ncols],
            xval: vec![0.0; ncols],
            basis: Vec::with_capacity(m),
            xb: vec![0.0; m],
            lu: None,
            etas,
            stats: SolveStats::default(),
            degen_run: 0,
            bland: false,
            work_pos: vec![0.0; m],
            work_row: vec![0.0; m],
            d: vec![0.0; ncols],
            weights: vec![1.0; ncols],
            csr_ptr,
            csr_cols,
            ftran_rhs: WorkVec::new(m),
            ftran_w: WorkVec::new(m),
            rho: WorkVec::new(m),
            dual: vec![0.0; m],
            touched: Vec::with_capacity(nnz),
            lu_scratch: LuScratch::new(m),
            eta_active: Vec::new(),
            kernel_cap,
            relaxed: Vec::new(),
            cand: Vec::new(),
            cand_member: vec![false; ncols],
            cand_budget: 0,
            cand_scores: Vec::with_capacity(ncols),
            dual_cols: Vec::with_capacity(nnz),
            dual_order: Vec::with_capacity(nnz),
            sanitize_every: sanitize::sanitize_env(),
            sanitize_left: sanitize::sanitize_env(),
            lu_nnz: 0,
            reuse_ready: false,
            pending_lu_updates: 0,
            std,
            cfg,
        }
    }

    /// Rebuilds every structure-derived piece of engine state after the
    /// standardized form grew columns and/or rows: the CSR row mirror, the
    /// row-dimensioned scratch buffers, the kernel density cap, and the
    /// auto-derived iteration budget. The carried factorization and eta
    /// file are deliberately left alone — the callers (`append_columns`,
    /// `append_rows`) decide between preserving the factorization across
    /// the splice and dropping it via `invalidate_factorization`.
    fn after_structure_change(&mut self) {
        let m = self.std.nrows;
        let ncols = self.std.ncols();
        let (csr_ptr, csr_cols) = build_row_mirror(&self.std.a);
        self.csr_ptr = csr_ptr;
        self.csr_cols = csr_cols;
        if self.xb.len() != m {
            self.xb.resize(m, 0.0);
            self.work_pos.resize(m, 0.0);
            self.work_row.resize(m, 0.0);
            self.dual.resize(m, 0.0);
            self.ftran_rhs = WorkVec::new(m);
            self.ftran_w = WorkVec::new(m);
            self.rho = WorkVec::new(m);
            self.lu_scratch = LuScratch::new(m);
            self.etas.ensure_rows(m);
        }
        // lint: allow(lossy-cast, reason = "intentional truncation of a density fraction to a scratch-arena size")
        self.kernel_cap = (pos_or_zero(self.cfg.kernel_density_threshold) * m as f64) as usize;
        self.touched = Vec::with_capacity(self.std.a.nnz());
        // The default iteration cap scales with the problem size; growth
        // may only raise it (an explicit user cap is never lowered).
        self.cfg.max_iterations = self
            .cfg
            .max_iterations
            .max(50 * (m as u64 + ncols as u64) + 10_000);
    }

    /// Drops the carried factorization and every piece of cross-solve
    /// bookkeeping that rides on it. The next solve entry refactorizes
    /// from scratch.
    fn invalidate_factorization(&mut self) {
        self.lu = None;
        self.etas.clear();
        self.reuse_ready = false;
        self.pending_lu_updates = 0;
    }

    /// Parks a freshly spliced column nonbasic exactly the way the crash
    /// basis would rest it, so a preserved factorization sees a consistent
    /// nonbasic point without a full solve-entry rewrite.
    fn park_fresh(&mut self, j: usize) {
        let (l, u) = (self.std.lower[j], self.std.upper[j]);
        self.state[j] = if self.std.kind[j] == ColKind::Artificial || l == u {
            VarState::Fixed
        } else if l.is_finite() && (u.is_infinite() || l.abs() <= u.abs()) {
            VarState::AtLower
        } else if u.is_finite() {
            VarState::AtUpper
        } else {
            VarState::Free
        };
        self.xval[j] = self.std.resting_value(j);
    }

    /// Product-form extension of a carried factorization after
    /// [`Self::append_rows`] grew the basis by `k` rows: the new activity
    /// columns (spliced at `at`) become basic at the new positions, the LU
    /// is trivially extended to factor `diag(B_old, -I)`, and one eta per
    /// old basis column with new-row entries supplies the coupling block.
    ///
    /// Writing `B_new = [[B_old, 0], [C, -I]]` (columns: old basis then new
    /// activity columns; `C` = new-row entries of the old basis columns),
    /// `ExtLU^{-1} B_new = [[I, 0], [-C, I]]`, which is the commuting
    /// product over old positions `p` of the eta with column `p` replaced
    /// by `e_p - sum_i C[i][p] e_{m0+i}`. CG's capacity rows carry no
    /// coefficients on existing columns, so the hot path appends zero etas.
    fn extend_factorization(&mut self, m0: usize, k: usize, at: usize) {
        let lu = self
            .lu
            .as_mut()
            // lint: allow(lib-unwrap, reason = "invariant: the caller checked lu.is_some() before choosing the preserve path")
            .expect("invariant: extend_factorization needs a live LU");
        lu.extend_rows(k);
        self.lu_nnz += k;
        for i in 0..k {
            let j = at + i;
            self.basis.push(j);
            // lint: allow(lossy-cast, reason = "basis positions are bounded by the CSR u32 index width by construction")
            self.state[j] = VarState::Basic((m0 + i) as u32);
        }
        for p in 0..m0 {
            let (rows, vals) = self.std.a.col(self.basis[p]);
            let cut = rows.partition_point(|&r| (r as usize) < m0);
            if cut == rows.len() {
                continue;
            }
            // lint: allow(lossy-cast, reason = "basis positions are bounded by the CSR u32 index width by construction")
            self.etas.begin(p as u32, 1.0);
            self.etas.push_entry(p as u32, 1.0);
            for t in cut..rows.len() {
                self.etas.push_entry(rows[t], -vals[t]);
            }
            self.pending_lu_updates += 1;
        }
    }

    /// Appends structural columns to the held standardized form, shifting
    /// the activity and artificial blocks right. The per-column engine
    /// buffers get placeholder entries (every solve path rewrites all
    /// per-column state before use) and basic column indices are re-pointed
    /// past the insertion, so a basis held across the append stays valid.
    fn append_columns(&mut self, cols: &[NewColumn]) {
        if cols.is_empty() {
            return;
        }
        // A nonbasic column splice never touches B: the carried
        // factorization stays valid as long as the new columns are parked
        // nonbasic (done below, after the per-column state exists).
        let preserve = self.reuse_ready && self.lu.is_some();
        let n0 = self.std.nstruct;
        let k = cols.len();
        let mut packed: Vec<Vec<(u32, f64)>> = Vec::with_capacity(k);
        let mut lows = Vec::with_capacity(k);
        let mut ups = Vec::with_capacity(k);
        let mut costs = Vec::with_capacity(k);
        for c in cols {
            assert!(!c.lower.is_nan() && !c.upper.is_nan(), "NaN bound");
            assert!(c.cost.is_finite(), "non-finite cost");
            let l = if is_inf(c.lower) && c.lower < 0.0 {
                f64::NEG_INFINITY
            } else {
                c.lower
            };
            let u = if is_inf(c.upper) && c.upper > 0.0 {
                f64::INFINITY
            } else {
                c.upper
            };
            assert!(l <= u, "bounds crossed: [{l}, {u}]");
            lows.push(l);
            ups.push(u);
            costs.push(self.std.obj_sign * c.cost);
            let mut es: Vec<(u32, f64)> = c
                .entries
                .iter()
                .map(|&(r, v)| {
                    assert!(r.index() < self.std.nrows, "row out of range");
                    assert!(v.is_finite(), "non-finite coefficient");
                    (r.index() as u32, v)
                })
                .collect();
            es.sort_unstable_by_key(|&(r, _)| r);
            for w in es.windows(2) {
                assert!(w[0].0 != w[1].0, "duplicate row entry in new column");
            }
            packed.push(es);
        }
        self.std.a.insert_cols(n0, &packed);
        self.std.lower.splice(n0..n0, lows);
        self.std.upper.splice(n0..n0, ups);
        self.std.cost.splice(n0..n0, costs);
        self.std.kind.splice(n0..n0, vec![ColKind::Structural; k]);
        self.std.nstruct = n0 + k;
        self.cost.splice(n0..n0, vec![0.0; k]);
        self.state.splice(n0..n0, vec![VarState::Fixed; k]);
        self.xval.splice(n0..n0, vec![0.0; k]);
        self.d.splice(n0..n0, vec![0.0; k]);
        self.weights.splice(n0..n0, vec![1.0; k]);
        for b in &mut self.basis {
            if *b >= n0 {
                *b += k;
            }
        }
        self.after_structure_change();
        if preserve {
            for j in n0..n0 + k {
                self.park_fresh(j);
            }
        } else {
            self.invalidate_factorization();
        }
    }

    /// Appends constraint rows to the held standardized form: the matrix
    /// grows `k` rows, each new row gets an activity column (single `-1`,
    /// bounded by the row bounds) spliced at the end of the activity block
    /// and an artificial column (single `+1`, fixed at zero) at the end of
    /// the artificial block. Basic column indices in the shifted region are
    /// re-pointed, so a basis held across the append stays valid.
    fn append_rows(&mut self, rows: &[NewRow]) {
        if rows.is_empty() {
            return;
        }
        let m0 = self.std.nrows;
        let n = self.std.nstruct;
        let k = rows.len();
        // Row growth changes B itself; a carried factorization survives
        // only through the product-form extension below, which needs the
        // held basis to cover exactly the pre-growth rows.
        let preserve = self.reuse_ready && self.lu.is_some() && self.basis.len() == m0;
        let mut trips: Vec<(u32, u32, f64)> = Vec::new();
        let mut lows = Vec::with_capacity(k);
        let mut ups = Vec::with_capacity(k);
        for (i, r) in rows.iter().enumerate() {
            assert!(!r.lower.is_nan() && !r.upper.is_nan(), "NaN bound");
            let l = if is_inf(r.lower) && r.lower < 0.0 {
                f64::NEG_INFINITY
            } else {
                r.lower
            };
            let u = if is_inf(r.upper) && r.upper > 0.0 {
                f64::INFINITY
            } else {
                r.upper
            };
            assert!(l <= u, "bounds crossed: [{l}, {u}]");
            lows.push(l);
            ups.push(u);
            for &(c, v) in &r.entries {
                assert!(c.index() < n, "col out of range");
                assert!(v.is_finite(), "non-finite coefficient");
                // lint: allow(lossy-cast, reason = "row indices are bounded by the CSR u32 index width by construction")
                trips.push(((m0 + i) as u32, c.index() as u32, v));
            }
        }
        self.std.a.append_rows(k, &trips);
        // lint: allow(lossy-cast, reason = "row indices are bounded by the CSR u32 index width by construction")
        let acts: Vec<Vec<(u32, f64)>> = (0..k).map(|i| vec![((m0 + i) as u32, -1.0)]).collect();
        self.std.a.insert_cols(n + m0, &acts);
        for i in 0..k {
            // lint: allow(lossy-cast, reason = "row indices are bounded by the CSR u32 index width by construction")
            self.std.a.push_col(&[((m0 + i) as u32, 1.0)]);
        }
        let at = n + m0;
        self.std.lower.splice(at..at, lows);
        self.std.upper.splice(at..at, ups);
        self.std.cost.splice(at..at, vec![0.0; k]);
        self.std.kind.splice(at..at, vec![ColKind::Activity; k]);
        self.std.lower.resize(self.std.lower.len() + k, 0.0);
        self.std.upper.resize(self.std.upper.len() + k, 0.0);
        self.std.cost.resize(self.std.cost.len() + k, 0.0);
        self.std
            .kind
            .resize(self.std.kind.len() + k, ColKind::Artificial);
        self.std.nrows = m0 + k;
        // Placeholder per-column engine state for the new activity columns
        // (spliced) and artificial columns (appended).
        self.cost.splice(at..at, vec![0.0; k]);
        self.state.splice(at..at, vec![VarState::Fixed; k]);
        self.xval.splice(at..at, vec![0.0; k]);
        self.d.splice(at..at, vec![0.0; k]);
        self.weights.splice(at..at, vec![1.0; k]);
        self.cost.resize(self.cost.len() + k, 0.0);
        self.state.resize(self.state.len() + k, VarState::Fixed);
        self.xval.resize(self.xval.len() + k, 0.0);
        self.d.resize(self.d.len() + k, 0.0);
        self.weights.resize(self.weights.len() + k, 1.0);
        for b in &mut self.basis {
            if *b >= at {
                *b += k;
            }
        }
        self.after_structure_change();
        if preserve {
            self.extend_factorization(m0, k, at);
        } else {
            self.invalidate_factorization();
        }
    }

    /// Clears all per-solve state so the engine can run again on its held
    /// (possibly mutated) standardized form. Artificial columns are returned
    /// to their pristine fixed-at-zero state; a previous solve may have
    /// signed and opened them.
    fn reset_for_solve(&mut self) {
        self.stats = SolveStats {
            solves: 1,
            ..SolveStats::default()
        };
        self.cost.fill(0.0);
        self.etas.clear();
        self.lu = None;
        self.bland = false;
        self.degen_run = 0;
        self.relaxed.clear();
        self.reset_candidates();
        for i in 0..self.std.nrows {
            let a = self.std.artificial_col(i);
            self.std.lower[a] = 0.0;
            self.std.upper[a] = 0.0;
            self.state[a] = VarState::Fixed;
            self.xval[a] = 0.0;
        }
    }

    /// Builds the crash basis: activity variable where its natural value is
    /// feasible, signed artificial otherwise. Sets phase-1 costs.
    fn crash(&mut self) {
        let m = self.std.nrows;
        // Rest all structural and activity columns; fix unused artificials.
        for j in 0..self.std.ncols() {
            let (l, u) = (self.std.lower[j], self.std.upper[j]);
            self.state[j] = if self.std.kind[j] == ColKind::Artificial || l == u {
                VarState::Fixed
            } else if l.is_finite() && (u.is_infinite() || l.abs() <= u.abs()) {
                VarState::AtLower
            } else if u.is_finite() {
                VarState::AtUpper
            } else {
                VarState::Free
            };
            self.xval[j] = self.std.resting_value(j);
        }
        // Row activities of the structural block at the resting point.
        let act = {
            let mut act = vec![0.0; m];
            for j in 0..self.std.nstruct {
                let xj = self.xval[j];
                // lint: allow(float-eq, reason = "exact-zero skip is a sparsity guard: skipping true zeros never changes the arithmetic")
                if xj != 0.0 {
                    self.std.a.col_axpy(j, xj, &mut act);
                }
            }
            act
        };
        self.basis.clear();
        #[allow(clippy::needless_range_loop)] // parallel arrays, index is clearest
        for i in 0..m {
            let s = self.std.activity_col(i);
            let (sl, su) = (self.std.lower[s], self.std.upper[s]);
            let v = act[i];
            let tol = self.cfg.feas_tol;
            if v >= sl - tol && v <= su + tol {
                // Activity variable basic and feasible: no artificial needed.
                self.basis.push(s);
                self.state[s] = VarState::Basic(i as u32);
                self.xb[i] = v;
            } else {
                // Rest the activity at its nearest bound, make the signed
                // artificial basic with the residual.
                let srest = if v < sl { sl } else { su };
                self.xval[s] = srest;
                self.state[s] = if srest == sl {
                    VarState::AtLower
                } else {
                    VarState::AtUpper
                };
                let a = self.std.artificial_col(i);
                // Row equation: act - s + a = 0  =>  a = s - act.
                let aval = srest - v;
                self.relax_column(a, aval);
                self.basis.push(a);
                self.state[a] = VarState::Basic(i as u32);
                self.xb[i] = aval;
            }
        }
    }

    /// Solves the held standardized form, warm-starting from `start` when
    /// supplied and usable, with a silent cold fallback otherwise.
    /// `try_dual` additionally tries a dual simplex re-solve first — only
    /// correct when `start` is this engine's own last optimal basis and
    /// nothing but bounds/RHS changed since (the caller asserts that); the
    /// dual path degrades to the ordinary warm/cold ladder on any doubt.
    /// `try_reuse` lets the engine skip the entry refactorization entirely
    /// when the carried factorization is still valid (`reuse_ready`,
    /// maintained across edits by [`SolverSession`]) and the residual
    /// spot-check passes.
    fn solve(
        &mut self,
        start: Option<&Basis>,
        try_dual: bool,
        try_reuse: bool,
    ) -> Result<Solution, SolveError> {
        let _span = obs::span("lp_solve");
        // Take the cross-solve bookkeeping up front: any path that does not
        // explicitly re-arm reuse (below) leaves it off, and the pending
        // product-form updates are attributed to whichever solve consumes
        // (or discards) them.
        let reuse_ok = std::mem::take(&mut self.reuse_ready);
        let pending = std::mem::take(&mut self.pending_lu_updates);
        let mut sol = self.solve_inner(start, try_dual, try_reuse && reuse_ok)?;
        sol.stats.lu_updates += pending;
        self.stats.lu_updates += pending;
        publish_stats(&sol.stats, self.std.nrows);
        // Every Optimal exit ends with a verification refactorization and an
        // empty eta file (iterate() refuses to claim optimality otherwise),
        // which is exactly the state a later solve may reuse.
        self.reuse_ready =
            sol.status == Status::Optimal && self.lu.is_some() && self.etas.is_empty();
        Ok(sol)
    }

    fn solve_inner(
        &mut self,
        start: Option<&Basis>,
        try_dual: bool,
        try_reuse: bool,
    ) -> Result<Solution, SolveError> {
        let mut reuse_rejected = 0u64;
        if try_reuse && start.is_some() {
            match self.attempt_reuse(try_dual) {
                Ok(sol) => return Ok(sol),
                Err(()) => {
                    // Reuse gate or continuation failed: undo any phase-1
                    // bound shifts it left behind, then run the ordinary
                    // ladder from scratch. The burned work is discarded,
                    // matching how a failed warm attempt restarts cold.
                    reuse_rejected = 1;
                    for k in 0..self.relaxed.len() {
                        let Relaxed { col, lo, up } = self.relaxed[k];
                        self.std.lower[col] = lo;
                        self.std.upper[col] = up;
                    }
                    self.relaxed.clear();
                }
            }
        }
        let mut sol = 'ladder: {
            if let Some(basis) = start {
                self.reset_for_solve();
                if try_dual {
                    match self.attempt_dual(basis) {
                        Ok(sol) => break 'ladder sol,
                        Err(_) => {
                            // Dual path abandoned (dual-infeasible after the
                            // edits, numerical trouble, or stalled): scrub the
                            // partially-installed state but keep the work it
                            // burned on the counters, then fall through to the
                            // ordinary warm attempt.
                            let stats = self.stats;
                            self.reset_for_solve();
                            self.stats = stats;
                        }
                    }
                }
                match self.attempt_warm(basis) {
                    Ok(sol) => break 'ladder sol,
                    Err(_) => {
                        // Undo phase-1 bound shifts before restarting cold; the
                        // cold path resets every other piece of engine state.
                        for k in 0..self.relaxed.len() {
                            let Relaxed { col, lo, up } = self.relaxed[k];
                            self.std.lower[col] = lo;
                            self.std.upper[col] = up;
                        }
                        let sol = self.run_cold()?;
                        debug_assert_eq!(sol.stats.warm_start_fallbacks, 1);
                        break 'ladder sol;
                    }
                }
            }
            let mut sol = self.run_cold()?;
            sol.stats.warm_start_fallbacks = 0; // no basis was offered
            self.stats.warm_start_fallbacks = 0;
            sol
        };
        sol.stats.refactor_reuse_rejected += reuse_rejected;
        self.stats.refactor_reuse_rejected += reuse_rejected;
        Ok(sol)
    }

    /// Cold start: crash basis, phase 1 if needed, phase 2. Tentatively
    /// counts itself as a warm-start fallback; [`Self::solve`] clears the
    /// counter when no basis was offered in the first place.
    fn run_cold(&mut self) -> Result<Solution, SolveError> {
        self.reset_for_solve();
        self.stats.warm_start_fallbacks = 1;
        self.crash();
        self.refactorize(RefactorReason::Forced)?;

        // Phase 1: minimize total artificial magnitude (costs set in crash).
        if !self.relaxed.is_empty() {
            if let Some(sol) = self.run_phase1()? {
                return Ok(sol);
            }
        }
        self.finish_phase2()
    }

    /// Runs phase 1 with the relaxation costs already installed. Returns a
    /// terminal solution (iteration limit or infeasible), or `None` when the
    /// iterate reached feasibility and phase 2 should proceed.
    fn run_phase1(&mut self) -> Result<Option<Solution>, SolveError> {
        let before = self.stats.iterations;
        let out = self.iterate(true)?;
        self.stats.phase1_iterations += self.stats.iterations - before;
        match out {
            PhaseOutcome::IterationLimit => {
                return Ok(Some(self.extract(Status::IterationLimit)));
            }
            PhaseOutcome::Unbounded => {
                // Phase-1 objective is bounded below; an "unbounded" signal
                // is a numerical breakdown.
                return Err(SolveError::Numerical("phase 1 reported unbounded".into()));
            }
            PhaseOutcome::Optimal => {}
        }
        let infeas = self.phase1_objective();
        if infeas > self.cfg.feas_tol.max(1e-9 * self.std.nrows as f64) {
            return Ok(Some(self.extract(Status::Infeasible)));
        }
        Ok(None)
    }

    /// Restores relaxed bounds, pins artificials, installs the true costs,
    /// and runs phase 2 to termination.
    fn finish_phase2(&mut self) -> Result<Solution, SolveError> {
        self.restore_relaxed();
        // Pin artificials to zero and install the true costs.
        for i in 0..self.std.nrows {
            let a = self.std.artificial_col(i);
            self.std.lower[a] = 0.0;
            self.std.upper[a] = 0.0;
            self.cost[a] = 0.0;
            if !matches!(self.state[a], VarState::Basic(_)) {
                self.state[a] = VarState::Fixed;
                self.xval[a] = 0.0;
            }
        }
        for j in 0..self.std.ncols() {
            if self.std.kind[j] != ColKind::Artificial {
                self.cost[j] = self.std.cost[j];
            }
        }
        self.bland = false;
        self.degen_run = 0;
        match self.iterate(false)? {
            PhaseOutcome::Optimal => Ok(self.extract(Status::Optimal)),
            PhaseOutcome::Unbounded => Ok(self.extract(Status::Unbounded)),
            PhaseOutcome::IterationLimit => Ok(self.extract(Status::IterationLimit)),
        }
    }

    /// Opens the bound of `col` on the side `value` violates, gives it the
    /// matching ±1 phase-1 cost, and records the original bounds for
    /// [`Self::restore_relaxed`]. For artificials the "original" bounds are
    /// always `[0, 0]` regardless of what a previous basis repair left.
    fn relax_column(&mut self, col: usize, value: f64) {
        let (lo, up) = if self.std.kind[col] == ColKind::Artificial {
            (0.0, 0.0)
        } else {
            (self.std.lower[col], self.std.upper[col])
        };
        if value >= up {
            // Too high: open upward, cost pushes back down toward `up`.
            self.std.lower[col] = up;
            self.std.upper[col] = f64::INFINITY;
            self.cost[col] = 1.0;
        } else {
            // Too low: open downward, cost pushes back up toward `lo`.
            self.std.lower[col] = f64::NEG_INFINITY;
            self.std.upper[col] = lo;
            self.cost[col] = -1.0;
        }
        self.relaxed.push(Relaxed { col, lo, up });
    }

    /// Total violation of the original bounds of every relaxed column at the
    /// current iterate — the phase-1 objective (for a cold start this is the
    /// classic total artificial magnitude).
    fn phase1_objective(&self) -> f64 {
        let mut v = 0.0;
        for r in &self.relaxed {
            let x = match self.state[r.col] {
                VarState::Basic(pos) => self.xb[pos as usize],
                _ => self.xval[r.col],
            };
            v += pos_or_zero(x - r.up) + pos_or_zero(r.lo - x);
        }
        v
    }

    /// Puts every relaxed column's original bounds back after a successful
    /// phase 1 and re-parks the ones that went nonbasic: a column that
    /// parked at its temporary finite bound is sitting exactly on the
    /// original bound it used to violate.
    fn restore_relaxed(&mut self) {
        for k in 0..self.relaxed.len() {
            let Relaxed { col, lo, up } = self.relaxed[k];
            self.std.lower[col] = lo;
            self.std.upper[col] = up;
            self.cost[col] = 0.0;
            if !matches!(self.state[col], VarState::Basic(_)) {
                self.state[col] = if lo == up {
                    VarState::Fixed
                } else if self.xval[col] == up {
                    VarState::AtUpper
                } else if self.xval[col] == lo {
                    VarState::AtLower
                } else if lo.is_infinite() && up.is_infinite() {
                    VarState::Free
                } else {
                    // Drifted off both bounds (retired artificial, repaired
                    // basis): park at the nearest original bound.
                    self.xval[col] = self.std.resting_value(col);
                    if self.xval[col] == up {
                        VarState::AtUpper
                    } else {
                        VarState::AtLower
                    }
                };
            }
        }
        self.relaxed.clear();
    }

    /// Tries to solve starting from `warm`. An `Err` means the basis could
    /// not be installed (shape mismatch or numerical failure) and the caller
    /// should restart cold; it never means the problem itself is bad.
    fn attempt_warm(&mut self, warm: &Basis) -> Result<Solution, ()> {
        if warm.cols.len() != self.std.nstruct || warm.rows.len() != self.std.nrows {
            return Err(());
        }
        let m = self.std.nrows;

        // Install nonbasic states at bounds compatible with the *current*
        // bounds (the problem may have been mutated since the basis was
        // extracted); collect basic candidates.
        let mut basic: Vec<usize> = Vec::with_capacity(m);
        for j in 0..self.std.nstruct + m {
            let status = if j < self.std.nstruct {
                warm.cols[j]
            } else {
                warm.rows[j - self.std.nstruct]
            };
            if status == BasisStatus::Basic {
                basic.push(j);
                continue;
            }
            self.park_nonbasic(j, status);
        }
        // Wrong basic count: demote extras, pad a deficit with artificials
        // (their columns are independent; a redundant choice is caught and
        // repaired during factorization).
        while basic.len() > m {
            let Some(j) = basic.pop() else { break };
            self.park_nonbasic(j, BasisStatus::AtLower);
        }
        let mut next_row = 0usize;
        while basic.len() < m {
            basic.push(self.std.artificial_col(next_row));
            next_row += 1;
        }
        self.basis = basic;
        for (pos, &j) in self.basis.iter().enumerate() {
            self.state[j] = VarState::Basic(pos as u32);
        }
        // Factorize (with singularity repair) and compute the basic values
        // the installed nonbasic point implies.
        if self.refactorize(RefactorReason::Forced).is_err() {
            return Err(());
        }

        // Any basic value outside its bounds gets a phase-1 bound shift.
        for pos in 0..m {
            let j = self.basis[pos];
            let v = self.xb[pos];
            let (lo, up) = if self.std.kind[j] == ColKind::Artificial {
                // Basis repair may have reopened an artificial; it must
                // still end phase 1 at zero.
                (0.0, 0.0)
            } else {
                (self.std.lower[j], self.std.upper[j])
            };
            let tol = self.cfg.feas_tol;
            if v > up + tol || v < lo - tol {
                self.relax_column(j, v);
            } else if self.std.kind[j] == ColKind::Artificial
                // lint: allow(float-eq, reason = "exact zero-bound test picks the cheaper parking bound; either choice is feasible and deterministic")
                && (self.std.lower[j] != 0.0 || self.std.upper[j] != 0.0)
            {
                // Feasible (≈0) but reopened: pin it back down.
                self.std.lower[j] = 0.0;
                self.std.upper[j] = 0.0;
            }
        }

        self.stats.warm_starts_accepted = 1;
        if !self.relaxed.is_empty() {
            match self.run_phase1() {
                // Phase 1 could not clear the violations. That is NOT an
                // infeasibility proof here: the bound shift clamps each
                // relaxed variable at the bound it violated, and true
                // feasibility may need it strictly inside its range. Only
                // the cold artificial-based phase 1 decides infeasibility,
                // so any terminal phase-1 outcome falls back.
                Ok(Some(_)) => return Err(()),
                Ok(None) => {}
                // Numerical trouble while repairing the warm point: let the
                // caller restart cold rather than surfacing an error a cold
                // solve would not produce.
                Err(_) => return Err(()),
            }
        }
        self.finish_phase2().map_err(|_| ())
    }

    /// Parks column `j` nonbasic in the state `status` suggests, degrading
    /// to whatever its current bounds actually allow.
    fn park_nonbasic(&mut self, j: usize, status: BasisStatus) {
        let (l, u) = (self.std.lower[j], self.std.upper[j]);
        if l == u {
            self.state[j] = VarState::Fixed;
            self.xval[j] = l;
            return;
        }
        let (state, x) = match status {
            BasisStatus::AtLower if l.is_finite() => (VarState::AtLower, l),
            BasisStatus::AtUpper if u.is_finite() => (VarState::AtUpper, u),
            BasisStatus::Free if l.is_infinite() && u.is_infinite() => (VarState::Free, 0.0),
            // Requested side no longer exists: rest wherever the current
            // bounds put a fresh nonbasic variable.
            _ => {
                let r = self.std.resting_value(j);
                let s = if l.is_infinite() && u.is_infinite() {
                    VarState::Free
                } else if r == l {
                    VarState::AtLower
                } else {
                    VarState::AtUpper
                };
                (s, r)
            }
        };
        self.state[j] = state;
        self.xval[j] = x;
    }

    /// Factorization-reuse solve entry: the engine still holds its own
    /// last-optimal basis, factorization, and per-column state, with only
    /// bound/RHS/cost edits and nonbasic splices applied since (the
    /// session certifies that via `reuse_ready`). Skips `Lu::factor`
    /// entirely: re-parks the nonbasics against the edited bounds,
    /// recomputes the basic values through the carried factors, and
    /// residual-checks the result before continuing — through the dual
    /// loop when the edits kept the basis dual feasible, through the
    /// bound-shift phase 1 otherwise. `Err(())` abandons the attempt and
    /// the ordinary warm/cold ladder runs from scratch.
    fn attempt_reuse(&mut self, try_dual: bool) -> Result<Solution, ()> {
        // Partial reset: everything reset_for_solve clears *except* the
        // factorization, the basis, and the per-column states it is
        // reusing.
        self.stats = SolveStats {
            solves: 1,
            ..SolveStats::default()
        };
        self.cost.fill(0.0);
        self.bland = false;
        self.degen_run = 0;
        self.relaxed.clear();
        self.reset_candidates();

        // Re-pin artificials to their pristine fixed-at-zero state. A basic
        // artificial (a degenerate optimum can keep one at value zero) stays
        // basic — forcing it out would change B — but disqualifies the dual
        // branch, which requires an artificial-free basis.
        let mut artificial_basic = false;
        for i in 0..self.std.nrows {
            let a = self.std.artificial_col(i);
            self.std.lower[a] = 0.0;
            self.std.upper[a] = 0.0;
            if matches!(self.state[a], VarState::Basic(_)) {
                artificial_basic = true;
            } else {
                self.state[a] = VarState::Fixed;
                self.xval[a] = 0.0;
            }
        }
        // Re-park every nonbasic against the *current* bounds (the edits
        // may have moved or removed the side a column was resting on).
        for j in 0..self.std.ncols() {
            if self.std.kind[j] == ColKind::Artificial {
                continue;
            }
            let status = match self.state[j] {
                VarState::Basic(_) => continue,
                VarState::AtLower | VarState::Fixed => BasisStatus::AtLower,
                VarState::AtUpper => BasisStatus::AtUpper,
                VarState::Free => BasisStatus::Free,
            };
            self.park_nonbasic(j, status);
        }

        // Basic values through the carried factors, then the reuse gate:
        // the sanitizer's residual spot-check. A stale or drifted
        // factorization shows up as a nonzero `A x` residual here and
        // rejects the reuse before any pivot can act on it.
        self.compute_xb();
        if !self.residual_ok() {
            return Err(());
        }
        self.stats.lu_reuse_hits = 1;
        self.stats.warm_starts_accepted = 1;

        if try_dual && !artificial_basic {
            // Phase-2 costs, then the same dual-feasibility screen as
            // `attempt_dual`: bound/RHS-only edits keep the reduced-cost
            // signs, so the dual loop drives out the primal violations in
            // a handful of pivots.
            for j in 0..self.std.ncols() {
                if self.std.kind[j] != ColKind::Artificial {
                    self.cost[j] = self.std.cost[j];
                }
            }
            self.recompute_reduced();
            let dtol = self.cfg.opt_tol;
            let mut dual_feasible = true;
            for j in 0..self.std.ncols() {
                let ok = match self.state[j] {
                    VarState::Basic(_) | VarState::Fixed => true,
                    VarState::AtLower => self.d[j] >= -dtol,
                    VarState::AtUpper => self.d[j] <= dtol,
                    VarState::Free => self.d[j].abs() <= dtol,
                };
                if !ok {
                    dual_feasible = false;
                    break;
                }
            }
            if dual_feasible {
                self.dual_loop()?;
                // Exact finish, as in `attempt_dual`: the primal loop
                // re-verifies the claimed optimum against recomputed
                // reduced costs (refactorizing in the process).
                return match self.iterate(false).map_err(|_| ())? {
                    PhaseOutcome::Optimal => Ok(self.extract(Status::Optimal)),
                    PhaseOutcome::Unbounded | PhaseOutcome::IterationLimit => Err(()),
                };
            }
            // Dual screen failed (a cost edit, or a re-park flipped a
            // sign): back to phase-1 costs for the primal continuation.
            self.cost.fill(0.0);
        }

        // Primal continuation, as in `attempt_warm`: bound-shift every
        // basic value the edits pushed outside its bounds, clear the
        // violations in phase 1, finish in phase 2.
        for pos in 0..self.std.nrows {
            let j = self.basis[pos];
            let v = self.xb[pos];
            let (lo, up) = if self.std.kind[j] == ColKind::Artificial {
                (0.0, 0.0)
            } else {
                (self.std.lower[j], self.std.upper[j])
            };
            let tol = self.cfg.feas_tol;
            if v > up + tol || v < lo - tol {
                self.relax_column(j, v);
            }
        }
        if !self.relaxed.is_empty() {
            match self.run_phase1() {
                // Terminal phase-1 outcomes are not infeasibility proofs on
                // a shifted start (see `attempt_warm`): fall back.
                Ok(Some(_)) => return Err(()),
                Ok(None) => {}
                Err(_) => return Err(()),
            }
        }
        self.finish_phase2().map_err(|_| ())
    }

    /// Core primal simplex loop shared by both phases.
    ///
    /// Reduced costs are maintained incrementally (updated with the pivotal
    /// row after every basis change) and recomputed exactly at every
    /// refactorization; entering variables are chosen by Devex pricing with
    /// a Bland fallback after a long degenerate run.
    fn iterate(&mut self, phase1: bool) -> Result<PhaseOutcome, SolveError> {
        self.recompute_reduced();
        self.weights.fill(1.0);
        self.reset_candidates();
        loop {
            if self.stats.iterations >= self.cfg.max_iterations {
                return Ok(PhaseOutcome::IterationLimit);
            }
            if let Some(reason) = self.cadence_refactor_due() {
                self.refactorize(reason)?;
                self.recompute_reduced();
            }

            // Pricing from the maintained reduced costs.
            let entering = match self.price() {
                Some(e) => e,
                None => {
                    // Claimed optimal: verify against exactly recomputed
                    // reduced costs before accepting (guards drift).
                    self.refactorize(RefactorReason::Forced)?;
                    self.recompute_reduced();
                    match self.price() {
                        Some(e) => e,
                        None => return Ok(PhaseOutcome::Optimal),
                    }
                }
            };
            let (q, dir) = entering;

            // FTRAN: w = B^{-1} a_q, basis-position indexed, sparse. The
            // result lives in an engine-owned arena, borrowed out for the
            // ratio-test/pivot span and put back on every path.
            self.ftran_entering(q);
            let w = std::mem::take(&mut self.ftran_w);

            // Ratio test.
            match self.ratio_test(q, dir, &w) {
                RatioOutcome::Unbounded => {
                    self.ftran_w = w;
                    if phase1 {
                        return Err(SolveError::Numerical("unbounded ray in phase 1".into()));
                    }
                    return Ok(PhaseOutcome::Unbounded);
                }
                RatioOutcome::BoundFlip(t) => {
                    // No basis change: reduced costs stay valid.
                    self.apply_bound_flip(q, dir, t, &w);
                    self.ftran_w = w;
                    self.stats.bound_flips += 1;
                }
                RatioOutcome::Pivot { pos, step } => {
                    let alpha_q = w.values[pos];
                    if alpha_q.abs() <= self.cfg.pivot_tol {
                        // Should not happen (ratio test filters); refactor
                        // and retry rather than divide by ~0.
                        self.ftran_w = w;
                        self.refactorize(RefactorReason::Forced)?;
                        self.recompute_reduced();
                        continue;
                    }
                    self.update_reduced_and_weights(q, pos, alpha_q);
                    self.apply_pivot(q, dir, pos, step, &w);
                    self.ftran_w = w;
                    #[cfg(debug_assertions)]
                    self.debug_invariants();
                    self.maybe_sanitize();
                    if step <= self.cfg.feas_tol * 1e-2 {
                        self.stats.degenerate_pivots += 1;
                        self.degen_run += 1;
                        if self.degen_run >= self.cfg.degeneracy_threshold {
                            self.bland = true;
                        }
                    } else {
                        self.degen_run = 0;
                        self.bland = false;
                    }
                }
            }
            self.stats.iterations += 1;
        }
    }

    /// Solves `B' y = c` for a basis-position-indexed dense `c`, leaving
    /// the row-indexed result in place.
    fn btran_pos_dense(&mut self, c: &mut [f64]) {
        // Apply eta inverses in reverse order: c' E^{-1} touches one entry.
        for k in (0..self.etas.len()).rev() {
            let head = self.etas.head(k);
            let r = head.pos as usize;
            let mut acc = c[r];
            for &(i, wi) in self.etas.entries_of(k) {
                if i != head.pos {
                    acc -= c[i as usize] * wi;
                }
            }
            c[r] = acc / head.pivot;
        }
        self.lu
            .as_ref()
            // lint: allow(lib-unwrap, reason = "invariant: solve() refactorizes before any pricing pass, so an LU is always installed here")
            .expect("invariant: LU installed before btran")
            .btran(c, &mut self.work_pos);
    }

    /// Sparse twin of [`Self::btran_pos_dense`]: solves `B' y = c` for a
    /// pattern-tracked `c`, bit-identical up to the sign of cancelled
    /// zeros (every consumer guards with magnitude tests).
    fn btran_pos_sparse(&mut self, c: &mut WorkVec) {
        // Eta inverses in reverse order. Each is a *gather* over the eta's
        // full entry list, so unlike the FTRAN scatters a zero result still
        // costs a full scan — the dominant per-pivot cost on large models.
        // With a sparse input the row-wise eta index prunes the loop to the
        // etas that can see a nonzero: an eta none of whose referenced
        // positions (entries or pivotal head) is marked gathers only exact
        // zeros, lands on `t == ±0`, and — its head being unmarked — the
        // full loop would write nothing at all, so skipping it is
        // bit-exact, zero signs included. Activation cascades: applying an
        // eta that marks a new position wakes the earlier etas referencing
        // it. Forced-dense oracle mode (`kernel_cap == 0`) keeps the full
        // scan so the oracle shares none of the pruning logic.
        let prune = self.kernel_cap > 0 && !c.is_dense() && !self.etas.is_empty();
        if prune {
            self.eta_active.clear();
            self.eta_active.resize(self.etas.len(), false);
            for &i in &c.pattern {
                let mut e = self.etas.pos_head[i as usize];
                while e != ETA_NONE {
                    self.eta_active[self.etas.eta_of[e as usize] as usize] = true;
                    e = self.etas.link[e as usize];
                }
            }
        }
        for k in (0..self.etas.len()).rev() {
            if prune && !self.eta_active[k] {
                continue;
            }
            let head = self.etas.head(k);
            let r = head.pos;
            let mut acc = c.values[r as usize];
            for &(i, wi) in self.etas.entries_of(k) {
                if i != r {
                    acc -= c.values[i as usize] * wi;
                }
            }
            let t = acc / head.pivot;
            // lint: allow(float-eq, reason = "exact-zero skip is a sparsity guard: skipping true zeros never changes the arithmetic")
            if t != 0.0 {
                let newly = !c.is_dense() && !c.marked(r);
                c.set(r, t);
                if prune && newly {
                    // A freshly nonzero position wakes the earlier etas
                    // referencing it (later ones already ran).
                    let mut e = self.etas.pos_head[r as usize];
                    while e != ETA_NONE {
                        let k2 = self.etas.eta_of[e as usize] as usize;
                        if k2 < k {
                            self.eta_active[k2] = true;
                        }
                        e = self.etas.link[e as usize];
                    }
                }
            } else if c.marked(r) || c.is_dense() {
                c.values[r as usize] = t;
            }
        }
        let mut s = std::mem::take(&mut self.lu_scratch);
        self.lu
            .as_ref()
            // lint: allow(lib-unwrap, reason = "invariant: solve() refactorizes before any pricing pass, so an LU is always installed here")
            .expect("invariant: LU installed before btran")
            .btran_sparse(c, &mut s, self.kernel_cap);
        self.lu_scratch = s;
    }

    /// Computes `y` with `B' y = c_B` into the engine-owned dual scratch.
    /// The caller borrows the buffer and must return it via
    /// [`Self::put_duals`] — the take/put dance keeps the hot path free of
    /// per-call allocations.
    fn take_duals(&mut self) -> Vec<f64> {
        let mut c = std::mem::take(&mut self.dual);
        c.fill(0.0);
        for (pos, &j) in self.basis.iter().enumerate() {
            c[pos] = self.cost[j];
        }
        self.btran_pos_dense(&mut c);
        c
    }

    fn put_duals(&mut self, y: Vec<f64>) {
        self.dual = y;
    }

    /// Recomputes every reduced cost exactly from the current basis.
    fn recompute_reduced(&mut self) {
        let y = self.take_duals();
        for j in 0..self.std.ncols() {
            self.d[j] = match self.state[j] {
                VarState::Basic(_) => 0.0,
                VarState::Fixed => 0.0,
                _ => self.cost[j] - self.std.a.col_dot(j, &y),
            };
        }
        self.put_duals(y);
    }

    /// Entering-direction eligibility of nonbasic column `j` under the
    /// maintained reduced costs: +1 from lower/free, -1 from upper/free,
    /// `None` when `j` cannot improve the objective.
    #[inline]
    fn eligible_dir(&self, j: usize) -> Option<f64> {
        let tol = self.cfg.opt_tol;
        match self.state[j] {
            VarState::Basic(_) | VarState::Fixed => None,
            VarState::AtLower => (self.d[j] < -tol).then_some(1.0),
            VarState::AtUpper => (self.d[j] > tol).then_some(-1.0),
            VarState::Free => {
                if self.d[j] < -tol {
                    Some(1.0)
                } else if self.d[j] > tol {
                    Some(-1.0)
                } else {
                    None
                }
            }
        }
    }

    /// Pricing dispatch: candidate-list partial pricing when enabled, the
    /// full Devex scan otherwise. Bland mode always takes the full
    /// first-eligible scan — partial pricing must not weaken the
    /// anti-cycling termination guarantee. A `None` from either mode means
    /// a *complete* scan found no eligible column, so the claimed-optimal
    /// verification in [`Self::iterate`] has identical semantics in both.
    fn price(&mut self) -> Option<(usize, f64)> {
        if self.bland || !self.cfg.partial_pricing {
            return self.price_full();
        }
        if !self.cand.is_empty() && self.cand_budget > 0 {
            if let Some(best) = self.scan_candidates() {
                self.cand_budget -= 1;
                return Some(best);
            }
        }
        self.refresh_candidates()
    }

    /// Devex pricing over every nonbasic column. Returns the entering
    /// column and its movement direction.
    fn price_full(&mut self) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64, f64)> = None; // (col, dir, score)
        for j in 0..self.std.ncols() {
            let Some(dir) = self.eligible_dir(j) else {
                continue;
            };
            self.stats.pricing_candidates_scanned += 1;
            if self.bland {
                // Bland: first eligible index guarantees termination.
                return Some((j, dir));
            }
            let score = self.d[j] * self.d[j] / self.weights[j];
            if best.is_none_or(|(_, _, s)| score > s) {
                best = Some((j, dir, score));
            }
        }
        best.map(|(j, dir, _)| (j, dir))
    }

    /// Minor-iteration pricing pass: best Devex score among the current
    /// candidates (entries that went basic or lost eligibility are skipped;
    /// the next refresh drops them).
    fn scan_candidates(&mut self) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64, f64)> = None;
        let mut scanned = 0u64;
        for &jc in &self.cand {
            let j = jc as usize;
            scanned += 1;
            let Some(dir) = self.eligible_dir(j) else {
                continue;
            };
            let score = self.d[j] * self.d[j] / self.weights[j];
            if best.is_none_or(|(_, _, s)| score > s) {
                best = Some((j, dir, score));
            }
        }
        self.stats.pricing_candidates_scanned += scanned;
        best.map(|(j, dir, _)| (j, dir))
    }

    /// Full eligibility scan that rebuilds the candidate list with the
    /// highest-scoring columns and returns the best of them. `None` means
    /// no column anywhere is eligible (the full-scan optimality claim).
    /// Entirely deterministic: scores tie-break toward the lower column
    /// index, so the list does not depend on allocation or thread state.
    fn refresh_candidates(&mut self) -> Option<(usize, f64)> {
        self.stats.partial_refreshes += 1;
        for &jc in &self.cand {
            self.cand_member[jc as usize] = false;
        }
        self.cand.clear();
        let mut scores = std::mem::take(&mut self.cand_scores);
        scores.clear();
        for j in 0..self.std.ncols() {
            if self.eligible_dir(j).is_none() {
                continue;
            }
            self.stats.pricing_candidates_scanned += 1;
            let score = self.d[j] * self.d[j] / self.weights[j];
            scores.push((score, j as u32));
        }
        if scores.is_empty() {
            self.cand_scores = scores;
            self.cand_budget = 0;
            return None;
        }
        // Keep the top slice by (score desc, column asc); the list size
        // grows with sqrt(ncols) so minor iterations touch O(sqrt n)
        // columns instead of n.
        let keep = Self::candidate_list_size(self.std.ncols()).min(scores.len());
        scores.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        scores.truncate(keep);
        for &(_, jc) in scores.iter() {
            self.cand.push(jc);
            self.cand_member[jc as usize] = true;
        }
        let (_, best) = scores[0];
        self.cand_budget = keep as u32;
        self.cand_scores = scores;
        let j = best as usize;
        // The top candidate was eligible a moment ago by construction.
        let dir = self.eligible_dir(j)?;
        Some((j, dir))
    }

    /// Partial-pricing sublist size for an `ncols`-column problem.
    fn candidate_list_size(ncols: usize) -> usize {
        // lint: allow(lossy-cast, reason = "sizing heuristic; truncation of the sqrt is intended")
        (2.0 * (ncols as f64).sqrt()) as usize + 16
    }

    /// Empties the candidate list (start of a phase, or after a structural
    /// change): the first partial-pricing call will run a full refresh.
    fn reset_candidates(&mut self) {
        for &jc in &self.cand {
            let j = jc as usize;
            if j < self.cand_member.len() {
                self.cand_member[j] = false;
            }
        }
        self.cand.clear();
        self.cand_member.resize(self.std.ncols(), false);
        self.cand_budget = 0;
    }

    /// After choosing pivot (entering `q`, leaving position `pos`), updates
    /// the reduced costs and Devex weights using the pivotal row
    /// `alpha = e_pos' B^{-1} A`.
    ///
    /// Reduced costs are always updated globally, even under candidate-list
    /// pricing. A sublist-only update (let non-candidate `d` go stale,
    /// recompute wholesale at each refresh) was evaluated and rejected:
    /// these time-expanded LPs are degenerate enough that the eligible set
    /// churns across refreshes, which makes refreshes — and with them the
    /// full recompute — far too frequent, and the sublist's pivot choices
    /// inflate the iteration count well past what the cheaper update saves.
    fn update_reduced_and_weights(&mut self, q: usize, pos: usize, alpha_q: f64) {
        // rho = B^{-T} e_pos (row-indexed), computed sparsely into the
        // engine-owned arena.
        let mut rho = std::mem::take(&mut self.rho);
        rho.clear();
        rho.set(pos as u32, 1.0);
        self.btran_pos_sparse(&mut rho);
        self.stats.btran_ops += 1;
        self.stats.btran_nnz += rho.nnz() as u64;
        if rho.is_dense() {
            self.stats.btran_dense_fallbacks += 1;
        }

        let dq = self.d[q];
        let ratio = dq / alpha_q;
        let wq = self.weights[q].max(1.0);
        let leaving = self.basis[pos];

        // Touch only nonbasic columns that intersect rho's nonzero rows. A
        // column may be visited once per such row, so the list is sorted
        // and deduped afterwards — which also normalizes the visit order
        // to the ascending order a dense row scan would produce.
        let mut touched = std::mem::take(&mut self.touched);
        touched.clear();
        if rho.is_dense() {
            for (r, &rv) in rho.values.iter().enumerate() {
                if rv.abs() <= 1e-12 {
                    continue;
                }
                self.push_row_cols(r, q, &mut touched);
            }
        } else {
            rho.sort_pattern();
            for &r in &rho.pattern {
                let r = r as usize;
                if rho.values[r].abs() <= 1e-12 {
                    continue;
                }
                self.push_row_cols(r, q, &mut touched);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        self.stats.pivot_row_nnz += touched.len() as u64;
        // With candidate-list pricing only the candidates' scores are ever
        // read before the next full refresh (which rebuilds weights'
        // relevance from scratch), so weight maintenance is confined to the
        // sublist; reduced costs are always updated for every touched
        // column — optimality claims depend on them.
        let partial = self.cfg.partial_pricing && !self.bland;
        let mut max_weight: f64 = 1.0;
        for &jc in &touched {
            let j = jc as usize;
            // Column-wise gather: the same FP summation order as the dense
            // pricing pass (a row-wise scatter would reorder it).
            let alpha_j = self.std.a.col_dot(j, &rho.values);
            if alpha_j.abs() <= 1e-12 {
                continue;
            }
            self.d[j] -= ratio * alpha_j;
            if partial && !self.cand_member[j] {
                continue;
            }
            let cand = (alpha_j / alpha_q) * (alpha_j / alpha_q) * wq;
            if cand > self.weights[j] {
                self.weights[j] = cand;
            }
            max_weight = max_weight.max(self.weights[j]);
        }
        self.touched = touched;
        self.rho = rho;
        // Entering column becomes basic; leaving column becomes nonbasic
        // with reduced cost -d_q / alpha_q and a fresh reference weight.
        self.d[q] = 0.0;
        self.d[leaving] = -ratio;
        self.weights[leaving] = (wq / (alpha_q * alpha_q)).max(1.0);
        max_weight = max_weight.max(self.weights[leaving]);

        // Reference-framework reset when weights blow up.
        if max_weight > 1e8 {
            self.weights.fill(1.0);
            self.stats.devex_resets += 1;
        }
    }

    /// Appends to `out` the nonbasic, non-`q` columns with an entry in row
    /// `r` (one pivotal-row pricing probe, via the CSR mirror).
    #[inline]
    fn push_row_cols(&self, r: usize, q: usize, out: &mut Vec<u32>) {
        for &jc in &self.csr_cols[self.csr_ptr[r]..self.csr_ptr[r + 1]] {
            let j = jc as usize;
            match self.state[j] {
                VarState::Basic(_) | VarState::Fixed => continue,
                _ => {}
            }
            if j == q {
                continue;
            }
            out.push(jc);
        }
    }

    /// FTRAN of column `q` through LU and the eta file into the
    /// engine-owned `ftran_w` arena: `w = B^{-1} a_q`, basis-position
    /// indexed, pattern sorted ascending (or flagged dense past the
    /// density threshold). Bit-identical to the former dense pass up to
    /// the sign of cancelled zeros, which every consumer guards away.
    fn ftran_entering(&mut self, q: usize) {
        let mut rhs = std::mem::take(&mut self.ftran_rhs);
        let (rows, vals) = self.std.a.col(q);
        rhs.load(rows, vals);
        self.ftran_loaded(rhs);
    }

    /// Shared FTRAN tail: solves `B w = rhs` for an already-loaded
    /// row-indexed `rhs` (LU pass, then the eta file), leaving the
    /// basis-position-indexed result in `ftran_w` and handing `rhs` back to
    /// its arena. Used by the entering-column FTRAN above and by the dual
    /// ratio test's accumulated bound-flip column.
    fn ftran_loaded(&mut self, mut rhs: WorkVec) {
        let mut w = std::mem::take(&mut self.ftran_w);
        let mut s = std::mem::take(&mut self.lu_scratch);
        self.lu
            .as_ref()
            // lint: allow(lib-unwrap, reason = "invariant: solve() refactorizes before any ratio test, so an LU is always installed here")
            .expect("invariant: LU installed before ftran")
            .ftran_sparse(&mut rhs, &mut w, &mut s, self.kernel_cap);
        // Eta passes: each is a scatter from the pivotal position, applied
        // whether or not the pattern is still tracked.
        for k in 0..self.etas.len() {
            let head = self.etas.head(k);
            let r = head.pos;
            let t = w.values[r as usize] / head.pivot;
            // lint: allow(float-eq, reason = "exact-zero skip is a sparsity guard: skipping true zeros never changes the arithmetic")
            if t != 0.0 {
                for &(i, wi) in self.etas.entries_of(k) {
                    if i != r {
                        // `a += -(b)` is bitwise `a -= b`.
                        w.add(i, -(wi * t));
                    }
                }
                w.set(r, t);
            } else if w.marked(r) || w.is_dense() {
                w.values[r as usize] = t;
            }
        }
        if !w.is_dense() {
            w.sort_pattern();
        }
        self.stats.ftran_ops += 1;
        self.stats.ftran_nnz += w.nnz() as u64;
        if w.is_dense() {
            self.stats.ftran_dense_fallbacks += 1;
        }
        self.ftran_rhs = rhs;
        self.lu_scratch = s;
        self.ftran_w = w;
    }

    fn ratio_test(&self, q: usize, dir: f64, w: &WorkVec) -> RatioOutcome {
        let ptol = self.cfg.pivot_tol;
        let ftol = self.cfg.feas_tol;
        // Step limit from the entering variable's own bound range.
        let own_range = match (self.std.lower[q].is_finite(), self.std.upper[q].is_finite()) {
            (true, true) => self.std.upper[q] - self.std.lower[q],
            _ => f64::INFINITY,
        };

        // Pass 1: minimum blocking step with tolerance-relaxed bounds.
        let mut t_relaxed = own_range;
        for_each_entry(w, |pos, wp| {
            if wp.abs() <= ptol {
                return;
            }
            let rate = -wp * dir; // d(xb[pos]) / dt
            let j = self.basis[pos];
            let limit = if rate > 0.0 {
                let ub = self.std.upper[j];
                if !ub.is_finite() {
                    return;
                }
                (ub - self.xb[pos] + ftol) / rate
            } else {
                let lb = self.std.lower[j];
                if !lb.is_finite() {
                    return;
                }
                (self.xb[pos] - lb + ftol) / -rate
            };
            t_relaxed = t_relaxed.min(pos_or_zero(limit));
        });
        if t_relaxed.is_infinite() {
            return RatioOutcome::Unbounded;
        }

        // Pass 2: among rows blocking at or before `t_relaxed`, take the one
        // with the largest pivot magnitude (Harris-style selection). Ties
        // are decided inside a *relative band* around the maximum rather
        // than by exact float equality: any pivot within `RATIO_TIE_BAND`
        // of the best magnitude is numerically interchangeable, and inside
        // the band the choice is lexicographic — retire artificials first,
        // then the lowest basis position — so the selection is deterministic
        // and independent of the visit order's rounding noise.
        const RATIO_TIE_BAND: f64 = 1e-9;
        let mut max_mag = 0.0f64;
        let blocking = |pos: usize, wp: f64| -> Option<f64> {
            if wp.abs() <= ptol {
                return None;
            }
            let rate = -wp * dir;
            let j = self.basis[pos];
            let limit = if rate > 0.0 {
                let ub = self.std.upper[j];
                if !ub.is_finite() {
                    return None;
                }
                (ub - self.xb[pos]) / rate
            } else {
                let lb = self.std.lower[j];
                if !lb.is_finite() {
                    return None;
                }
                (self.xb[pos] - lb) / -rate
            };
            let limit = pos_or_zero(limit);
            (limit <= t_relaxed).then_some(limit)
        };
        let mut any_blocking = false;
        for_each_entry(w, |pos, wp| {
            if blocking(pos, wp).is_some() {
                any_blocking = true;
                max_mag = max_mag.max(wp.abs());
            }
        });
        if !any_blocking {
            // Nothing blocks before the entering variable's own range:
            // a bound flip (own_range is finite here).
            return RatioOutcome::BoundFlip(own_range);
        }
        let band_floor = max_mag * (1.0 - RATIO_TIE_BAND);
        let mut best: Option<(usize, f64, bool)> = None; // pos, step, is_artificial
        for_each_entry(w, |pos, wp| {
            let Some(limit) = blocking(pos, wp) else {
                return;
            };
            if wp.abs() < band_floor {
                return;
            }
            let art = self.std.kind[self.basis[pos]] == ColKind::Artificial;
            // Entries arrive in ascending basis position, so the first
            // in-band row of a given artificiality class wins the
            // lexicographic order automatically.
            let better = match best {
                None => true,
                Some((_, _, bart)) => art && !bart,
            };
            if better {
                best = Some((pos, limit, art));
            }
        });
        match best {
            // max_mag > 0 guarantees an in-band blocking row exists.
            None => RatioOutcome::BoundFlip(own_range),
            Some((pos, step, _)) => RatioOutcome::Pivot { pos, step },
        }
    }

    fn apply_bound_flip(&mut self, q: usize, dir: f64, t: f64, w: &WorkVec) {
        let xb = &mut self.xb;
        for_each_entry(w, |pos, wp| {
            // lint: allow(float-eq, reason = "exact-zero skip is a sparsity guard: skipping true zeros never changes the arithmetic")
            if wp != 0.0 {
                xb[pos] -= wp * dir * t;
            }
        });
        self.xval[q] += dir * t;
        self.state[q] = match self.state[q] {
            VarState::AtLower => VarState::AtUpper,
            VarState::AtUpper => VarState::AtLower,
            s => s,
        };
    }

    fn apply_pivot(&mut self, q: usize, dir: f64, pos: usize, step: f64, w: &WorkVec) {
        let leaving = self.basis[pos];
        let xb = &mut self.xb;
        for_each_entry(w, |p, wp| {
            // lint: allow(float-eq, reason = "exact-zero skip is a sparsity guard: skipping true zeros never changes the arithmetic")
            if wp != 0.0 {
                xb[p] -= wp * dir * step;
            }
        });
        let entering_value = self.xval[q] + dir * step;

        // Park the leaving variable at the bound it hit.
        let lv = self.xb[pos];
        let (ll, lu_) = (self.std.lower[leaving], self.std.upper[leaving]);
        let to_upper = if ll.is_finite() && lu_.is_finite() {
            (lv - lu_).abs() < (lv - ll).abs()
        } else {
            lu_.is_finite()
        };
        self.xval[leaving] = if to_upper { lu_ } else { ll };
        self.state[leaving] = if self.std.kind[leaving] == ColKind::Artificial {
            // Retire artificials for good the moment they leave.
            self.std.lower[leaving] = 0.0;
            self.std.upper[leaving] = 0.0;
            self.cost[leaving] = 0.0;
            self.xval[leaving] = 0.0;
            VarState::Fixed
        } else if ll == lu_ {
            VarState::Fixed
        } else if to_upper {
            VarState::AtUpper
        } else {
            VarState::AtLower
        };

        self.basis[pos] = q;
        self.state[q] = VarState::Basic(pos as u32);
        self.xb[pos] = entering_value;

        // Record the eta for B_new = B_old E, entries ascending by basis
        // position (sorted pattern / dense scan order — the BTRAN gather
        // relies on it). Entries below the drop tolerance are omitted; the
        // drift is flushed at refactorization.
        self.etas.begin(pos as u32, w.values[pos]);
        let etas = &mut self.etas;
        for_each_entry(w, |p, wp| {
            if wp.abs() > 1e-12 || p == pos {
                etas.push_entry(p as u32, wp);
            }
        });
    }

    /// Debug-build invariant sweep, run after every basis change. Release
    /// builds compile this to nothing; the `wavesched-lint` rules keep the
    /// invariants *stated*, this keeps them *checked* where they mutate.
    #[cfg(debug_assertions)]
    fn debug_invariants(&self) {
        // Basis column-count consistency: exactly one column per row, each
        // marked Basic at its own position.
        debug_assert_eq!(
            self.basis.len(),
            self.std.nrows,
            "basis must hold exactly nrows columns"
        );
        for (pos, &j) in self.basis.iter().enumerate() {
            debug_assert!(
                matches!(self.state[j], VarState::Basic(p) if p as usize == pos),
                "basis position {pos} holds column {j} whose state is {:?}",
                self.state[j]
            );
        }
        // The eta file never outruns the refactorization threshold:
        // iterate() refactorizes at the top of the loop once the interval
        // is reached, so at most `refactor_interval` etas ever accumulate.
        debug_assert!(
            self.etas.len() <= self.cfg.refactor_interval,
            "eta file length {} exceeds refactor_interval {}",
            self.etas.len(),
            self.cfg.refactor_interval
        );
        // The (phase-dependent) objective stays finite after a pivot; a NaN
        // or infinity here means a pivot divided by a ~0 element the ratio
        // test should have rejected.
        let mut obj = 0.0;
        for j in 0..self.std.ncols() {
            if !matches!(self.state[j], VarState::Basic(_)) {
                obj += self.cost[j] * self.xval[j];
            }
        }
        for (pos, &j) in self.basis.iter().enumerate() {
            obj += self.cost[j] * self.xb[pos];
        }
        debug_assert!(obj.is_finite(), "objective became non-finite after pivot");
    }

    /// In-loop refactorization cadence shared by the primal and dual
    /// iteration loops: the fixed interval always applies (and is checked
    /// first so `Interval`-policy counters are unaffected by the cost
    /// model), then the cost model compares the eta file's entry count
    /// against the live factor's. Both triggers count entries — never
    /// wall-clock — so the trajectory is deterministic.
    #[inline]
    fn cadence_refactor_due(&self) -> Option<RefactorReason> {
        if self.etas.len() >= self.cfg.refactor_interval {
            return Some(RefactorReason::Interval);
        }
        if self.cfg.refactor_policy == RefactorPolicy::CostModel
            && self.etas.len() >= COST_MODEL_MIN_ETAS
            && self.etas.entries.len() > COST_MODEL_ETA_FACTOR * self.lu_nnz
        {
            return Some(RefactorReason::CostModel);
        }
        None
    }

    /// Rebuilds the LU factorization of the current basis and recomputes the
    /// basic values from scratch to flush accumulated drift. `reason` feeds
    /// the per-reason refactorization counters; the arithmetic is identical
    /// for every reason.
    fn refactorize(&mut self, reason: RefactorReason) -> Result<(), SolveError> {
        let m = self.std.nrows;
        let mut attempt = 0usize;
        let lu = loop {
            match Lu::factor(&self.std.a, &self.basis, self.cfg.pivot_tol) {
                Ok(f) => break f,
                Err(unpivoted_row) => {
                    // Singular basis: swap the structurally dependent column
                    // out for the row's artificial and retry.
                    attempt += 1;
                    if attempt > m {
                        return Err(SolveError::Numerical(
                            "basis repair failed: persistent singularity".into(),
                        ));
                    }
                    self.stats.refactor_forced_singular += 1;
                    self.repair_basis(unpivoted_row)?;
                }
            }
        };
        obs::record("lp.eta_len_at_refactor", self.etas.len() as u64);
        self.etas.clear();
        self.stats.refactorizations += 1;
        match reason {
            RefactorReason::Interval => self.stats.refactor_interval += 1,
            RefactorReason::CostModel => self.stats.refactor_cost_model += 1,
            RefactorReason::Forced => self.stats.refactor_forced_fallback += 1,
        }
        self.lu_nnz = lu.nnz();
        self.lu = Some(lu);
        self.compute_xb();
        Ok(())
    }

    /// Recomputes the basic values `xb = B^{-1} (-N x_N)` from the installed
    /// factorization (LU followed by any product-form etas), reusing the
    /// engine-owned buffers (ftran fully overwrites its output).
    fn compute_xb(&mut self) {
        let m = self.std.nrows;
        self.work_row[..m].fill(0.0);
        for j in 0..self.std.ncols() {
            if matches!(self.state[j], VarState::Basic(_)) {
                continue;
            }
            let xj = self.xval[j];
            // lint: allow(float-eq, reason = "exact-zero skip is a sparsity guard: skipping true zeros never changes the arithmetic")
            if xj != 0.0 {
                let (rows, vals) = self.std.a.col(j);
                for (&r, &v) in rows.iter().zip(vals) {
                    self.work_row[r as usize] -= v * xj;
                }
            }
        }
        let lu = self
            .lu
            .take()
            // lint: allow(lib-unwrap, reason = "invariant: every caller installs an LU immediately before recomputing xb")
            .expect("invariant: LU installed before compute_xb");
        lu.ftran(&mut self.work_row, &mut self.xb);
        self.lu = Some(lu);
        // Dense forward pass over the eta file (empty right after a
        // refactorization; populated when a preserved factorization carries
        // product-form row-growth updates).
        for k in 0..self.etas.len() {
            let head = self.etas.head(k);
            let r = head.pos as usize;
            let t = self.xb[r] / head.pivot;
            // lint: allow(float-eq, reason = "exact-zero skip is a sparsity guard: skipping true zeros never changes the arithmetic")
            if t != 0.0 {
                for &(i, wi) in self.etas.entries_of(k) {
                    if i != head.pos {
                        self.xb[i as usize] -= wi * t;
                    }
                }
            }
            self.xb[r] = t;
        }
    }

    /// Replaces whichever basis column failed to pivot with the artificial
    /// of `row`, re-activating that artificial.
    fn repair_basis(&mut self, row: usize) -> Result<(), SolveError> {
        let art = self.std.artificial_col(row);
        if self.basis.contains(&art) {
            return Err(SolveError::Numerical(format!(
                "basis repair loop on row {row}"
            )));
        }
        // Find a basis column covering `row` to evict: prefer one whose
        // column actually has an entry in `row`.
        let mut evict_pos = None;
        for (pos, &j) in self.basis.iter().enumerate() {
            let (rows, _) = self.std.a.col(j);
            if rows.binary_search(&(row as u32)).is_ok() {
                evict_pos = Some(pos);
            }
        }
        let pos = evict_pos.unwrap_or(0);
        let evicted = self.basis[pos];
        self.xval[evicted] = self.std.resting_value(evicted);
        self.state[evicted] = if self.std.lower[evicted] == self.std.upper[evicted] {
            VarState::Fixed
        } else if self.xval[evicted] == self.std.lower[evicted] {
            VarState::AtLower
        } else {
            VarState::AtUpper
        };
        // Re-open the artificial so it can absorb any residual.
        self.std.lower[art] = f64::NEG_INFINITY;
        self.std.upper[art] = f64::INFINITY;
        self.basis[pos] = art;
        self.state[art] = VarState::Basic(pos as u32);
        Ok(())
    }

    /// Assembles the user-facing solution from the current iterate.
    fn extract(&mut self, status: Status) -> Solution {
        // Mirror basic values into xval.
        for (pos, &j) in self.basis.iter().enumerate() {
            self.xval[j] = self.xb[pos];
        }
        let x: Vec<f64> = self.xval[..self.std.nstruct].to_vec();
        let mut obj = self.std.obj_offset;
        for (j, &xj) in x.iter().enumerate() {
            obj += self.std.obj_sign * self.std.cost[j] * xj;
        }
        // Duals from a final BTRAN with phase-2 costs.
        for j in 0..self.std.ncols() {
            if self.std.kind[j] != ColKind::Artificial {
                self.cost[j] = self.std.cost[j];
            }
        }
        let y = self.take_duals();
        let duals: Vec<f64> = y.iter().map(|&v| self.std.obj_sign * v).collect();
        self.put_duals(y);
        let snap = |state: VarState| match state {
            VarState::Basic(_) => BasisStatus::Basic,
            VarState::AtLower | VarState::Fixed => BasisStatus::AtLower,
            VarState::AtUpper => BasisStatus::AtUpper,
            VarState::Free => BasisStatus::Free,
        };
        let basis = Basis {
            cols: (0..self.std.nstruct).map(|j| snap(self.state[j])).collect(),
            rows: (0..self.std.nrows)
                .map(|i| snap(self.state[self.std.activity_col(i)]))
                .collect(),
        };
        Solution {
            status,
            objective: obj,
            x,
            duals,
            basis: Some(basis),
            stats: self.stats,
        }
    }
}

enum RatioOutcome {
    Unbounded,
    BoundFlip(f64),
    Pivot { pos: usize, step: f64 },
}

/// Visits the entries of `w` in ascending index order: the sorted pattern
/// when tracked, every slot after a dense fallback. Pattern order equals
/// the dense scan order restricted to (potential) nonzeros, so consumers
/// behave identically in both modes.
#[inline]
fn for_each_entry(w: &WorkVec, mut f: impl FnMut(usize, f64)) {
    if w.is_dense() {
        for (pos, &wp) in w.values.iter().enumerate() {
            f(pos, wp);
        }
    } else {
        for &p in &w.pattern {
            f(p as usize, w.values[p as usize]);
        }
    }
}

/// Test-and-bench harness that drives the engine one pivot batch at a time.
///
/// Hidden from the public API: the supported consumers are the crate's
/// allocation test and the per-pivot kernel benchmark, which need to put
/// the engine into a steady state (factorized basis, warmed scratch
/// arenas) and then run an exact number of pivots under observation.
///
/// The problem must be feasible at its crash basis (phase-2-only): the
/// probe advances by re-entering the phase-2 loop, which is only sound when
/// no phase-1 bookkeeping is pending. `refactor_interval` is disabled so
/// the measured window exercises the eta-file path, not `Lu::factor`.
#[doc(hidden)]
#[derive(Clone)]
pub struct PivotProbe {
    engine: Engine,
}

impl PivotProbe {
    /// Standardizes `p`, runs `warmup` simplex iterations, and parks the
    /// engine at its iteration limit, ready to step.
    ///
    /// # Panics
    /// Panics if `p` does not standardize, if the warmup terminates before
    /// exhausting its iteration budget (the probe needs a problem big
    /// enough to keep pivoting), or if the crash basis needed a phase 1.
    pub fn new(p: &Problem, warmup: u64) -> Self {
        Self::new_with(
            p,
            warmup,
            &SimplexConfig {
                // Refactorize only on demand: the zero-allocation test
                // must not cross a periodic `Lu::factor` (which allocates)
                // inside its measured window.
                refactor_interval: usize::MAX,
                ..SimplexConfig::default()
            },
        )
    }

    /// Like [`new`](Self::new), but with explicit simplex settings — the
    /// kernel benchmarks use this to probe with the dense kernels forced
    /// (`kernel_density_threshold: 0.0`) as the comparison baseline.
    ///
    /// Only the warmup budget of `base` is overridden; in particular the
    /// refactorization cadence is honored, so probed windows measure the
    /// realistic steady state (periodic refactorization included) rather
    /// than an ever-growing eta file.
    pub fn new_with(p: &Problem, warmup: u64, base: &SimplexConfig) -> Self {
        // lint: allow(lib-unwrap, reason = "bench-only probe constructor: a malformed probe problem is a programming error in the benchmark, not a runtime condition")
        let std = standardize(p).expect("probe problem must standardize");
        let cfg = SimplexConfig {
            max_iterations: warmup.max(1),
            ..*base
        };
        let mut engine = Engine::new(std, cfg);
        let sol = engine
            .solve(None, false, false)
            // lint: allow(lib-unwrap, reason = "bench-only probe constructor: warmup failure means the benchmark fixture is broken and should abort loudly")
            .expect("probe warmup failed");
        assert_eq!(
            sol.status,
            Status::IterationLimit,
            "probe exhausted the problem during warmup"
        );
        assert_eq!(
            engine.stats.phase1_iterations, 0,
            "probe problems must be feasible at the crash basis"
        );
        PivotProbe { engine }
    }

    /// Pre-grows the eta arena for `n` further pivots, so the measured
    /// window appends etas without allocating.
    pub fn reserve(&mut self, n: usize) {
        let m = self.engine.std.nrows;
        self.engine.etas.reserve(n + 1, (n + 1) * (m + 1));
        let total = self.engine.etas.len() + n + 1;
        self.engine.eta_active.reserve(total);
    }

    /// Runs up to `n` further pivots (phase-2 iterations) and returns how
    /// many actually ran — fewer only if the problem terminated first.
    pub fn pivots(&mut self, n: u64) -> u64 {
        let before = self.engine.stats.iterations;
        self.engine.cfg.max_iterations = before + n;
        let _ = self
            .engine
            .iterate(false)
            // lint: allow(lib-unwrap, reason = "bench-only probe: a numerical failure mid-window invalidates the measurement, so abort loudly")
            .expect("probe pivot batch hit a numerical failure");
        self.engine.stats.iterations - before
    }

    /// Runs the FTRAN kernel (`w = B⁻¹ a_q`, triangular solves plus eta
    /// passes) once for every nonbasic column at the parked basis, and
    /// returns how many ran. Engine state other than scratch and counters
    /// is untouched, so repeated sweeps time the identical computation —
    /// the kernel benchmarks divide wall-clock by the return value.
    pub fn ftran_sweep(&mut self) -> u64 {
        let mut ran = 0;
        for q in 0..self.engine.state.len() {
            if matches!(self.engine.state[q], VarState::Basic(_) | VarState::Fixed) {
                continue;
            }
            self.engine.ftran_entering(q);
            let w = std::mem::take(&mut self.engine.ftran_w);
            std::hint::black_box(&w.values);
            self.engine.ftran_w = w;
            ran += 1;
        }
        ran
    }

    /// Runs the pivotal-row BTRAN kernel (`ρ = B⁻ᵀ e_r`) once for every
    /// basis position at the parked basis, and returns how many ran.
    pub fn btran_sweep(&mut self) -> u64 {
        let m = self.engine.std.nrows;
        for pos in 0..m {
            let mut rho = std::mem::take(&mut self.engine.rho);
            rho.clear();
            rho.set(pos as u32, 1.0);
            self.engine.btran_pos_sparse(&mut rho);
            std::hint::black_box(&rho.values);
            self.engine.rho = rho;
        }
        m as u64
    }

    /// Work counters accumulated so far (warmup included).
    pub fn stats(&self) -> SolveStats {
        self.engine.stats
    }
}

/// A stateful solver holding one standardized problem across a *sequence*
/// of solves.
///
/// A session standardizes its [`Problem`] once and keeps the simplex
/// engine's workspace alive between solves, so callers that repeatedly
/// re-solve small variations of the same LP — mutated bounds, RHS ranges,
/// or costs — avoid both the rebuild and most of the simplex work:
/// each [`solve`](Self::solve) warm-starts from the previous solve's final
/// basis (or one supplied via [`warm_start_from`](Self::warm_start_from)).
///
/// Warm starts are strictly an optimization: if the stored basis cannot be
/// installed (shape mismatch after the problem was mutated elsewhere,
/// singular basis, numerical trouble), the solve silently restarts cold and
/// reports it in [`SolveStats::warm_start_fallbacks`]. The answer is always
/// the same as a fresh [`solve`](crate::solve) of the mutated problem,
/// within tolerance.
///
/// Sessions are [`Clone`]: a clone carries the full engine state, including
/// the basis the original would warm-start from, and the two evolve
/// independently afterwards. Speculative evaluation (e.g. the RET probe
/// pool) clones one template session per probe so every probe re-solves
/// from the *same* starting basis — making each answer, and its iteration
/// counts, a pure function of the probed bounds rather than of which
/// thread answered which probe in which order.
///
/// ```
/// use wavesched_lp::{Objective, Problem, SolverSession, Status};
///
/// let mut p = Problem::new(Objective::Maximize);
/// let x = p.add_col(0.0, 10.0, 1.0);
/// let r = p.add_row(f64::NEG_INFINITY, 6.0, &[(x, 1.0)]);
/// let mut sess = SolverSession::new(&p).unwrap();
/// let s1 = sess.solve().unwrap();
/// assert_eq!(s1.status, Status::Optimal);
/// assert!((s1.objective - 6.0).abs() < 1e-9);
///
/// // Tighten the row in place and re-solve warm.
/// sess.set_row_bounds(r, f64::NEG_INFINITY, 4.0);
/// let s2 = sess.solve().unwrap();
/// assert!((s2.objective - 4.0).abs() < 1e-9);
/// assert_eq!(sess.stats().warm_starts_accepted, 1);
/// ```
#[derive(Clone)]
pub struct SolverSession {
    engine: Engine,
    warm: Option<Basis>,
    agg: SolveStats,
    /// True when `warm` is this session's *own* last optimal basis for the
    /// current problem structure (not user-supplied, no columns/rows added
    /// since). Together with `!cost_dirty` this is the precondition for the
    /// dual simplex re-solve path: the basis is then dual feasible up to
    /// the bound/RHS edits made since.
    warm_is_own: bool,
    /// True when an objective coefficient actually changed since the last
    /// optimal solve. Cost edits invalidate dual feasibility, so they
    /// force the next re-solve back onto the primal warm path.
    cost_dirty: bool,
}

impl SolverSession {
    /// Builds a session for `p` under default simplex settings.
    pub fn new(p: &Problem) -> Result<Self, SolveError> {
        Self::with_config(p, &SimplexConfig::default())
    }

    /// Builds a session for `p` with explicit [`SimplexConfig`] settings.
    pub fn with_config(p: &Problem, cfg: &SimplexConfig) -> Result<Self, SolveError> {
        let std = standardize(p)?;
        Ok(SolverSession {
            engine: Engine::new(std, cfg.clone()),
            warm: None,
            agg: SolveStats::default(),
            warm_is_own: false,
            cost_dirty: false,
        })
    }

    /// Number of columns of the held problem.
    pub fn num_cols(&self) -> usize {
        self.engine.std.nstruct
    }

    /// Number of rows of the held problem.
    pub fn num_rows(&self) -> usize {
        self.engine.std.nrows
    }

    /// Overrides the bounds of `col` in place (no rebuild).
    ///
    /// # Panics
    /// Panics on NaN or crossed finite bounds, or a foreign column.
    pub fn set_col_bounds(&mut self, col: Col, lower: f64, upper: f64) {
        let j = col.index();
        assert!(j < self.engine.std.nstruct, "col out of range");
        self.set_std_bounds(j, lower, upper);
    }

    /// Overrides the bounds of `row` in place (no rebuild).
    ///
    /// # Panics
    /// Panics on NaN or crossed finite bounds, or a foreign row.
    pub fn set_row_bounds(&mut self, row: Row, lower: f64, upper: f64) {
        let i = row.index();
        assert!(i < self.engine.std.nrows, "row out of range");
        let j = self.engine.std.activity_col(i);
        self.set_std_bounds(j, lower, upper);
    }

    fn set_std_bounds(&mut self, j: usize, lower: f64, upper: f64) {
        assert!(!lower.is_nan() && !upper.is_nan(), "NaN bound");
        let l = if is_inf(lower) && lower < 0.0 {
            f64::NEG_INFINITY
        } else {
            lower
        };
        let u = if is_inf(upper) && upper > 0.0 {
            f64::INFINITY
        } else {
            upper
        };
        assert!(l <= u, "bounds crossed: [{l}, {u}]");
        self.engine.std.lower[j] = l;
        self.engine.std.upper[j] = u;
    }

    /// Overrides the objective coefficient of `col` in place.
    ///
    /// # Panics
    /// Panics on a NaN cost or a foreign column.
    pub fn set_cost(&mut self, col: Col, cost: f64) {
        let j = col.index();
        assert!(j < self.engine.std.nstruct, "col out of range");
        assert!(cost.is_finite(), "non-finite cost");
        let signed = self.engine.std.obj_sign * cost;
        // lint: allow(float-eq, reason = "exact no-op detection: re-setting the identical coefficient (the common install-everything pattern) must not disqualify the dual re-solve path, and an exact compare can never misclassify a real change")
        if signed != self.engine.std.cost[j] {
            self.engine.std.cost[j] = signed;
            self.cost_dirty = true;
        }
    }

    /// Appends structural columns to the held problem in place, returning
    /// their handles (contiguous, starting at the previous
    /// [`num_cols`](Self::num_cols)).
    ///
    /// The carried warm basis is extended so the new columns enter
    /// **nonbasic at a bound** (the finite bound nearest zero, or free at
    /// zero): the next [`solve`](Self::solve) warm-starts from the previous
    /// optimal basis with the new columns parked, which is the delayed
    /// column generation step. A basis supplied later via
    /// [`warm_start_from`](Self::warm_start_from) with a stale shape still
    /// falls back to a cold solve — appending preserves the invariant that
    /// a warm start can only change the work counters, never the answer.
    ///
    /// # Panics
    /// Panics on NaN/crossed bounds, non-finite costs or coefficients,
    /// out-of-range rows, or duplicate row entries within one column.
    pub fn add_columns(&mut self, cols: &[NewColumn]) -> Vec<Col> {
        let base = self.engine.std.nstruct;
        self.warm_is_own = false; // structure change: not a bounds/RHS-only edit
        self.engine.append_columns(cols);
        if let Some(w) = &mut self.warm {
            for j in base..base + cols.len() {
                // Park where the engine's resting rule will put it.
                let l = self.engine.std.lower[j];
                let u = self.engine.std.upper[j];
                let status = if l.is_finite() && u.is_finite() {
                    if l.abs() <= u.abs() {
                        BasisStatus::AtLower
                    } else {
                        BasisStatus::AtUpper
                    }
                } else if l.is_finite() {
                    BasisStatus::AtLower
                } else if u.is_finite() {
                    BasisStatus::AtUpper
                } else {
                    BasisStatus::Free
                };
                w.cols.push(status);
            }
        }
        (base..base + cols.len()).map(Col::from_index).collect()
    }

    /// Appends constraint rows to the held problem in place, returning
    /// their handles (contiguous, starting at the previous
    /// [`num_rows`](Self::num_rows)).
    ///
    /// The carried warm basis is extended with the new rows' activity
    /// columns marked **basic**: the extended basis matrix is block
    /// triangular (old basis unchanged, `-1` diagonal on the new rows), so
    /// it is always nonsingular, and a new row whose activity lands outside
    /// its bounds is repaired by the warm-start phase-1 bound shift exactly
    /// like any other warm-start violation — with cold fallback on any
    /// surprise.
    ///
    /// # Panics
    /// Panics on NaN/crossed bounds, non-finite coefficients, or
    /// out-of-range columns.
    pub fn add_rows(&mut self, rows: &[NewRow]) -> Vec<Row> {
        let base = self.engine.std.nrows;
        self.warm_is_own = false; // structure change: not a bounds/RHS-only edit
        self.engine.append_rows(rows);
        if let Some(w) = &mut self.warm {
            w.rows.resize(w.rows.len() + rows.len(), BasisStatus::Basic);
        }
        (base..base + rows.len()).map(Row::from_index).collect()
    }

    /// Seeds the next solve with `basis` — e.g. one extracted from a
    /// structurally related problem — replacing whatever basis the session
    /// was carrying.
    pub fn warm_start_from(&mut self, basis: Basis) {
        self.warm = Some(basis);
        self.warm_is_own = false; // foreign provenance: primal warm path only
                                  // The carried factorization factors the engine's *live* basis, not
                                  // the foreign one about to be installed.
        self.engine.reuse_ready = false;
    }

    /// Drops the carried basis; the next solve starts cold.
    pub fn clear_warm_start(&mut self) {
        self.warm = None;
        self.warm_is_own = false;
        self.engine.reuse_ready = false;
    }

    /// Test-only hook: corrupts the carried LU factorization in place (a
    /// single factor entry is scaled), so the differential suite can prove
    /// the reuse residual guard rejects a bad factorization and falls back
    /// cold instead of propagating wrong answers.
    #[doc(hidden)]
    pub fn debug_corrupt_factorization(&mut self) {
        if let Some(lu) = self.engine.lu.as_mut() {
            lu.corrupt_for_test();
        }
    }

    /// Solves the current state of the held problem, warm-starting from the
    /// carried basis when one is available.
    ///
    /// Only an **optimal** solve replaces the carried basis: the final basis
    /// of an infeasible (or limit-hit) solve is a phase-1 artifact that makes
    /// a poor starting point, so after such a solve the session keeps
    /// warm-starting from the last optimal basis it saw. Use
    /// [`warm_start_from`](SolverSession::warm_start_from) /
    /// [`clear_warm_start`](SolverSession::clear_warm_start) to override.
    pub fn solve(&mut self) -> Result<Solution, SolveError> {
        // The dual re-solve path needs dual feasibility of the carried
        // basis, which only the session can certify: its own last optimal
        // basis for this exact structure, with every edit since confined
        // to bounds/RHS. Anything else goes down the primal warm ladder.
        let try_dual = self.warm_is_own && !self.cost_dirty;
        // Factorization reuse rides on the engine's own validity tracking
        // (`reuse_ready`, maintained across every in-place edit); the
        // session only pins it off under the `Always` A/B policy.
        let try_reuse = self.engine.cfg.refactor_policy != RefactorPolicy::Always;
        let sol = self.engine.solve(self.warm.as_ref(), try_dual, try_reuse)?;
        if sol.status == Status::Optimal {
            self.warm.clone_from(&sol.basis);
            self.warm_is_own = sol.basis.is_some();
            self.cost_dirty = false;
        }
        self.agg.merge(&sol.stats);
        Ok(sol)
    }

    /// Counters aggregated over every solve this session has run.
    pub fn stats(&self) -> SolveStats {
        self.agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Objective, Problem};

    fn assert_near(a: f64, b: f64) {
        assert!(
            (a - b).abs() < 1e-6,
            "expected {b}, got {a} (diff {})",
            (a - b).abs()
        );
    }

    #[test]
    fn ratio_clamp_zero_sign_is_deterministic() {
        // `f64::max(-0.0, 0.0)` may return either zero depending on how the
        // build lowers it; the ratio-test clamp must always produce `+0.0`
        // or `total_cmp`-ordered candidate sorts diverge across build
        // profiles (debug vs release picking different pivots).
        assert_eq!(pos_or_zero(-0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(pos_or_zero(0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(pos_or_zero(f64::NAN).to_bits(), 0.0f64.to_bits());
        assert_eq!(pos_or_zero(-1.5).to_bits(), 0.0f64.to_bits());
        assert_eq!(pos_or_zero(2.5), 2.5);
    }

    #[test]
    fn simple_max() {
        // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6
        let mut p = Problem::new(Objective::Maximize);
        let x = p.add_col(0.0, f64::INFINITY, 3.0);
        let y = p.add_col(0.0, f64::INFINITY, 2.0);
        p.add_row(f64::NEG_INFINITY, 4.0, &[(x, 1.0), (y, 1.0)]);
        p.add_row(f64::NEG_INFINITY, 6.0, &[(x, 1.0), (y, 3.0)]);
        let s = solve(&p).unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_near(s.objective, 12.0);
        assert_near(s.x[0], 4.0);
        assert_near(s.x[1], 0.0);
    }

    #[test]
    fn equality_rows_need_phase1() {
        // min x + y s.t. x + y = 3, x - y = 1 => x=2, y=1, obj 3
        let mut p = Problem::new(Objective::Minimize);
        let x = p.add_col(0.0, f64::INFINITY, 1.0);
        let y = p.add_col(0.0, f64::INFINITY, 1.0);
        p.add_row(3.0, 3.0, &[(x, 1.0), (y, 1.0)]);
        p.add_row(1.0, 1.0, &[(x, 1.0), (y, -1.0)]);
        let s = solve(&p).unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_near(s.objective, 3.0);
        assert_near(s.x[0], 2.0);
        assert_near(s.x[1], 1.0);
    }

    #[test]
    fn infeasible_detected() {
        let mut p = Problem::new(Objective::Minimize);
        let x = p.add_col(0.0, 1.0, 1.0);
        p.add_row(5.0, f64::INFINITY, &[(x, 1.0)]);
        let s = solve(&p).unwrap();
        assert_eq!(s.status, Status::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut p = Problem::new(Objective::Maximize);
        let x = p.add_col(0.0, f64::INFINITY, 1.0);
        let y = p.add_col(0.0, f64::INFINITY, 0.0);
        p.add_row(0.0, f64::INFINITY, &[(x, 1.0), (y, -1.0)]);
        let s = solve(&p).unwrap();
        assert_eq!(s.status, Status::Unbounded);
    }

    #[test]
    fn bounded_variables_and_ranges() {
        // max x + y, 1 <= x <= 2, 0 <= y <= 2, 2 <= x + y <= 3
        let mut p = Problem::new(Objective::Maximize);
        let x = p.add_col(1.0, 2.0, 1.0);
        let y = p.add_col(0.0, 2.0, 1.0);
        p.add_row(2.0, 3.0, &[(x, 1.0), (y, 1.0)]);
        let s = solve(&p).unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_near(s.objective, 3.0);
    }

    #[test]
    fn free_variable() {
        // min x, x free, x >= -7 via row
        let mut p = Problem::new(Objective::Minimize);
        let x = p.add_col(f64::NEG_INFINITY, f64::INFINITY, 1.0);
        p.add_row(-7.0, f64::INFINITY, &[(x, 1.0)]);
        let s = solve(&p).unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_near(s.objective, -7.0);
        assert_near(s.x[0], -7.0);
    }

    #[test]
    fn negative_bounds() {
        // min 2a + b with a in [-3,-1], b in [-5, 0], a + b >= -4
        let mut p = Problem::new(Objective::Minimize);
        let a = p.add_col(-3.0, -1.0, 2.0);
        let b = p.add_col(-5.0, 0.0, 1.0);
        p.add_row(-4.0, f64::INFINITY, &[(a, 1.0), (b, 1.0)]);
        let s = solve(&p).unwrap();
        assert_eq!(s.status, Status::Optimal);
        // a = -3 gives cost -6, then b >= -1 => b = -1, total -7.
        assert_near(s.objective, -7.0);
        assert_near(s.x[0], -3.0);
        assert_near(s.x[1], -1.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Highly degenerate: many redundant rows through the same vertex.
        let mut p = Problem::new(Objective::Maximize);
        let x = p.add_col(0.0, f64::INFINITY, 1.0);
        let y = p.add_col(0.0, f64::INFINITY, 1.0);
        for k in 1..=8 {
            p.add_row(f64::NEG_INFINITY, k as f64, &[(x, k as f64), (y, k as f64)]);
        }
        let s = solve(&p).unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_near(s.objective, 1.0);
    }

    #[test]
    fn objective_offset_respected() {
        let mut p = Problem::new(Objective::Minimize);
        let x = p.add_col(1.0, 5.0, 2.0);
        let _ = x;
        p.add_objective_offset(100.0);
        let s = solve(&p).unwrap();
        assert_near(s.objective, 102.0);
    }

    #[test]
    fn fixed_variables() {
        let mut p = Problem::new(Objective::Maximize);
        let x = p.add_col(3.0, 3.0, 1.0);
        let y = p.add_col(0.0, 10.0, 1.0);
        p.add_row(f64::NEG_INFINITY, 5.0, &[(x, 1.0), (y, 1.0)]);
        let s = solve(&p).unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_near(s.x[0], 3.0);
        assert_near(s.x[1], 2.0);
    }

    #[test]
    fn empty_problem() {
        let p = Problem::new(Objective::Minimize);
        let s = solve(&p).unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_near(s.objective, 0.0);
    }

    #[test]
    fn transportation_problem() {
        // 2 supplies (10, 20), 3 demands (5, 10, 15), unit costs.
        let costs = [[2.0, 4.0, 5.0], [3.0, 1.0, 7.0]];
        let supply = [10.0, 20.0];
        let demand = [5.0, 10.0, 15.0];
        let mut p = Problem::new(Objective::Minimize);
        let mut xs = [[None; 3]; 2];
        for i in 0..2 {
            for j in 0..3 {
                xs[i][j] = Some(p.add_col(0.0, f64::INFINITY, costs[i][j]));
            }
        }
        for i in 0..2 {
            let coeffs: Vec<_> = (0..3).map(|j| (xs[i][j].unwrap(), 1.0)).collect();
            p.add_row(f64::NEG_INFINITY, supply[i], &coeffs);
        }
        for j in 0..3 {
            let coeffs: Vec<_> = (0..2).map(|i| (xs[i][j].unwrap(), 1.0)).collect();
            p.add_row(demand[j], demand[j], &coeffs);
        }
        let s = solve(&p).unwrap();
        assert_eq!(s.status, Status::Optimal);
        // Optimal: x02=10 (50), x10=5 (15), x11=10 (10), x12=5 (35) => 110.
        assert_near(s.objective, 110.0);
    }

    #[test]
    fn cloned_sessions_answer_identically_and_independently() {
        // A template session solved once; clones re-solve tightened
        // variants. Every clone starts from the same basis, so the same
        // tightening must produce bit-identical objectives and stats no
        // matter how many clones ran before it — the property the RET
        // speculative probe pool is built on.
        let mut p = Problem::new(Objective::Maximize);
        let x = p.add_col(0.0, 4.0, 1.0);
        let y = p.add_col(0.0, 10.0, 2.0);
        p.add_row(f64::NEG_INFINITY, 12.0, &[(x, 1.0), (y, 2.0)]);
        let mut template = SolverSession::new(&p).unwrap();
        let base = template.solve().unwrap();
        assert_eq!(base.status, Status::Optimal);

        let probe = |ub: f64| {
            let mut s = template.clone();
            s.set_col_bounds(y, 0.0, ub);
            let sol = s.solve().unwrap();
            (sol.objective.to_bits(), sol.stats)
        };
        let (obj_a, stats_a) = probe(3.0);
        let (obj_b, _) = probe(1.0);
        let (obj_a2, stats_a2) = probe(3.0); // same probe after another ran
        assert_eq!(obj_a, obj_a2, "clone answers must not depend on order");
        assert_eq!(stats_a, stats_a2);
        assert_ne!(obj_a, obj_b);
        // The template itself was never advanced by its clones.
        let again = template.solve().unwrap();
        assert_eq!(again.objective.to_bits(), base.objective.to_bits());
    }

    #[test]
    fn add_columns_matches_monolithic() {
        // Restricted master: max 3x s.t. x <= 4, x + 3y <= 6. Solve, then
        // append y (cost 2) and re-solve; must match the monolithic build.
        let mut p = Problem::new(Objective::Maximize);
        let x = p.add_col(0.0, f64::INFINITY, 3.0);
        let r0 = p.add_row(f64::NEG_INFINITY, 4.0, &[(x, 1.0)]);
        let r1 = p.add_row(f64::NEG_INFINITY, 6.0, &[(x, 1.0)]);
        let mut sess = SolverSession::new(&p).unwrap();
        let s1 = sess.solve().unwrap();
        assert_eq!(s1.status, Status::Optimal);
        assert_near(s1.objective, 12.0);

        let cols = sess.add_columns(&[NewColumn {
            lower: 0.0,
            upper: f64::INFINITY,
            cost: 2.0,
            entries: vec![(r1, 3.0), (r0, 0.0)],
        }]);
        assert_eq!(cols.len(), 1);
        assert_eq!(sess.num_cols(), 2);
        let s2 = sess.solve().unwrap();
        assert_eq!(s2.status, Status::Optimal);
        // Monolithic optimum of max 3x + 2y, x <= 4, x + 3y <= 6:
        // x = 4, y = 2/3 => 12 + 4/3.
        assert_near(s2.objective, 12.0 + 4.0 / 3.0);
        assert_near(s2.x[1], 2.0 / 3.0);
        // The second solve went through the warm path (the appended column
        // entered nonbasic at its lower bound).
        assert_eq!(s2.stats.warm_starts_accepted, 1);
        assert_eq!(s2.stats.warm_start_fallbacks, 0);
    }

    #[test]
    fn add_rows_matches_monolithic() {
        // max x + y, x,y in [0,10], x + y <= 12; then append x - y <= 2.
        let mut p = Problem::new(Objective::Maximize);
        let x = p.add_col(0.0, 10.0, 2.0);
        let y = p.add_col(0.0, 10.0, 1.0);
        p.add_row(f64::NEG_INFINITY, 12.0, &[(x, 1.0), (y, 1.0)]);
        let mut sess = SolverSession::new(&p).unwrap();
        let s1 = sess.solve().unwrap();
        assert_near(s1.objective, 2.0 * 10.0 + 2.0);

        let rows = sess.add_rows(&[NewRow {
            lower: f64::NEG_INFINITY,
            upper: 2.0,
            entries: vec![(x, 1.0), (y, -1.0)],
        }]);
        assert_eq!(rows.len(), 1);
        assert_eq!(sess.num_rows(), 2);
        let s2 = sess.solve().unwrap();
        assert_eq!(s2.status, Status::Optimal);
        // Monolithic: x - y <= 2 and x + y <= 12 => x = 7, y = 5 => 19.
        assert_near(s2.objective, 19.0);
        let mut q = Problem::new(Objective::Maximize);
        let qx = q.add_col(0.0, 10.0, 2.0);
        let qy = q.add_col(0.0, 10.0, 1.0);
        q.add_row(f64::NEG_INFINITY, 12.0, &[(qx, 1.0), (qy, 1.0)]);
        q.add_row(f64::NEG_INFINITY, 2.0, &[(qx, 1.0), (qy, -1.0)]);
        let mono = solve(&q).unwrap();
        assert_eq!(mono.objective.to_bits(), s2.objective.to_bits());
    }

    #[test]
    fn colgen_loop_reaches_full_optimum() {
        // A tiny delayed-column-generation loop: three "paths" of costs
        // 5, 4, 3 share one capacity row of 6; start with only the worst
        // one and add the rest one batch at a time, re-solving warm.
        let mut p = Problem::new(Objective::Maximize);
        let _x0 = p.add_col(0.0, f64::INFINITY, 3.0);
        let cap = p.add_row(f64::NEG_INFINITY, 6.0, &[(Col::from_index(0), 1.0)]);
        let mut sess = SolverSession::new(&p).unwrap();
        let mut sol = sess.solve().unwrap();
        assert_near(sol.objective, 18.0);
        for cost in [4.0, 5.0] {
            sess.add_columns(&[NewColumn {
                lower: 0.0,
                upper: f64::INFINITY,
                cost,
                entries: vec![(cap, 1.0)],
            }]);
            sol = sess.solve().unwrap();
            assert_eq!(sol.status, Status::Optimal);
        }
        assert_near(sol.objective, 30.0); // all 6 units on the cost-5 column
        assert_eq!(sess.stats().warm_starts_accepted, 2);
        assert_eq!(sess.stats().warm_start_fallbacks, 0);
    }

    #[test]
    fn add_columns_then_stale_external_basis_falls_back_cold() {
        let mut p = Problem::new(Objective::Maximize);
        let x = p.add_col(0.0, 4.0, 1.0);
        let r = p.add_row(f64::NEG_INFINITY, 3.0, &[(x, 1.0)]);
        let mut sess = SolverSession::new(&p).unwrap();
        let s1 = sess.solve().unwrap();
        let stale = s1.basis.clone().unwrap();
        sess.add_columns(&[NewColumn {
            lower: 0.0,
            upper: 4.0,
            cost: 2.0,
            entries: vec![(r, 1.0)],
        }]);
        // Supplying the pre-append basis (wrong shape) must fall back to a
        // cold solve with the answer unchanged — the PR-1 invariant.
        sess.warm_start_from(stale);
        let s2 = sess.solve().unwrap();
        assert_eq!(s2.status, Status::Optimal);
        assert_near(s2.objective, 6.0);
        assert_eq!(s2.stats.warm_start_fallbacks, 1);
        assert_eq!(s2.stats.warm_starts_accepted, 0);
    }

    #[test]
    fn add_rows_then_columns_interleaved() {
        // Grow both dimensions between solves and check against the
        // monolithic build, including duals for the appended row.
        let mut p = Problem::new(Objective::Minimize);
        let x = p.add_col(0.0, f64::INFINITY, 2.0);
        p.add_row(3.0, f64::INFINITY, &[(x, 1.0)]);
        let mut sess = SolverSession::new(&p).unwrap();
        let s1 = sess.solve().unwrap();
        assert_near(s1.objective, 6.0);
        // New row only over x, then a cheaper column covering both rows.
        let r2 = sess.add_rows(&[NewRow {
            lower: 5.0,
            upper: f64::INFINITY,
            entries: vec![(x, 1.0)],
        }]);
        let s2 = sess.solve().unwrap();
        assert_near(s2.objective, 10.0);
        sess.add_columns(&[NewColumn {
            lower: 0.0,
            upper: f64::INFINITY,
            cost: 1.0,
            entries: vec![(Row::from_index(0), 1.0), (r2[0], 1.0)],
        }]);
        let s3 = sess.solve().unwrap();
        assert_eq!(s3.status, Status::Optimal);
        assert_near(s3.objective, 5.0); // all demand met by the new column
        let mut q = Problem::new(Objective::Minimize);
        let qx = q.add_col(0.0, f64::INFINITY, 2.0);
        let qy = q.add_col(0.0, f64::INFINITY, 1.0);
        q.add_row(3.0, f64::INFINITY, &[(qx, 1.0), (qy, 1.0)]);
        q.add_row(5.0, f64::INFINITY, &[(qx, 1.0), (qy, 1.0)]);
        let mono = solve(&q).unwrap();
        assert_near(s3.objective, mono.objective);
    }

    #[test]
    fn add_columns_on_unsolved_session() {
        // Appending before any solve must behave like building monolithic.
        let mut p = Problem::new(Objective::Maximize);
        let x = p.add_col(0.0, 2.0, 1.0);
        let r = p.add_row(f64::NEG_INFINITY, 5.0, &[(x, 1.0)]);
        let mut sess = SolverSession::new(&p).unwrap();
        sess.add_columns(&[NewColumn {
            lower: 0.0,
            upper: 2.0,
            cost: 3.0,
            entries: vec![(r, 1.0)],
        }]);
        let s = sess.solve().unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_near(s.objective, 2.0 * 3.0 + 2.0 * 1.0); // both at their bounds
    }

    #[test]
    fn duals_satisfy_weak_pricing() {
        let mut p = Problem::new(Objective::Maximize);
        let x = p.add_col(0.0, f64::INFINITY, 3.0);
        let y = p.add_col(0.0, f64::INFINITY, 5.0);
        p.add_row(f64::NEG_INFINITY, 4.0, &[(x, 1.0)]);
        p.add_row(f64::NEG_INFINITY, 12.0, &[(y, 2.0)]);
        p.add_row(f64::NEG_INFINITY, 18.0, &[(x, 3.0), (y, 2.0)]);
        let s = solve(&p).unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_near(s.objective, 36.0);
        // Strong duality: b'y == objective for this classic example.
        let dual_obj = 4.0 * s.duals[0] + 12.0 * s.duals[1] + 18.0 * s.duals[2];
        assert_near(dual_obj, 36.0);
    }
}
