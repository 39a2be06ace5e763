//! The simplex engine: its state, the primal pivot loop with the ratio
//! test, the two-phase bookkeeping, refactorization, and extraction.

use super::entry::Relaxed;
use super::eta::EtaFile;
use super::kernels::{build_row_mirror, for_each_entry};
use super::lu::{Lu, LuScratch};
use super::pricing::NOT_LISTED;
use super::{pos_or_zero, sanitize, SimplexConfig};
use crate::solution::{Basis, BasisStatus, Solution, SolveError, SolveStats, Status};
use crate::sparse::{bit_words, WorkVec};
use crate::stdform::{ColKind, StdForm};
use crate::{FEAS_TOL, PIVOT_TOL};
use wavesched_obs as obs;

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
/// of `Lu::refactor` never amortizes over so short a window.
const COST_MODEL_MIN_ETAS: usize = 16;

/// Why a refactorization is being performed — routed into the matching
/// per-reason [`SolveStats`] counter so smoke fixtures can tell cadence
/// refactorizations from forced ones. (`refactor_forced_singular` is
/// counted separately per `repair_basis` call, and `refactor_reuse_rejected`
/// at the carried-factors rung; neither is a `refactorize` entry reason.)
#[derive(Debug, Clone, Copy)]
pub(super) enum RefactorReason {
    /// The eta file reached the fixed `refactor_interval` cadence.
    Interval,
    /// The cost model decided the eta file stopped paying for itself.
    CostModel,
    /// Structurally required: the entry factor of a cold start or of a
    /// basis installed from a snapshot, claimed-optimal verification, or a
    /// zero-pivot retry.
    Forced,
}

/// How much of the live iterate is, bit for bit, what a refactorization
/// of the live basis would rebuild. Each level includes the ones before
/// it, so whatever disturbs one caps the level just below it
/// ([`Engine::inexact`]). At [`Exact::Reduced`] a verification —
/// refactorize, `compute_xb`, `recompute_reduced`, price again — is a
/// deterministic function of inputs that have not moved since it last
/// ran, and `iterate` skips it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(super) enum Exact {
    /// Pivots or flips since the last refactorization, factors extended or
    /// damaged in place, or no factors at all.
    Nothing,
    /// The factors are what `Lu::refactor` builds for the live basis and
    /// the eta file is empty.
    Factors,
    /// ... and `xb` is what `compute_xb` makes of them and of the nonbasic
    /// point as it stands.
    Basics,
    /// ... and `d`, `dual` and the eligible set are what
    /// `recompute_reduced` makes of them and of the costs as they stand.
    Reduced,
}

/// Where a nonbasic variable rests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum VarState {
    Basic(u32),
    AtLower,
    AtUpper,
    /// Free nonbasic, resting at zero.
    Free,
    /// Fixed (`l == u`) or retired artificial; never priced.
    Fixed,
}

impl VarState {
    /// The basis-snapshot status of a column in this state (fixed columns
    /// snapshot as resting at their lower bound).
    pub(super) fn status(self) -> BasisStatus {
        match self {
            VarState::Basic(_) => BasisStatus::Basic,
            VarState::AtLower | VarState::Fixed => BasisStatus::AtLower,
            VarState::AtUpper => BasisStatus::AtUpper,
            VarState::Free => BasisStatus::Free,
        }
    }
}

#[derive(Clone)]
pub(super) struct Engine {
    pub(super) std: StdForm,
    pub(super) cfg: SimplexConfig,
    /// Hard cap on total simplex iterations (both phases):
    /// [`iteration_cap`] of the current structure, re-derived when it
    /// grows. The pivot probes park the engine by lowering it.
    pub(super) max_iterations: u64,
    /// Column occupying each basis position.
    pub(super) basis: Vec<usize>,
    /// State per standardized column.
    pub(super) state: Vec<VarState>,
    /// Current value per standardized column (basic entries mirrored from
    /// `xb` on demand).
    pub(super) xval: Vec<f64>,
    /// Basic values by basis position.
    pub(super) xb: Vec<f64>,
    /// Phase-dependent cost vector.
    pub(super) cost: Vec<f64>,
    pub(super) lu: Option<Lu>,
    pub(super) etas: EtaFile,
    pub(super) stats: SolveStats,
    /// Consecutive degenerate pivots; triggers Bland's rule.
    pub(super) degen_run: u64,
    pub(super) bland: bool,
    /// Scratch: dense vector indexed by basis position.
    pub(super) work_pos: Vec<f64>,
    /// Scratch: dense vector indexed by row.
    pub(super) work_row: Vec<f64>,
    /// Reduced costs, updated incrementally per pivot and recomputed at
    /// every refactorization.
    pub(super) d: Vec<f64>,
    /// Devex reference weights.
    pub(super) weights: Vec<f64>,
    /// Row-wise mirror of the constraint matrix in CSR form (column
    /// indices only; values are re-gathered column-wise). Built at
    /// construction and rebuilt wholesale whenever the structure grows
    /// (`append_columns` / `append_rows`); between growth events the
    /// matrix structure is immutable, only bounds and costs change. It
    /// lets the pivotal-row pass touch only columns intersecting the
    /// (sparse) BTRAN result.
    pub(super) csr_ptr: Vec<usize>,
    pub(super) csr_cols: Vec<u32>,
    /// Sparse FTRAN scratch: the entering column (row-indexed RHS).
    pub(super) ftran_rhs: WorkVec,
    /// Sparse FTRAN result `w = B^{-1} a_q` (basis-position indexed),
    /// borrowed out of the engine for the ratio-test/pivot span via
    /// `mem::take` and always put back.
    pub(super) ftran_w: WorkVec,
    /// Sparse pivotal-row BTRAN result `rho = B^{-T} e_r` (row-indexed).
    pub(super) rho: WorkVec,
    /// Dense BTRAN scratch for full dual recomputation (row-indexed).
    pub(super) dual: Vec<f64>,
    /// Pivotal-row scratch: the nonbasic columns with an entry in one of
    /// ρ's rows, each once, in no particular order. This and every other
    /// per-pivot list below is sized by [`Self::size_scratch`], so
    /// steady-state pivots never grow them.
    pub(super) touched: Vec<u32>,
    /// One zeroed bit per column: `touched`'s marks while it is gathered.
    pub(super) col_words: Vec<u64>,
    /// Step-space accumulator and marks of the sparse LU triangular solves.
    pub(super) lu_scratch: LuScratch,
    /// Nonzero count above which a sparse kernel's result is flagged dense
    /// (`kernel_density_threshold` × rows, precomputed); 0 runs the dense
    /// kernels.
    pub(super) kernel_cap: usize,
    /// Columns whose bounds are temporarily shifted during phase 1 so the
    /// starting point is feasible, with their original bounds. Covers the
    /// signed artificials of a cold start and any basic variables a warm
    /// start left outside their bounds.
    pub(super) relaxed: Vec<Relaxed>,
    /// The eligible set: every column [`Self::eligible_dir`] accepts under
    /// the maintained `d` and `state`, in no particular order. Rebuilt by
    /// `recompute_reduced`, kept current by `refresh_eligible` at every
    /// change inside the pivot loop, meaningless outside it.
    pub(super) elig: Vec<u32>,
    /// Position of each column in `elig`, [`NOT_LISTED`] for the rest.
    pub(super) elig_slot: Vec<u32>,
    /// Ratio-test scratch: `(basis position, |w|, strict step)` of every
    /// entry of `w` that can block, ascending by position.
    pub(super) ratio_cand: Vec<(u32, f64, f64)>,
    /// The pivotal row `(column, α_j)` over its nonbasic support, in
    /// `touched`'s order: written by `pivotal_row`, read by the reduced-cost
    /// and weight update.
    pub(super) row_alpha: Vec<(u32, f64)>,
    /// Sanitizer sweep interval (`WS_SANITIZE`, resolved at construction);
    /// 0 disables the sanitizer entirely.
    pub(super) sanitize_every: u64,
    /// Pivots remaining until the next sanitizer sweep (0 when disabled).
    pub(super) sanitize_left: u64,
    /// Entry count of the current LU factors, set at every
    /// refactorization and bumped by the `add_rows` extension — the cost
    /// model's per-pass work unit.
    pub(super) lu_nnz: usize,
    /// True when the live engine state is a clean optimal endpoint the
    /// next solve may continue from without reinstalling anything:
    /// basis/state/xval consistent, LU factored for the live basis, eta
    /// file empty. Cleared on every solve entry, re-established after an
    /// optimal extract, and kept by the splices that keep the factors
    /// (`append_columns`, `append_rows` of uncoupled rows).
    pub(super) reuse_ready: bool,
    /// See [`Exact`]. Raised by `refactorize`, `compute_xb` and
    /// `recompute_reduced`, capped by everything else that writes what
    /// they read.
    pub(super) exact: Exact,
}

pub(super) enum PhaseOutcome {
    Optimal,
    /// Column `q` can move in direction `dir` without limit; its FTRAN'd
    /// column is still in `ftran_w`.
    Unbounded {
        q: usize,
        dir: f64,
    },
    IterationLimit,
}

/// The iteration cap for a problem of `std`'s size.
pub(super) fn iteration_cap(std: &StdForm) -> u64 {
    50 * (std.nrows as u64 + std.ncols() as u64) + 10_000
}

#[derive(Debug, PartialEq)]
pub(super) enum RatioOutcome {
    Unbounded,
    BoundFlip(f64),
    Pivot { pos: usize, step: f64 },
}

impl Engine {
    pub(super) fn new(std: StdForm, cfg: SimplexConfig) -> Self {
        let m = std.nrows;
        let ncols = std.ncols();
        let (csr_ptr, csr_cols) = build_row_mirror(&std.a);
        // Intentional truncation of a density fraction to a scratch-arena size.
        let kernel_cap = (pos_or_zero(cfg.kernel_density_threshold) * m as f64) as usize;
        let mut etas = EtaFile::new(cfg.refactor_interval);
        etas.ensure_rows(m);
        let mut engine = Engine {
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
            touched: Vec::new(),
            col_words: Vec::new(),
            lu_scratch: LuScratch::new(m),
            kernel_cap,
            relaxed: Vec::new(),
            elig: Vec::new(),
            elig_slot: Vec::new(),
            ratio_cand: Vec::new(),
            row_alpha: Vec::new(),
            sanitize_every: sanitize::sanitize_env(),
            sanitize_left: sanitize::sanitize_env(),
            lu_nnz: 0,
            reuse_ready: false,
            exact: Exact::Nothing,
            max_iterations: iteration_cap(&std),
            std,
            cfg,
        };
        engine.size_scratch();
        engine
    }

    /// Sizes every per-pivot list to its worst case for the current
    /// structure, so the pivot loop never allocates, before or after
    /// growth: the pivotal-row lists and the eligible set hold each column
    /// at most once, the ratio candidates each row. The eligible set comes
    /// out empty; `recompute_reduced` fills it.
    pub(super) fn size_scratch(&mut self) {
        let (m, ncols) = (self.std.nrows, self.std.ncols());
        for list in [&mut self.touched, &mut self.elig] {
            list.clear();
            list.reserve_exact(ncols);
        }
        self.row_alpha.clear();
        self.row_alpha.reserve_exact(ncols);
        self.ratio_cand.clear();
        self.ratio_cand.reserve_exact(m);
        self.elig_slot.clear();
        self.elig_slot.resize(ncols, NOT_LISTED);
        self.col_words = bit_words(ncols);
    }

    /// Rests nonbasic column `j` where [`StdForm::resting`] puts it under
    /// its current bounds; artificials and fixed columns are never priced.
    pub(super) fn rest(&mut self, j: usize) {
        let (status, x) = self.std.resting(j);
        #[expect(
            clippy::float_cmp,
            reason = "bound identity: a fixed column's two bounds are copies of one stored value, so exact equality is what marks it fixed"
        )]
        let fixed =
            self.std.kind[j] == ColKind::Artificial || self.std.lower[j] == self.std.upper[j];
        self.state[j] = match status {
            _ if fixed => VarState::Fixed,
            BasisStatus::AtLower => VarState::AtLower,
            BasisStatus::AtUpper => VarState::AtUpper,
            BasisStatus::Free | BasisStatus::Basic => VarState::Free,
        };
        self.xval[j] = x;
    }

    /// Caps [`Self::exact`]: the caller is about to write something the
    /// levels above `at_most` were computed from.
    #[inline]
    pub(super) fn inexact(&mut self, at_most: Exact) {
        self.exact = self.exact.min(at_most);
    }

    /// Installs the true objective on every non-artificial column.
    pub(super) fn install_phase2_costs(&mut self) {
        self.inexact(Exact::Basics);
        for j in 0..self.std.ncols() {
            if self.std.kind[j] != ColKind::Artificial {
                self.cost[j] = self.std.cost[j];
            }
        }
    }

    /// Core primal simplex loop shared by both phases.
    ///
    /// Reduced costs are maintained incrementally (updated with the pivotal
    /// row after every basis change) and recomputed exactly on entry and at
    /// every refactorization; entering variables are chosen by Devex
    /// pricing with a Bland fallback after a long degenerate run. The loop
    /// claims optimality only at [`Exact::Reduced`]: when pricing finds
    /// nothing on maintained values it refactorizes, recomputes and prices
    /// again — unless the iterate already is what that would rebuild.
    pub(super) fn iterate(&mut self, phase1: bool) -> Result<PhaseOutcome, SolveError> {
        if self.exact < Exact::Reduced {
            self.recompute_reduced();
        }
        self.weights.fill(1.0);
        loop {
            if self.stats.iterations >= self.max_iterations {
                return Ok(PhaseOutcome::IterationLimit);
            }
            if let Some(reason) = self.cadence_refactor_due() {
                self.refactorize(reason)?;
                self.recompute_reduced();
            }

            // Pricing from the maintained reduced costs.
            let entering = match self.price() {
                Some(e) => e,
                None if self.exact == Exact::Reduced => {
                    self.stats.verifications_skipped += 1;
                    return Ok(PhaseOutcome::Optimal);
                }
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
                    return Ok(PhaseOutcome::Unbounded { q, dir });
                }
                RatioOutcome::BoundFlip(t) => {
                    // No basis change: reduced costs stay valid.
                    self.apply_bound_flip(q, dir, t, &w);
                    self.ftran_w = w;
                    self.stats.bound_flips += 1;
                }
                RatioOutcome::Pivot { pos, step } => {
                    let alpha_q = w.values[pos];
                    if alpha_q.abs() <= PIVOT_TOL {
                        // Should not happen (ratio test filters); refactor
                        // and retry rather than divide by ~0.
                        self.ftran_w = w;
                        self.refactorize(RefactorReason::Forced)?;
                        self.recompute_reduced();
                        continue;
                    }
                    self.pivotal_row(pos, q);
                    self.update_reduced_and_weights(q, pos, alpha_q);
                    self.apply_pivot(q, dir, pos, step, &w);
                    self.ftran_w = w;
                    #[cfg(debug_assertions)]
                    self.debug_invariants();
                    self.maybe_sanitize();
                    if step <= FEAS_TOL * 1e-2 {
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

    /// Harris-style ratio test: the minimum step to a tolerance-relaxed
    /// bound, then the largest pivot among the rows that block by then.
    /// `w` is walked once, into `ratio_cand`; both selections read that.
    pub(super) fn ratio_test(&mut self, q: usize, dir: f64, w: &WorkVec) -> RatioOutcome {
        let ptol = PIVOT_TOL;
        let ftol = FEAS_TOL;
        // Step limit from the entering variable's own bound range.
        let own_range = match (self.std.lower[q].is_finite(), self.std.upper[q].is_finite()) {
            (true, true) => self.std.upper[q] - self.std.lower[q],
            _ => f64::INFINITY,
        };

        // The gather: for every entry above the pivot tolerance whose basic
        // variable moves toward a finite bound, the step at which it gets
        // there (strict) and the step to that bound widened by the
        // feasibility tolerance (relaxed). The relaxed minimum is pass 1;
        // the strict steps are kept for pass 2.
        let mut cand = std::mem::take(&mut self.ratio_cand);
        cand.clear();
        let mut t_relaxed = own_range;
        for_each_entry(w, |pos, wp| {
            if wp.abs() <= ptol {
                return;
            }
            let rate = -wp * dir; // d(xb[pos]) / dt
            let j = self.basis[pos];
            let (bound, gap, speed) = if rate > 0.0 {
                let ub = self.std.upper[j];
                (ub, ub - self.xb[pos], rate)
            } else {
                let lb = self.std.lower[j];
                (lb, self.xb[pos] - lb, -rate)
            };
            if !bound.is_finite() {
                return; // open side
            }
            t_relaxed = t_relaxed.min(pos_or_zero((gap + ftol) / speed));
            cand.push((pos as u32, wp.abs(), pos_or_zero(gap / speed)));
        });
        self.ratio_cand = cand;
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
        let blocking = || self.ratio_cand.iter().filter(|c| c.2 <= t_relaxed);
        let Some(max_mag) = blocking().map(|c| c.1).reduce(f64::max) else {
            // Nothing blocks before the entering variable's own range:
            // a bound flip (own_range is finite here).
            return RatioOutcome::BoundFlip(own_range);
        };
        let band_floor = max_mag * (1.0 - RATIO_TIE_BAND);
        // Candidates are in ascending basis position, so the first in-band
        // row of a given artificiality class wins the lexicographic order.
        let mut best: Option<&(u32, f64, f64)> = None;
        for c in blocking().filter(|c| c.1 >= band_floor) {
            if self.std.kind[self.basis[c.0 as usize]] == ColKind::Artificial {
                best = Some(c);
                break;
            }
            best = best.or(Some(c));
        }
        match best {
            // max_mag itself is in band, so a blocking row exists.
            None => RatioOutcome::BoundFlip(own_range),
            Some(&(pos, _, step)) => RatioOutcome::Pivot {
                pos: pos as usize,
                step,
            },
        }
    }

    fn apply_bound_flip(&mut self, q: usize, dir: f64, t: f64, w: &WorkVec) {
        self.exact = Exact::Nothing;
        let xb = &mut self.xb;
        for_each_entry(w, |pos, wp| {
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
        self.refresh_eligible(q);
    }

    #[expect(
        clippy::float_cmp,
        reason = "bound identity: a fixed column's two bounds are copies of one stored value, so exact equality is what marks it fixed"
    )]
    fn apply_pivot(&mut self, q: usize, dir: f64, pos: usize, step: f64, w: &WorkVec) {
        self.exact = Exact::Nothing;
        let leaving = self.basis[pos];
        let xb = &mut self.xb;
        for_each_entry(w, |p, wp| {
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
        self.refresh_eligible(q);
        self.refresh_eligible(leaving);

        // Record the eta for B_new = B_old E. Entries below the drop
        // tolerance are omitted; the drift is flushed at refactorization.
        self.etas.push(pos as u32, w);
    }

    /// Debug-build invariant sweep, run after every basis change. Release
    /// builds compile this to nothing; this keeps the basis invariants
    /// *checked* where they mutate.
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
        // Pricing reads the maintained eligible set in place of a scan.
        debug_assert!(
            self.eligible_set_consistent(),
            "eligible set disagrees with a from-scratch eligibility scan"
        );
    }

    /// In-loop refactorization cadence: the fixed interval is the hard
    /// cap, and below it the cost model cuts the eta file once its entry
    /// count stops paying for itself against the live factor's. Both triggers count entries —
    /// never wall-clock — so the trajectory is deterministic. A disabled
    /// interval (`usize::MAX`, the kernel probes) disables the cost model
    /// with it: probed windows measure steady-state eta chains.
    #[inline]
    fn cadence_refactor_due(&self) -> Option<RefactorReason> {
        if self.etas.len() >= self.cfg.refactor_interval {
            return Some(RefactorReason::Interval);
        }
        if self.cfg.refactor_interval != usize::MAX
            && self.etas.len() >= COST_MODEL_MIN_ETAS
            && self.etas.nnz() > COST_MODEL_ETA_FACTOR * self.lu_nnz
        {
            return Some(RefactorReason::CostModel);
        }
        None
    }

    /// Rebuilds the LU factorization of the current basis and recomputes the
    /// basic values from scratch to flush accumulated drift. `reason` feeds
    /// the per-reason refactorization counters; the arithmetic is identical
    /// for every reason.
    pub(super) fn refactorize(&mut self, reason: RefactorReason) -> Result<(), SolveError> {
        let m = self.std.nrows;
        let mut attempt = 0usize;
        // In place, into the arenas of the factors being replaced; a failed
        // repair leaves no factorization installed.
        let mut lu = self.lu.take().unwrap_or_default();
        while let Err(unpivoted_row) = lu.refactor(&self.std.a, &self.basis, PIVOT_TOL) {
            // Singular basis: swap the structurally dependent column out
            // for the row's artificial and retry.
            attempt += 1;
            if attempt > m {
                return Err(SolveError::Numerical(
                    "basis repair failed: persistent singularity".into(),
                ));
            }
            self.stats.refactor_forced_singular += 1;
            self.repair_basis(unpivoted_row)?;
        }
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
        self.exact = Exact::Factors;
        self.compute_xb();
        Ok(())
    }

    /// Recomputes the basic values `xb = B^{-1} (-N x_N)` from the installed
    /// factorization, reusing the engine-owned buffers (ftran fully
    /// overwrites its output). Every caller holds an empty eta file: right
    /// after a refactorization, or on carried factors (`reuse_ready`).
    pub(super) fn compute_xb(&mut self) {
        let m = self.std.nrows;
        self.work_row[..m].fill(0.0);
        for j in 0..self.std.ncols() {
            if matches!(self.state[j], VarState::Basic(_)) {
                continue;
            }
            let xj = self.xval[j];
            if xj != 0.0 {
                let (rows, vals) = self.std.a.col(j);
                for (&r, &v) in rows.iter().zip(vals) {
                    self.work_row[r as usize] -= v * xj;
                }
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "invariant: every caller installs an LU immediately before recomputing xb"
        )]
        let lu = self
            .lu
            .take()
            .expect("invariant: LU installed before compute_xb");
        debug_assert!(self.etas.is_empty(), "compute_xb on a non-empty eta file");
        lu.ftran(&mut self.work_row, &mut self.xb);
        self.lu = Some(lu);
        if self.exact >= Exact::Factors {
            self.exact = Exact::Basics;
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
        self.rest(self.basis[pos]);
        // Re-open the artificial so it can absorb any residual.
        self.std.lower[art] = f64::NEG_INFINITY;
        self.std.upper[art] = f64::INFINITY;
        self.basis[pos] = art;
        self.state[art] = VarState::Basic(pos as u32);
        Ok(())
    }

    /// Assembles the user-facing solution from the current iterate.
    pub(super) fn extract(&mut self, status: Status) -> Solution {
        // Mirror basic values into xval.
        for (pos, &j) in self.basis.iter().enumerate() {
            self.xval[j] = self.xb[pos];
        }
        let x: Vec<f64> = self.xval[..self.std.nstruct].to_vec();
        let mut obj = self.std.obj_offset;
        for (j, &xj) in x.iter().enumerate() {
            obj += self.std.obj_sign * self.std.cost[j] * xj;
        }
        // An optimal exit is at `Exact::Reduced` under phase-2 costs, and
        // `dual` holds the prices its last `recompute_reduced` solved for.
        // An infeasible one is the same under the phase-1 costs still
        // installed: it hands out their prices, the Farkas multipliers, in
        // no objective's direction. Any other exit prices the phase-2 costs.
        let sign = match status {
            Status::Optimal | Status::Infeasible => {
                debug_assert_eq!(
                    self.exact,
                    Exact::Reduced,
                    "{status:?} exit off an inexact iterate"
                );
                if status == Status::Optimal {
                    self.std.obj_sign
                } else {
                    1.0
                }
            }
            Status::Unbounded | Status::IterationLimit => {
                self.install_phase2_costs();
                self.compute_duals();
                self.std.obj_sign
            }
        };
        let duals: Vec<f64> = self.dual.iter().map(|&v| sign * v).collect();
        let basis = Basis {
            cols: self.state[..self.std.nstruct]
                .iter()
                .map(|s| s.status())
                .collect(),
            rows: (0..self.std.nrows)
                .map(|i| self.state[self.std.activity_col(i)].status())
                .collect(),
        };
        Solution {
            status,
            objective: obj,
            x,
            duals,
            ray: Vec::new(),
            basis: Some(basis),
            stats: self.stats,
        }
    }

    /// The recession direction of an unbounded exit over the structural
    /// columns: the entering column `q` moves by `dir`, each basic variable
    /// by `−dir·w` (`w = B⁻¹ a_q`, still in `ftran_w`).
    pub(super) fn unbounded_ray(&self, q: usize, dir: f64) -> Vec<f64> {
        let n = self.std.nstruct;
        let mut ray = vec![0.0; n];
        if q < n {
            ray[q] = dir;
        }
        for_each_entry(&self.ftran_w, |pos, wp| {
            let j = self.basis[pos];
            if j < n {
                ray[j] = -dir * wp;
            }
        });
        ray
    }
}
