//! Solve entry: the one ladder every solve climbs, and the two-phase
//! bookkeeping between entry and the pivot loop.
//!
//! The ladder has two rungs. A solve that was offered a basis first tries
//! the **warm** rung, [`Engine::warm_entry`]: it enters on the factors the
//! previous solve left when that solve ended optimal, only in-place edits
//! happened since, and the factors pass the residual spot-check; otherwise
//! it installs the offered basis and factors it afresh. Either way it then
//! **continues** (bound-shift phase 1, then phase 2). If the warm rung gives
//! up, the solve runs **cold** (crash basis, artificial phase 1 — the only
//! infeasibility proof), as a solve that was offered nothing does. No solve
//! tries a second warm entry on the basis that just gave up: in a session
//! the offered basis is the carried one whenever the factors carry over,
//! so a second attempt could differ from the first only by the rounding of
//! a fresh LU. A rung that gives up returns `Err(())`, never an answer, so
//! a warm start can change the work counters but not the result. The pivots
//! of a warm rung that gave up are reported as `abandoned_iterations`,
//! apart from the cold rung's.

use super::engine::{Engine, Exact, PhaseOutcome, RefactorReason, VarState};
use super::pos_or_zero;
use crate::solution::{Basis, BasisStatus, Solution, SolveError, SolveStats, Status};
use crate::stdform::ColKind;
use crate::FEAS_TOL;
use wavesched_obs as obs;

/// A phase-1 bound relaxation: column `col` temporarily has one bound opened
/// and a ±1 phase-1 cost; `(lo, up)` are the bounds to restore afterwards.
#[derive(Clone)]
pub(super) struct Relaxed {
    col: usize,
    lo: f64,
    up: f64,
}

/// Folds a finished solve's counters into the process-wide observability
/// registry (one branch when the layer is disabled, see `wavesched-obs`).
fn publish_stats(s: &SolveStats, nrows: usize) {
    if !obs::enabled() {
        return;
    }
    for (name, value) in s.published() {
        obs::counter_add(name, value);
    }
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

impl Engine {
    /// Solves the held standardized form, warm-starting from `start` when
    /// supplied and usable, with a silent cold fallback otherwise: the rung
    /// order warm → cold.
    pub(super) fn solve(&mut self, start: Option<&Basis>) -> Result<Solution, SolveError> {
        let _span = obs::span("lp_solve");
        self.fit_structure();
        // Taken up front: any exit that does not re-arm it below leaves the
        // carried factors unused by the next solve.
        let carried = std::mem::take(&mut self.reuse_ready);
        // Whatever was edited since the last solve, it was not the basis
        // matrix or its factors.
        self.inexact(Exact::Factors);
        let sol = match start.map(|basis| self.warm_entry(basis, carried)) {
            Some(Ok(sol)) => sol,
            Some(Err(())) => {
                // The warm rung leaves only its pivots behind, as
                // `abandoned_iterations`, and carried factors it entered on
                // (or refused) as one rejected reuse; the cold rung reports
                // its own work.
                let abandoned = self.stats.iterations;
                self.undo_relaxed();
                let mut sol = self.run_cold(true)?;
                for stats in [&mut sol.stats, &mut self.stats] {
                    stats.abandoned_iterations += abandoned;
                    stats.refactor_reuse_rejected += u64::from(carried);
                }
                sol
            }
            None => self.run_cold(false)?,
        };
        publish_stats(&sol.stats, self.std.nrows);
        // Every Optimal exit ends on factors fresh for the live basis and
        // an empty eta file, however it got there (iterate() refuses to
        // claim optimality below `Exact::Reduced`), which is exactly the
        // state a later solve may continue from.
        self.reuse_ready =
            sol.status == Status::Optimal && self.lu.is_some() && self.etas.is_empty();
        Ok(sol)
    }

    /// Cold start: crash basis, phase 1 if needed, phase 2. The counters of
    /// a warm rung that gave up are discarded (the caller keeps its pivots
    /// as abandoned); `offered` records that there was one.
    fn run_cold(&mut self, offered: bool) -> Result<Solution, SolveError> {
        self.fresh_stats();
        self.stats.warm_start_fallbacks = u64::from(offered);
        self.scrub(false);
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

    /// The warm rung: enter → continue. With `carried` (the caller checked
    /// `reuse_ready`) it enters on the engine's own live basis, states and
    /// factors, gated by the sanitizer's residual spot-check — stale or
    /// drifted factors show up as a nonzero `A x` residual before any pivot
    /// acts on them. Otherwise, or when the check refuses them, it installs
    /// `basis` and factors it from scratch. `Err(())` means the rung gave up
    /// — shape mismatch, numerical trouble, a bound-shift phase 1 that could
    /// not clear the violations — and never that the problem itself is bad:
    /// the bound shift clamps each relaxed variable at the bound it
    /// violated, while true feasibility may need it strictly inside its
    /// range, so only the cold artificial phase 1 decides infeasibility.
    fn warm_entry(&mut self, basis: &Basis, carried: bool) -> Result<Solution, ()> {
        self.fresh_stats();
        if carried && self.enter_carried() {
            self.stats.lu_reuse_hits = 1;
        } else {
            // No carried factors, or refused ones (before any pivot): the
            // offered basis enters instead.
            self.stats.refactor_reuse_rejected = u64::from(carried);
            self.install(basis)?;
        }
        self.stats.warm_starts_accepted = 1;
        let m = self.std.nrows;

        // Continue: bound-shift every basic value outside its bounds, clear
        // the violations in phase 1, finish in phase 2. With nothing to
        // clear and nothing eligible, the iterate is still the exact one
        // computed above and the finish is one pricing call.
        let tol = FEAS_TOL;
        for pos in 0..m {
            let j = self.basis[pos];
            let v = self.xb[pos];
            let artificial = self.std.kind[j] == ColKind::Artificial;
            // Basis repair may have reopened an artificial; it must still
            // end phase 1 at zero.
            let (lo, up) = if artificial {
                (0.0, 0.0)
            } else {
                (self.std.lower[j], self.std.upper[j])
            };
            if v > up + tol || v < lo - tol {
                self.relax_column(j, v);
            } else if artificial {
                // Feasible (≈0): pin it (back) down.
                self.std.lower[j] = 0.0;
                self.std.upper[j] = 0.0;
            }
        }
        if !self.relaxed.is_empty() {
            // Any terminal phase-1 outcome — or numerical trouble while
            // repairing the warm point — gives up rather than surfacing
            // something a cold solve would not produce.
            match self.run_phase1() {
                Ok(None) => {}
                Ok(Some(_)) | Err(_) => return Err(()),
            }
        }
        self.finish_phase2().map_err(|_| ())
    }

    /// Re-parks every nonbasic where its live state says, as far as the
    /// *current* bounds allow (edits may have moved or removed the side a
    /// column was resting on), and computes the basic values the carried
    /// factors imply. Whether they pass the residual spot-check.
    fn enter_carried(&mut self) -> bool {
        self.scrub(true);
        for j in 0..self.std.nstruct + self.std.nrows {
            let status = self.state[j].status();
            if status != BasisStatus::Basic {
                self.park_nonbasic(j, status);
            }
        }
        self.compute_xb();
        self.residual_ok()
    }

    /// Installs the snapshot `basis` — its basic columns straight into the
    /// basis, its nonbasics parked as on the carried entry — and factors it
    /// from scratch, with singularity repair. `Err(())` on a shape mismatch
    /// or a repair that failed.
    fn install(&mut self, basis: &Basis) -> Result<(), ()> {
        let (n, m) = (self.std.nstruct, self.std.nrows);
        if basis.cols.len() != n || basis.rows.len() != m {
            return Err(());
        }
        self.scrub(false);
        self.basis.clear();
        for (j, &status) in basis.cols.iter().chain(&basis.rows).enumerate() {
            if status == BasisStatus::Basic {
                self.basis.push(j);
            } else {
                self.park_nonbasic(j, status);
            }
        }
        // A snapshot with other than m basic columns is repaired: demote
        // extras, pad a deficit with artificials (their columns are
        // independent; a redundant choice is caught and repaired during
        // factorization).
        while self.basis.len() > m {
            let Some(j) = self.basis.pop() else { break };
            self.park_nonbasic(j, BasisStatus::AtLower);
        }
        for row in 0..m - self.basis.len() {
            self.basis.push(self.std.artificial_col(row));
        }
        for (pos, &j) in self.basis.iter().enumerate() {
            self.state[j] = VarState::Basic(pos as u32);
        }
        self.refactorize(RefactorReason::Forced).map_err(drop)
    }

    /// Parks column `j` nonbasic in the state `status` suggests, degrading
    /// to wherever its current bounds rest a fresh nonbasic variable.
    fn park_nonbasic(&mut self, j: usize, status: BasisStatus) {
        let (l, u) = (self.std.lower[j], self.std.upper[j]);
        let (state, x) = match status {
            #[expect(
                clippy::float_cmp,
                reason = "bound identity: a fixed column's two bounds are copies of one stored value, so exact equality is what marks it fixed"
            )]
            _ if l == u => return self.rest(j),
            BasisStatus::AtLower if l.is_finite() => (VarState::AtLower, l),
            BasisStatus::AtUpper if u.is_finite() => (VarState::AtUpper, u),
            BasisStatus::Free if l.is_infinite() && u.is_infinite() => (VarState::Free, 0.0),
            _ => return self.rest(j),
        };
        self.state[j] = state;
        self.xval[j] = x;
    }

    /// Zeroes the work counters for the next rung.
    fn fresh_stats(&mut self) {
        self.stats = SolveStats {
            solves: 1,
            ..SolveStats::default()
        };
    }

    /// Clears the per-attempt state so the engine can run again on its
    /// held (possibly mutated) standardized form. Artificial columns are
    /// returned to their pristine fixed-at-zero state; a previous solve
    /// may have signed and opened them. With `keep_factors` the basis, the
    /// per-column states and the factorization stay for an entry on the
    /// carried factors: a basic artificial (a degenerate optimum can keep
    /// one at value zero) then stays basic — forcing it out would change
    /// `B`.
    fn scrub(&mut self, keep_factors: bool) {
        self.cost.fill(0.0);
        if !keep_factors {
            // Stale from here on, but left in place: the entry
            // factorization that follows rebuilds them in their own arenas.
            self.etas.clear();
            self.exact = Exact::Nothing;
            // Everything the sanitizer sweeps is about to be rebuilt from
            // the installed point, so its pivot countdown starts over too:
            // a solve entered this way sweeps on a fresh engine's cadence,
            // whatever this engine solved before, and only an entry on the
            // carried factors keeps counting.
            self.sanitize_left = self.sanitize_every;
        }
        self.bland = false;
        self.degen_run = 0;
        self.relaxed.clear();
        for i in 0..self.std.nrows {
            let a = self.std.artificial_col(i);
            self.std.lower[a] = 0.0;
            self.std.upper[a] = 0.0;
            if !(keep_factors && matches!(self.state[a], VarState::Basic(_))) {
                self.state[a] = VarState::Fixed;
                self.xval[a] = 0.0;
            }
        }
    }

    /// Builds the crash basis: activity variable where its natural value is
    /// feasible, signed artificial otherwise. Sets phase-1 costs.
    fn crash(&mut self) {
        let m = self.std.nrows;
        // Rest all structural and activity columns; fix unused artificials.
        for j in 0..self.std.ncols() {
            self.rest(j);
        }
        // Row activities of the structural block at the resting point, in
        // the row scratch (dead until the entry factorization refills it).
        let mut act = std::mem::take(&mut self.work_row);
        act[..m].fill(0.0);
        for j in 0..self.std.nstruct {
            let xj = self.xval[j];
            if xj != 0.0 {
                self.std.a.col_axpy(j, xj, &mut act);
            }
        }
        self.basis.clear();
        #[expect(
            clippy::needless_range_loop,
            reason = "parallel arrays, index is clearest"
        )]
        for i in 0..m {
            let s = self.std.activity_col(i);
            let (sl, su) = (self.std.lower[s], self.std.upper[s]);
            let v = act[i];
            let tol = FEAS_TOL;
            #[expect(
                clippy::float_cmp,
                reason = "resting-at-bound detection: `srest` is a copy of `sl` or `su`, so exact equality names the bound it rests on"
            )]
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
        self.work_row = act;
    }

    /// Runs phase 1 with the relaxation costs already installed. Returns a
    /// terminal solution (iteration limit, or infeasible with the phase-1
    /// prices as its Farkas multipliers), or `None` when the iterate reached
    /// feasibility and phase 2 should proceed.
    fn run_phase1(&mut self) -> Result<Option<Solution>, SolveError> {
        let before = self.stats.iterations;
        let out = self.iterate(true)?;
        self.stats.phase1_iterations += self.stats.iterations - before;
        match out {
            PhaseOutcome::IterationLimit => {
                return Ok(Some(self.extract(Status::IterationLimit)));
            }
            PhaseOutcome::Unbounded { .. } => {
                // Phase-1 objective is bounded below; an "unbounded" signal
                // is a numerical breakdown.
                return Err(SolveError::Numerical("phase 1 reported unbounded".into()));
            }
            PhaseOutcome::Optimal => {}
        }
        let infeas = self.phase1_objective();
        if infeas > FEAS_TOL.max(1e-9 * self.std.nrows as f64) {
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
        self.install_phase2_costs();
        self.bland = false;
        self.degen_run = 0;
        match self.iterate(false)? {
            PhaseOutcome::Optimal => Ok(self.extract(Status::Optimal)),
            PhaseOutcome::Unbounded { q, dir } => Ok(Solution {
                ray: self.unbounded_ray(q, dir),
                ..self.extract(Status::Unbounded)
            }),
            PhaseOutcome::IterationLimit => Ok(self.extract(Status::IterationLimit)),
        }
    }

    /// Opens the bound of `col` on the side `value` violates, gives it the
    /// matching ±1 phase-1 cost, and records the original bounds for
    /// [`Self::restore_relaxed`]. For artificials the "original" bounds are
    /// always `[0, 0]` regardless of what a previous basis repair left.
    fn relax_column(&mut self, col: usize, value: f64) {
        self.inexact(Exact::Basics);
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
        // Nothing relaxed, nothing re-parked: the iterate stays as exact as
        // it was, so an entry that needed no phase 1 skips its verification.
        if self.relaxed.is_empty() {
            return;
        }
        // Re-parking can move a nonbasic value `xb` was computed from.
        self.inexact(Exact::Factors);
        for k in 0..self.relaxed.len() {
            let Relaxed { col, lo, up } = self.relaxed[k];
            self.std.lower[col] = lo;
            self.std.upper[col] = up;
            self.cost[col] = 0.0;
            if matches!(self.state[col], VarState::Basic(_)) {
                continue;
            }
            #[expect(
                clippy::float_cmp,
                reason = "bound identity: `lo == up` marks a fixed column; resting-at-bound detection: a column phase 1 parked on its temporary bound holds a copy of the original bound it violated"
            )]
            if lo == up {
                self.state[col] = VarState::Fixed;
            } else if self.xval[col] == up {
                self.state[col] = VarState::AtUpper;
            } else if self.xval[col] == lo {
                self.state[col] = VarState::AtLower;
            } else if lo.is_infinite() && up.is_infinite() {
                self.state[col] = VarState::Free;
            } else {
                // Drifted off both bounds (repaired basis): back to where
                // the original bounds rest it.
                self.rest(col);
            }
        }
        self.relaxed.clear();
    }

    /// Puts every relaxed column's original bounds back after an abandoned
    /// attempt; the next rung rewrites all other per-column state.
    fn undo_relaxed(&mut self) {
        for Relaxed { col, lo, up } in self.relaxed.drain(..) {
            self.std.lower[col] = lo;
            self.std.upper[col] = up;
        }
    }
}
