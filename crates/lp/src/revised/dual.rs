//! Dual simplex re-solve path for bound/RHS-only edits.
//!
//! Every RET probe, δ-growth step, and column-generation master re-aim
//! mutates *only* bounds (row ranges live on activity-column bounds in the
//! standardized form), which leaves the previous optimal basis **dual
//! feasible**: the reduced costs still price correctly, only some basic
//! values fall outside their (new) bounds. The primal warm path repairs
//! that with a bound-shift phase 1 followed by a full phase 2; the dual
//! simplex instead drives the primal infeasibilities out directly while
//! dual feasibility is *maintained*, which typically needs a handful of
//! pivots where the primal repair needs dozens.
//!
//! The loop reuses the engine's machinery end to end: one
//! `Engine::pivotal_row` pass per pivot serves both the dual ratio test
//! and the reduced-cost update (the dual update is algebraically the same
//! pivotal-row formula the primal uses), the bound-flip ratio test flips
//! boxed nonbasic variables that cannot block in bulk through one
//! accumulated FTRAN, and the pivot itself is the primal's `apply_pivot`.
//!
//! **The warm-path guarantee is preserved**: this path can only change
//! the work counters, never the answer. Every exit that is not primal
//! feasibility — a dual ray (no eligible entering column), numerical
//! disagreement, a stalled loop — returns `Err(())`, and the entry ladder
//! (`entry.rs`, which also screens dual feasibility before calling in)
//! falls back to the primal rungs and ultimately the cold solve, whose
//! phase 1 remains the only infeasibility proof. A converged dual loop
//! still finishes through the ordinary primal `iterate`, so a claimed
//! optimum it pivoted to is re-verified against exactly recomputed reduced
//! costs before it is extracted (one that took no pivot still stands on
//! the exact values the entry computed).

use super::engine::{Engine, Exact, VarState};
use super::kernels::for_each_entry;
use super::pos_or_zero;
use super::pricing::{set_consistent, set_member, NOT_LISTED};
use crate::sparse::WorkVec;
use crate::{FEAS_TOL, PIVOT_TOL};

impl Engine {
    /// How far the basic value at `pos` lies outside its column's bounds
    /// (negative inside them).
    #[inline]
    fn violation(&self, pos: usize) -> f64 {
        let j = self.basis[pos];
        let v = self.xb[pos];
        (v - self.std.upper[j]).max(self.std.lower[j] - v)
    }

    /// Re-evaluates position `pos`'s membership of the infeasible set;
    /// called for every position whose basic value or column changed.
    #[inline]
    fn refresh_infeasible(&mut self, pos: usize) {
        let infeasible = self.violation(pos) > FEAS_TOL;
        set_member(&mut self.infeas, &mut self.infeas_slot, pos, infeasible);
    }

    /// [`Self::refresh_infeasible`] over every position `w` moved.
    fn refresh_infeasible_over(&mut self, w: &WorkVec) {
        for_each_entry(w, |pos, _| self.refresh_infeasible(pos));
    }

    /// Builds the infeasible set from scratch, after `xb` was recomputed
    /// wholesale.
    pub(super) fn rebuild_infeasible(&mut self) {
        self.infeas.clear();
        for pos in 0..self.std.nrows {
            self.infeas_slot[pos] = NOT_LISTED;
            self.refresh_infeasible(pos);
        }
    }

    /// True when the infeasible set is exactly the positions a from-scratch
    /// scan of the basic values finds violated and the slot index inverts
    /// the list. Allocation-free; inside the dual loop the debug invariants
    /// and the sanitizer sweep hold the maintained set to it.
    pub(super) fn infeasible_set_consistent(&self) -> bool {
        set_consistent(&self.infeas, &self.infeas_slot, |pos| {
            self.violation(pos) > FEAS_TOL
        })
    }

    /// The leaving row as an ascending scan of every basic value picks it —
    /// the routine the infeasible set replaced, kept as its oracle.
    #[cfg(test)]
    pub(super) fn leaving_row_by_scan(&self) -> Option<(usize, f64)> {
        let mut r = usize::MAX;
        let mut viol = FEAS_TOL;
        for pos in 0..self.std.nrows {
            let j = self.basis[pos];
            let v = self.xb[pos];
            let over = v - self.std.upper[j];
            let under = self.std.lower[j] - v;
            let w = over.max(under);
            if w > viol {
                viol = w;
                r = pos;
            }
        }
        (r != usize::MAX).then_some((r, viol))
    }

    /// The leaving row: the largest bound violation in the infeasible set,
    /// ties to the lowest position, with the violation.
    pub(super) fn leaving_row(&self) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for &p in &self.infeas {
            let p = p as usize;
            let w = self.violation(p);
            if best.is_none_or(|(r, viol)| w > viol || (p < r && w >= viol)) {
                best = Some((p, w));
            }
        }
        best
    }

    /// The dual pivot loop: repeatedly takes the most-violated basic value
    /// from the infeasible set, runs the dual (bound-flip) ratio test over the pivotal row, and
    /// exchanges it against the blocking nonbasic column. Returns `Ok(())`
    /// when no basic value violates its bounds (primal feasibility), and
    /// `Err(())` on a dual ray, numerical disagreement, or a stalled loop —
    /// all of which the caller converts into a primal fallback.
    pub(super) fn dual_loop(&mut self) -> Result<(), ()> {
        let m = self.std.nrows;
        let ftol = FEAS_TOL;
        let ptol = PIVOT_TOL;
        self.rebuild_infeasible();
        // A bound/RHS re-solve that needs more than a few sweeps of the
        // basis is not winning anything over the primal repair — stop
        // burning work and let the fallback run.
        let cap = self.stats.iterations + 4 * m as u64 + 100;
        loop {
            if self.stats.iterations >= self.max_iterations || self.stats.iterations >= cap {
                return Err(());
            }
            if let Some(reason) = self.cadence_refactor_due() {
                self.refactorize(reason).map_err(|_| ())?;
                self.recompute_reduced();
                self.rebuild_infeasible();
            }

            #[cfg(test)]
            assert_eq!(self.leaving_row(), self.leaving_row_by_scan());
            let Some((r, viol)) = self.leaving_row() else {
                return Ok(()); // primal feasible
            };
            let leaving = self.basis[r];
            let above = self.xb[r] - self.std.upper[leaving] > 0.0;
            // `s` orients the dual ratio test: +1 when the leaving value
            // sits above its upper bound (it will park AtUpper), -1 below
            // the lower bound (parks AtLower).
            let s = if above { 1.0 } else { -1.0 };
            let target = if above {
                self.std.upper[leaving]
            } else {
                self.std.lower[leaving]
            };

            // Dual ratio candidates, from the one pivotal-row pass this
            // pivot gets: nonbasic columns whose reduced cost shrinks
            // toward zero as the r-th dual price moves in the healing
            // direction.
            self.pivotal_row(r, usize::MAX);
            let alphas = std::mem::take(&mut self.row_alpha);
            let mut order = std::mem::take(&mut self.dual_order);
            order.clear();
            for (k, &(jc, alpha)) in alphas.iter().enumerate() {
                if alpha.abs() <= ptol {
                    continue;
                }
                let sa = s * alpha;
                let ok = match self.state[jc as usize] {
                    VarState::AtLower => sa > ptol,
                    VarState::AtUpper => sa < -ptol,
                    VarState::Free => true,
                    VarState::Basic(_) | VarState::Fixed => false,
                };
                if ok {
                    order.push(k as u32);
                }
            }
            if order.is_empty() {
                // Dual ray. For a genuinely infeasible edit this is the
                // expected exit — but it is NOT a proof (only the cold
                // phase 1 is), so hand the instance to the fallback ladder.
                self.row_alpha = alphas;
                self.dual_order = order;
                return Err(());
            }

            // Bound-flip ratio test. Candidates ordered by dual ratio
            // (ties: larger pivot first, then lower column index, all via
            // total orders so the choice is deterministic); boxed
            // candidates that cannot absorb the violation are flipped to
            // their other bound and the walk continues, the first blocking
            // candidate enters — so the flipped ones are a prefix.
            let d = &self.d;
            order.sort_unstable_by(|&a, &b| {
                let (a, b) = (alphas[a as usize], alphas[b as usize]);
                let ra = pos_or_zero(d[a.0 as usize] / (s * a.1));
                let rb = pos_or_zero(d[b.0 as usize] / (s * b.1));
                ra.total_cmp(&rb)
                    .then(b.1.abs().total_cmp(&a.1.abs()))
                    .then(a.0.cmp(&b.0))
            });
            let mut remaining = viol;
            let mut entering: Option<usize> = None;
            let mut nflips = 0usize;
            for &k in &order {
                let (jc, alpha) = alphas[k as usize];
                let j = jc as usize;
                let lo = self.std.lower[j];
                let up = self.std.upper[j];
                let boxed = matches!(self.state[j], VarState::AtLower | VarState::AtUpper)
                    && lo.is_finite()
                    && up.is_finite()
                    && lo < up;
                // Flipping an eligible boxed candidate always moves xb[r]
                // toward its target by |alpha| * range; flip while the
                // violation stays strictly positive, otherwise enter.
                if boxed && remaining - alpha.abs() * (up - lo) > ftol {
                    remaining -= alpha.abs() * (up - lo);
                    nflips += 1;
                    continue;
                }
                entering = Some(j);
                break;
            }
            let Some(q) = entering else {
                // Every candidate flipped without any of them blocking:
                // the ratio test degenerated, abandon the attempt.
                self.row_alpha = alphas;
                self.dual_order = order;
                return Err(());
            };

            // Apply the flips through one accumulated FTRAN:
            // xb -= B^-1 (sum_j a_j * delta_j).
            if nflips > 0 {
                self.exact = Exact::Nothing;
                let mut rhs = std::mem::take(&mut self.ftran_rhs);
                rhs.clear();
                for &k in &order[..nflips] {
                    let j = alphas[k as usize].0 as usize;
                    let (lo, up) = (self.std.lower[j], self.std.upper[j]);
                    let (newv, st) = match self.state[j] {
                        VarState::AtLower => (up, VarState::AtUpper),
                        _ => (lo, VarState::AtLower),
                    };
                    let delta = newv - self.xval[j];
                    self.xval[j] = newv;
                    self.state[j] = st;
                    self.refresh_eligible(j);
                    let (rows, vals) = self.std.a.col(j);
                    for (&row, &v) in rows.iter().zip(vals) {
                        rhs.add(row, v * delta);
                    }
                }
                self.ftran_loaded(rhs);
                let w = std::mem::take(&mut self.ftran_w);
                let xb = &mut self.xb;
                for_each_entry(&w, |pos, wv| {
                    if wv != 0.0 {
                        xb[pos] -= wv;
                    }
                });
                self.refresh_infeasible_over(&w);
                self.ftran_w = w;
                self.stats.dual_bound_flips += nflips as u64;
            }
            self.row_alpha = alphas;
            self.dual_order = order;

            // Entering column through the ordinary sparse FTRAN; from here
            // the pivot is exactly a primal pivot with a known leaving row.
            self.ftran_entering(q);
            let w = std::mem::take(&mut self.ftran_w);
            let wr = w.values[r];
            if wr.abs() <= ptol {
                // The row view (rho . a_q) said this pivot is usable but
                // the column view disagrees: numerics too shaky for a
                // warm path that must never change answers.
                self.ftran_w = w;
                return Err(());
            }
            let dir = match self.state[q] {
                VarState::AtLower => 1.0,
                VarState::AtUpper => -1.0,
                VarState::Free => {
                    if (self.xb[r] - target) / wr > 0.0 {
                        1.0
                    } else {
                        -1.0
                    }
                }
                VarState::Basic(_) | VarState::Fixed => {
                    self.ftran_w = w;
                    return Err(());
                }
            };
            // xb[r] moves by -wr * dir * step; land it on the violated
            // bound. Rounding can push the quotient fractionally negative
            // on a degenerate pivot — clamp, the pivot still re-bases.
            let step = pos_or_zero((self.xb[r] - target) / (wr * dir));
            self.update_reduced_and_weights(q, r, wr);
            self.apply_pivot(q, dir, r, step, &w);
            self.refresh_infeasible_over(&w);
            self.ftran_w = w;
            #[cfg(debug_assertions)]
            self.debug_invariants(true);
            self.maybe_sanitize(true);
            if step <= ftol * 1e-2 {
                self.stats.degenerate_pivots += 1;
            }
            self.stats.iterations += 1;
            self.stats.dual_iterations += 1;
        }
    }
}
