//! Primal pricing: Devex over the maintained eligible set, and the
//! per-pivot update of reduced costs and reference weights from the
//! pivotal row.

use super::engine::{Engine, VarState};
use crate::OPT_TOL;

/// The slot of a column outside the eligible set ([`Engine::elig_slot`]).
pub(super) const NOT_LISTED: u32 = u32::MAX;

impl Engine {
    /// Entering-direction eligibility of nonbasic column `j` under the
    /// maintained reduced costs: +1 from lower/free, -1 from upper/free,
    /// `None` when `j` cannot improve the objective.
    #[inline]
    pub(super) fn eligible_dir(&self, j: usize) -> Option<f64> {
        let tol = OPT_TOL;
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

    /// Re-evaluates column `j`'s membership of the eligible set; called
    /// wherever `d[j]` or `state[j]` changes inside the pivot loop, so
    /// pricing reads the set instead of scanning every column for it.
    /// Constant time: a removal moves the last member into the gap.
    #[inline]
    pub(super) fn refresh_eligible(&mut self, j: usize) {
        let member = self.eligible_dir(j).is_some();
        let at = self.elig_slot[j];
        if member == (at != NOT_LISTED) {
            return;
        }
        if member {
            self.elig_slot[j] = self.elig.len() as u32;
            self.elig.push(j as u32);
        } else {
            self.elig.swap_remove(at as usize);
            if let Some(&moved) = self.elig.get(at as usize) {
                self.elig_slot[moved as usize] = at;
            }
            self.elig_slot[j] = NOT_LISTED;
        }
    }

    /// True when the eligible set is exactly the columns a from-scratch
    /// [`Self::eligible_dir`] scan accepts and the slot index inverts the
    /// list. Allocation-free; the debug invariants and the sanitizer sweep
    /// hold the maintained set to it.
    pub(super) fn eligible_set_consistent(&self) -> bool {
        let mut members = 0;
        for (j, &at) in self.elig_slot.iter().enumerate() {
            if self.eligible_dir(j).is_some() != (at != NOT_LISTED) {
                return false;
            }
            if at != NOT_LISTED {
                if self.elig.get(at as usize) != Some(&(j as u32)) {
                    return false;
                }
                members += 1;
            }
        }
        members == self.elig.len()
    }

    /// Devex pricing over the eligible set: best score, ties to the lower
    /// column index — the choice an ascending scan of every column makes.
    /// Returns the entering column and its movement direction.
    pub(super) fn price(&mut self) -> Option<(usize, f64)> {
        if self.bland {
            // Bland: the lowest eligible index guarantees termination.
            let j = *self.elig.iter().min()? as usize;
            self.stats.pricing_candidates_scanned += 1;
            return Some((j, self.eligible_dir(j)?));
        }
        self.stats.pricing_candidates_scanned += self.elig.len() as u64;
        let mut best: Option<(u32, f64)> = None; // (col, score)
        for &jc in &self.elig {
            let j = jc as usize;
            let score = self.d[j] * self.d[j] / self.weights[j];
            if best.is_none_or(|(b, s)| score > s || (jc < b && score >= s)) {
                best = Some((jc, score));
            }
        }
        let j = best?.0 as usize;
        Some((j, self.eligible_dir(j)?))
    }

    /// After choosing pivot (entering `q`, leaving position `pos`), updates
    /// the reduced costs and Devex weights from the pivotal row
    /// `alpha = e_pos' B^{-1} A` that [`Self::pivotal_row`] left in
    /// `row_alpha`.
    pub(super) fn update_reduced_and_weights(&mut self, q: usize, pos: usize, alpha_q: f64) {
        let dq = self.d[q];
        let ratio = dq / alpha_q;
        let wq = self.weights[q].max(1.0);
        let leaving = self.basis[pos];
        let mut max_weight: f64 = 1.0;
        let row_alpha = std::mem::take(&mut self.row_alpha);
        for &(jc, alpha_j) in &row_alpha {
            let j = jc as usize;
            if alpha_j.abs() <= 1e-12 {
                continue;
            }
            self.d[j] -= ratio * alpha_j;
            self.refresh_eligible(j);
            let cand = (alpha_j / alpha_q) * (alpha_j / alpha_q) * wq;
            if cand > self.weights[j] {
                self.weights[j] = cand;
            }
            max_weight = max_weight.max(self.weights[j]);
        }
        self.row_alpha = row_alpha;
        // Entering column becomes basic; leaving column becomes nonbasic
        // with reduced cost -d_q / alpha_q and a fresh reference weight
        // (`apply_pivot` re-evaluates both once their states have moved).
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
}
