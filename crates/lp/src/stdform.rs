//! Lowering of a [`Problem`](crate::Problem) into the computational form used
//! by the revised simplex.
//!
//! The form is `A_full z = 0` with `z = (x, s, a)`:
//!
//! * `x` — the `n` structural columns with their original bounds; costs are
//!   negated for maximization so the solver always minimizes.
//! * `s` — one *activity* column per row, a single `-1` entry, bounded by the
//!   row bounds (`A x - s = 0` makes `s` carry the row activity).
//! * `a` — one *artificial* column per row, a single `±1` entry, used to
//!   complete the initial diagonal basis where the activity variable's
//!   natural value falls outside the row bounds. Phase 1 minimizes the sum
//!   of artificials.
//!
//! All bounds are normalized so infinite magnitudes become exactly
//! `f64::INFINITY` / `f64::NEG_INFINITY`.

use crate::model::{Objective, Problem};
use crate::sparse::CscMatrix;
use crate::{is_inf, BasisStatus, SolveError};

/// Classification of a standardized column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ColKind {
    /// Original problem variable.
    Structural,
    /// Row activity variable (slack with range bounds).
    Activity,
    /// Phase-1 artificial.
    Artificial,
}

/// The standardized problem: minimize `cost' z` s.t. `A z = 0`,
/// `lower <= z <= upper`.
#[derive(Debug, Clone)]
pub(crate) struct StdForm {
    /// `m x (n + 2m)` constraint matrix.
    pub a: CscMatrix,
    /// Lower bounds per standardized column.
    pub lower: Vec<f64>,
    /// Upper bounds per standardized column.
    pub upper: Vec<f64>,
    /// Phase-2 costs per standardized column (minimization sense).
    pub cost: Vec<f64>,
    /// Kind of each standardized column.
    pub kind: Vec<ColKind>,
    /// Number of structural columns (`n`).
    pub nstruct: usize,
    /// Number of rows (`m`).
    pub nrows: usize,
    /// `-1.0` when the original problem maximizes, else `1.0`.
    pub obj_sign: f64,
    /// Constant added to the (original-direction) objective.
    pub obj_offset: f64,
}

impl StdForm {
    /// Index of the activity column of row `i`.
    #[inline]
    pub fn activity_col(&self, i: usize) -> usize {
        self.nstruct + i
    }

    /// Index of the artificial column of row `i`.
    #[inline]
    pub fn artificial_col(&self, i: usize) -> usize {
        self.nstruct + self.nrows + i
    }

    /// Total number of standardized columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.nstruct + 2 * self.nrows
    }

    /// The nonbasic resting rule, the only one in the crate: where column
    /// `j` rests under its *current* bounds and at what value — the finite
    /// bound nearest zero (the lower one on a tie, which also covers a
    /// fixed column), or free at zero. Never [`BasisStatus::Basic`].
    pub fn resting(&self, j: usize) -> (BasisStatus, f64) {
        let (l, u) = (self.lower[j], self.upper[j]);
        // Prefer the bound of smaller magnitude to keep the start point
        // well-scaled.
        if l.is_finite() && (u.is_infinite() || l.abs() <= u.abs()) {
            (BasisStatus::AtLower, l)
        } else if u.is_finite() {
            (BasisStatus::AtUpper, u)
        } else {
            (BasisStatus::Free, 0.0)
        }
    }
}

/// Maps a lower bound of infinite magnitude (see [`is_inf`]) to exactly
/// `f64::NEG_INFINITY`.
pub(crate) fn norm_lower(v: f64) -> f64 {
    if is_inf(v) && v < 0.0 {
        f64::NEG_INFINITY
    } else {
        v
    }
}

/// Maps an upper bound of infinite magnitude to exactly `f64::INFINITY`.
pub(crate) fn norm_upper(v: f64) -> f64 {
    if is_inf(v) && v > 0.0 {
        f64::INFINITY
    } else {
        v
    }
}

/// Builds the standardized form, validating the model.
///
/// Artificial signs are finalized later by the solver (they depend on the
/// initial residual); here every artificial gets a provisional `+1` entry,
/// bounds `[0, 0]` (fixed), and zero cost. The solver re-derives sign,
/// bounds, and phase-1 cost when it crashes the initial basis.
pub(crate) fn standardize(p: &Problem) -> Result<StdForm, SolveError> {
    let n = p.num_cols();
    let m = p.num_rows();

    let obj_sign = match p.objective {
        Objective::Minimize => 1.0,
        Objective::Maximize => -1.0,
    };

    let ncols = n + 2 * m;
    let mut lower = Vec::with_capacity(ncols);
    let mut upper = Vec::with_capacity(ncols);
    let mut cost = Vec::with_capacity(ncols);
    let mut kind = Vec::with_capacity(ncols);

    for (j, c) in p.cols.iter().enumerate() {
        let l = norm_lower(c.lower);
        let u = norm_upper(c.upper);
        if l > u {
            return Err(SolveError::InvalidModel(format!(
                "column {j} has crossed bounds [{l}, {u}]"
            )));
        }
        if !c.cost.is_finite() {
            return Err(SolveError::InvalidModel(format!(
                "column {j} has non-finite cost {}",
                c.cost
            )));
        }
        lower.push(l);
        upper.push(u);
        cost.push(obj_sign * c.cost);
        kind.push(ColKind::Structural);
    }
    for (i, r) in p.rows.iter().enumerate() {
        let l = norm_lower(r.lower);
        let u = norm_upper(r.upper);
        if l > u {
            return Err(SolveError::InvalidModel(format!(
                "row {i} has crossed bounds [{l}, {u}]"
            )));
        }
        lower.push(l);
        upper.push(u);
        cost.push(0.0);
        kind.push(ColKind::Activity);
    }
    for _ in 0..m {
        lower.push(0.0);
        upper.push(0.0);
        cost.push(0.0);
        kind.push(ColKind::Artificial);
    }

    // Structural block from triplets, then activity and artificial columns.
    let mut a = CscMatrix::from_triplets(
        m,
        n,
        p.entries
            .iter()
            .filter(|&&(_, _, v)| v.is_finite())
            .copied(),
    );
    if p.entries.iter().any(|&(_, _, v)| !v.is_finite()) {
        return Err(SolveError::InvalidModel(
            "non-finite constraint coefficient".into(),
        ));
    }
    for i in 0..m {
        a.push_col(&[(i as u32, -1.0)]);
    }
    for i in 0..m {
        a.push_col(&[(i as u32, 1.0)]);
    }

    Ok(StdForm {
        a,
        lower,
        upper,
        cost,
        kind,
        nstruct: n,
        nrows: m,
        obj_sign,
        obj_offset: p.obj_offset,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Objective, Problem};

    #[test]
    fn standardize_shapes() {
        let mut p = Problem::new(Objective::Maximize);
        let x = p.add_col(0.0, 5.0, 3.0);
        let y = p.add_col(-1.0, f64::INFINITY, -2.0);
        p.add_row(f64::NEG_INFINITY, 4.0, &[(x, 1.0), (y, 1.0)]);
        p.add_row(2.0, 2.0, &[(x, 1.0)]);
        let s = standardize(&p).unwrap();
        assert_eq!(s.nstruct, 2);
        assert_eq!(s.nrows, 2);
        assert_eq!(s.ncols(), 2 + 4);
        assert_eq!(s.a.ncols(), 6);
        // maximization flips structural costs
        assert_eq!(s.cost[0], -3.0);
        assert_eq!(s.cost[1], 2.0);
        // activity bounds mirror row bounds
        assert_eq!(s.lower[s.activity_col(0)], f64::NEG_INFINITY);
        assert_eq!(s.upper[s.activity_col(0)], 4.0);
        assert_eq!(s.lower[s.activity_col(1)], 2.0);
        assert_eq!(s.upper[s.activity_col(1)], 2.0);
        // activity column is a single -1 in its row
        let (rows, vals) = s.a.col(s.activity_col(1));
        assert_eq!(rows, &[1]);
        assert_eq!(vals, &[-1.0]);
        // artificial column is a single +1 (provisional)
        let (rows, vals) = s.a.col(s.artificial_col(0));
        assert_eq!(rows, &[0]);
        assert_eq!(vals, &[1.0]);
    }

    #[test]
    fn resting_values() {
        let mut p = Problem::new(Objective::Minimize);
        p.add_col(2.0, 9.0, 0.0);
        p.add_col(-9.0, -3.0, 0.0);
        p.add_col(f64::NEG_INFINITY, 7.0, 0.0);
        p.add_col(f64::NEG_INFINITY, f64::INFINITY, 0.0);
        let s = standardize(&p).unwrap();
        assert_eq!(s.resting(0), (BasisStatus::AtLower, 2.0));
        assert_eq!(s.resting(1), (BasisStatus::AtUpper, -3.0));
        assert_eq!(s.resting(2), (BasisStatus::AtUpper, 7.0));
        assert_eq!(s.resting(3), (BasisStatus::Free, 0.0));
    }

    #[test]
    fn huge_bounds_become_infinite() {
        let mut p = Problem::new(Objective::Minimize);
        p.add_col(-1e31, 1e31, 0.0);
        let s = standardize(&p).unwrap();
        assert_eq!(s.lower[0], f64::NEG_INFINITY);
        assert_eq!(s.upper[0], f64::INFINITY);
    }

    #[test]
    fn rejects_non_finite_cost() {
        let mut p = Problem::new(Objective::Minimize);
        let c = p.add_col(0.0, 1.0, 0.0);
        p.cols[c.index()].cost = f64::INFINITY;
        assert!(matches!(standardize(&p), Err(SolveError::InvalidModel(_))));
    }
}
