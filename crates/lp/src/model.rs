//! Problem model: a sparse LP/MILP builder with general column bounds and
//! range rows.
//!
//! A [`Problem`] is a set of columns (decision variables) and rows (linear
//! constraints). Every row is a *range* constraint `lb <= a'x <= ub`; use
//! equal bounds for an equality and an infinite bound for a one-sided
//! inequality. Coefficients are stored as triplets and assembled into
//! column-compressed form by the solvers.

use crate::is_inf;

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Minimize the objective function.
    Minimize,
    /// Maximize the objective function.
    Maximize,
}

/// Handle to a column (decision variable) of a [`Problem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Col(pub(crate) u32);

/// Handle to a row (constraint) of a [`Problem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Row(pub(crate) u32);

impl Col {
    /// Index of this column in the problem's column ordering.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Handle for the column at `index` (columns are numbered in creation
    /// order). The caller must ensure the index belongs to the problem it
    /// is used with.
    #[inline]
    pub fn from_index(index: usize) -> Col {
        Col(index as u32)
    }
}

impl Row {
    /// Index of this row in the problem's row ordering.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Handle for the row at `index` (rows are numbered in creation order).
    #[inline]
    pub fn from_index(index: usize) -> Row {
        Row(index as u32)
    }
}

/// Per-column data.
#[derive(Debug, Clone)]
pub(crate) struct ColData {
    pub lower: f64,
    pub upper: f64,
    pub cost: f64,
    pub integer: bool,
}

/// Per-row data.
#[derive(Debug, Clone)]
pub(crate) struct RowData {
    pub lower: f64,
    pub upper: f64,
}

/// A linear (or mixed-integer) optimization problem under construction.
///
/// ```
/// use wavesched_lp::{Problem, Objective};
/// let mut p = Problem::new(Objective::Minimize);
/// let x = p.add_col(0.0, 10.0, 1.0);
/// let y = p.add_col(0.0, 10.0, 2.0);
/// p.add_row(3.0, 3.0, &[(x, 1.0), (y, 1.0)]); // x + y == 3
/// assert_eq!(p.num_cols(), 2);
/// assert_eq!(p.num_rows(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Problem {
    pub(crate) objective: Objective,
    pub(crate) cols: Vec<ColData>,
    pub(crate) rows: Vec<RowData>,
    /// Coefficient triplets `(row, col, value)` in insertion order.
    pub(crate) entries: Vec<(u32, u32, f64)>,
    /// Constant added to the objective value.
    pub(crate) obj_offset: f64,
}

impl Problem {
    /// Creates an empty problem with the given optimization direction.
    pub fn new(objective: Objective) -> Self {
        Problem {
            objective,
            cols: Vec::new(),
            rows: Vec::new(),
            entries: Vec::new(),
            obj_offset: 0.0,
        }
    }

    /// The optimization direction of this problem.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// Adds a continuous variable with bounds `[lower, upper]` and the given
    /// objective coefficient. Returns its handle.
    ///
    /// Use `f64::NEG_INFINITY` / `f64::INFINITY` (or any magnitude at least
    /// [`crate::INF_BOUND`]) for unbounded sides.
    ///
    /// # Panics
    /// Panics if `lower > upper` (on finite bounds) or a bound is NaN.
    pub fn add_col(&mut self, lower: f64, upper: f64, cost: f64) -> Col {
        assert!(!lower.is_nan() && !upper.is_nan(), "NaN bound");
        assert!(!cost.is_nan(), "NaN cost");
        if !is_inf(lower) && !is_inf(upper) {
            assert!(lower <= upper, "column bounds crossed: [{lower}, {upper}]");
        }
        let id = self.cols.len() as u32;
        self.cols.push(ColData {
            lower,
            upper,
            cost,
            integer: false,
        });
        Col(id)
    }

    /// Adds an integer variable with bounds `[lower, upper]` and the given
    /// objective coefficient. The integrality is honored by
    /// [`crate::solve_milp`]; the pure-LP solvers relax it.
    pub fn add_int_col(&mut self, lower: f64, upper: f64, cost: f64) -> Col {
        let c = self.add_col(lower, upper, cost);
        self.cols[c.index()].integer = true;
        c
    }

    /// Adds a range constraint `lower <= sum(coef * col) <= upper` and
    /// returns its handle. Duplicate column references within `coeffs` are
    /// summed.
    ///
    /// # Panics
    /// Panics on crossed finite bounds, NaN values, or out-of-range columns.
    pub fn add_row(&mut self, lower: f64, upper: f64, coeffs: &[(Col, f64)]) -> Row {
        assert!(!lower.is_nan() && !upper.is_nan(), "NaN row bound");
        if !is_inf(lower) && !is_inf(upper) {
            assert!(lower <= upper, "row bounds crossed: [{lower}, {upper}]");
        }
        let id = self.rows.len() as u32;
        self.rows.push(RowData { lower, upper });
        for &(col, val) in coeffs {
            self.set_coeff(Row(id), col, val);
        }
        Row(id)
    }

    /// Appends a coefficient triplet `(row, col, value)`. Zero values are
    /// skipped; duplicates for the same (row, col) are summed at
    /// standardization time.
    pub fn set_coeff(&mut self, row: Row, col: Col, value: f64) {
        assert!(!value.is_nan(), "NaN coefficient");
        assert!((row.index()) < self.rows.len(), "row out of range");
        assert!((col.index()) < self.cols.len(), "col out of range");
        if value != 0.0 {
            self.entries.push((row.0, col.0, value));
        }
    }

    /// Sets the objective coefficient of `col`.
    pub fn set_cost(&mut self, col: Col, cost: f64) {
        assert!(!cost.is_nan(), "NaN cost");
        self.cols[col.index()].cost = cost;
    }

    /// Returns the objective coefficient of `col`.
    pub fn cost(&self, col: Col) -> f64 {
        self.cols[col.index()].cost
    }

    /// Overrides the bounds of `col`.
    pub fn set_col_bounds(&mut self, col: Col, lower: f64, upper: f64) {
        assert!(!lower.is_nan() && !upper.is_nan(), "NaN bound");
        let c = &mut self.cols[col.index()];
        c.lower = lower;
        c.upper = upper;
    }

    /// Returns the `(lower, upper)` bounds of `col`.
    pub fn col_bounds(&self, col: Col) -> (f64, f64) {
        let c = &self.cols[col.index()];
        (c.lower, c.upper)
    }

    /// Overrides the bounds of `row`.
    pub fn set_row_bounds(&mut self, row: Row, lower: f64, upper: f64) {
        assert!(!lower.is_nan() && !upper.is_nan(), "NaN bound");
        let r = &mut self.rows[row.index()];
        r.lower = lower;
        r.upper = upper;
    }

    /// Returns the `(lower, upper)` bounds of `row`.
    pub fn row_bounds(&self, row: Row) -> (f64, f64) {
        let r = &self.rows[row.index()];
        (r.lower, r.upper)
    }

    /// True if `col` is marked integer.
    pub fn is_integer(&self, col: Col) -> bool {
        self.cols[col.index()].integer
    }

    /// Adds a constant to the objective value reported in solutions.
    pub fn add_objective_offset(&mut self, offset: f64) {
        self.obj_offset += offset;
    }

    /// Number of columns (variables).
    pub fn num_cols(&self) -> usize {
        self.cols.len()
    }

    /// Number of rows (constraints).
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of coefficient triplets currently stored (before dedup).
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }

    /// Evaluates the objective function at `x` (dense, one value per column),
    /// including the offset, in the problem's own direction.
    pub fn eval_objective(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.cols.len(), "x length mismatch");
        let mut v = self.obj_offset;
        for (c, xc) in self.cols.iter().zip(x) {
            v += c.cost * xc;
        }
        v
    }

    /// Computes all row activities `a_i'x` at `x`.
    pub fn row_activities(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols.len(), "x length mismatch");
        let mut act = vec![0.0; self.rows.len()];
        for &(r, c, v) in &self.entries {
            act[r as usize] += v * x[c as usize];
        }
        act
    }

    /// Returns the largest violation of any bound or row constraint at `x`
    /// (0.0 when `x` is feasible). Integrality is not checked.
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        let mut worst: f64 = 0.0;
        for (c, xc) in self.cols.iter().zip(x) {
            if !is_inf(c.lower) {
                worst = worst.max(c.lower - xc);
            }
            if !is_inf(c.upper) {
                worst = worst.max(xc - c.upper);
            }
        }
        for (r, act) in self.rows.iter().zip(self.row_activities(x)) {
            if !is_inf(r.lower) {
                worst = worst.max(r.lower - act);
            }
            if !is_inf(r.upper) {
                worst = worst.max(act - r.upper);
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut p = Problem::new(Objective::Maximize);
        let x = p.add_col(0.0, 5.0, 1.0);
        let y = p.add_int_col(0.0, f64::INFINITY, 2.0);
        let r = p.add_row(1.0, 4.0, &[(x, 1.0), (y, 2.0)]);
        assert_eq!(p.num_cols(), 2);
        assert_eq!(p.num_rows(), 1);
        assert_eq!(p.col_bounds(x), (0.0, 5.0));
        assert_eq!(p.row_bounds(r), (1.0, 4.0));
        assert!(p.is_integer(y));
        assert!(!p.is_integer(x));
        assert_eq!(p.cost(y), 2.0);
    }

    #[test]
    fn objective_and_violation() {
        let mut p = Problem::new(Objective::Minimize);
        let x = p.add_col(0.0, 1.0, 3.0);
        let y = p.add_col(0.0, 1.0, -1.0);
        p.add_row(0.5, 1.5, &[(x, 1.0), (y, 1.0)]);
        p.add_objective_offset(10.0);
        let pt = [1.0, 0.25];
        assert!((p.eval_objective(&pt) - (10.0 + 3.0 - 0.25)).abs() < 1e-12);
        assert_eq!(p.max_violation(&pt), 0.0);
        let bad = [2.0, 0.0];
        assert!((p.max_violation(&bad) - 1.0).abs() < 1e-12); // x=2 > ub 1 and row 2 > 1.5 by 0.5
    }

    #[test]
    fn duplicate_coeffs_sum_in_activity() {
        let mut p = Problem::new(Objective::Minimize);
        let x = p.add_col(0.0, 10.0, 0.0);
        let r = p.add_row(0.0, 100.0, &[(x, 1.0), (x, 2.0)]);
        let act = p.row_activities(&[3.0]);
        assert!((act[r.index()] - 9.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "bounds crossed")]
    fn crossed_bounds_panic() {
        let mut p = Problem::new(Objective::Minimize);
        p.add_col(2.0, 1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "col out of range")]
    fn foreign_col_panics() {
        let mut p = Problem::new(Objective::Minimize);
        let mut q = Problem::new(Objective::Minimize);
        let x = q.add_col(0.0, 1.0, 0.0);
        let _ = x;
        let r = p.add_row(0.0, 1.0, &[]);
        // x belongs to q, p has no columns
        p.set_coeff(r, Col(0), 1.0);
    }

    #[test]
    fn infinite_bounds_allowed() {
        let mut p = Problem::new(Objective::Minimize);
        let x = p.add_col(f64::NEG_INFINITY, f64::INFINITY, 1.0);
        assert_eq!(p.col_bounds(x).0, f64::NEG_INFINITY);
    }
}
