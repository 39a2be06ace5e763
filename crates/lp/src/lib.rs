//! # wavesched-lp — linear and integer programming for wavelength scheduling
//!
//! A from-scratch LP/MILP toolkit built for the ICPP 2009 reproduction of
//! *Slotted Wavelength Scheduling for Bulk Transfers in Research Networks*.
//! The paper solved its formulations with CPLEX; this crate provides the
//! equivalent functionality with no external solver dependency:
//!
//! * [`Problem`] — a row/column model builder with general bounds and range
//!   rows, supporting both [`Objective::Minimize`] and
//!   [`Objective::Maximize`].
//! * [`solve`] — the default solver: a sparse two-phase revised simplex with
//!   a product-form-of-the-inverse (eta file) basis representation and
//!   periodic sparse LU refactorization (see [`revised`]).
//! * [`SolverSession`] — one problem held across in-place edits and
//!   re-solves, each warm from the last optimum: on the carried factors
//!   when they still hold, a bound-shift phase 1 for the basic values the
//!   edits pushed out of bounds, then phase 2. There is no dual simplex.
//! * [`certify`] — checks a [`Solution`] against its [`Problem`] by the
//!   mathematics of its status (KKT conditions for an optimum, a Farkas
//!   multiplier for infeasibility, an improving ray for unboundedness) in
//!   O(nnz), trusting nothing of the solver: the differential tests hold
//!   every answer to it.
//! * [`milp`] — branch-and-bound mixed-integer programming on top of the LP
//!   solver; practical for small instances, used to validate the paper's
//!   LPDAR heuristic against true integer optima.
//!
//! The scheduling formulations of the paper (Stage-1 MCF, Stage-2 weighted
//! throughput, SUB-RET) are *built* in `wavesched-core` and *solved* here.
//!
//! ## Example
//!
//! ```
//! use wavesched_lp::{Problem, Objective, solve, Status};
//!
//! // maximize 3x + 2y  s.t. x + y <= 4, x + 3y <= 6, x,y >= 0
//! let mut p = Problem::new(Objective::Maximize);
//! let x = p.add_col(0.0, f64::INFINITY, 3.0);
//! let y = p.add_col(0.0, f64::INFINITY, 2.0);
//! p.add_row(f64::NEG_INFINITY, 4.0, &[(x, 1.0), (y, 1.0)]);
//! p.add_row(f64::NEG_INFINITY, 6.0, &[(x, 1.0), (y, 3.0)]);
//! let sol = solve(&p).unwrap();
//! assert_eq!(sol.status, Status::Optimal);
//! assert!((sol.objective - 12.0).abs() < 1e-6);
//! ```

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![cfg_attr(not(test), warn(clippy::float_cmp))]

mod certificate;
pub mod milp;
pub mod model;
pub mod revised;
pub mod solution;
pub(crate) mod sparse;
pub(crate) mod stdform;

pub use certificate::{certify, Certificate};
pub use milp::{solve_milp, MilpConfig, MilpSolution, MilpStatus};
pub use model::{Col, Objective, Problem, Row};
#[doc(hidden)]
pub use revised::PivotProbe;
pub use revised::{pos_or_zero, solve, NewColumn, NewRow, SimplexConfig, SolverSession};
pub use solution::{Basis, BasisStatus, Solution, SolveError, SolveStats, Status};

/// Default feasibility tolerance: a bound or row is considered satisfied if
/// violated by no more than this amount.
pub const FEAS_TOL: f64 = 1e-7;

/// Default optimality (reduced-cost) tolerance.
pub const OPT_TOL: f64 = 1e-7;

/// Pivot magnitude below which a candidate pivot element is rejected as
/// numerically unsafe.
pub const PIVOT_TOL: f64 = 1e-9;

/// A value with absolute magnitude at least this large is treated as infinite
/// when it appears as a variable or row bound.
pub const INF_BOUND: f64 = 1e30;

/// Returns true if `v` should be treated as an infinite bound.
#[inline]
pub fn is_inf(v: f64) -> bool {
    v.abs() >= INF_BOUND || v.is_infinite()
}
