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
//!   sparsest-column-first ordering) plus an eta file, refactorized when
//!   the file stops paying for itself (`refactor_interval` is the hard
//!   cap) and on numerical drift.
//! * **Devex pricing with a Bland fallback** after a run of degenerate
//!   pivots, guaranteeing termination in the presence of degeneracy (the
//!   MCF-style scheduling LPs of the paper are massively degenerate). The
//!   reference framework resets when the Devex weights blow up
//!   (`SolveStats::devex_resets` counts these).
//! * **Two-pass (Harris-style) ratio test**: pass one finds the best step
//!   with a relaxed feasibility tolerance, pass two picks the numerically
//!   largest pivot among the near-blocking rows.
//! * **Primal re-solves only**: a [`SolverSession`] re-solve after in-place
//!   edits continues from the carried basis with a bound-shift phase 1 and
//!   phase 2 (`entry.rs`). There is no dual simplex: RET's bound-only
//!   probes were its one customer, and there it lost more than it won
//!   (DESIGN.md, "Why there is no dual simplex").

mod engine;
mod entry;
mod eta;
mod grow;
mod kernels;
mod lu;
mod pricing;
mod probe;
mod sanitize;
mod session;
#[cfg(test)]
mod tests;

#[doc(hidden)]
pub use probe::PivotProbe;
pub use session::SolverSession;

use crate::model::{Col, Problem, Row};
use crate::solution::{Solution, SolveError};
use crate::stdform::standardize;

/// Tunable parameters of the revised simplex: the three the tests select
/// their reference paths with. The tolerances are the crate constants
/// [`FEAS_TOL`](crate::FEAS_TOL), [`OPT_TOL`](crate::OPT_TOL) and
/// [`PIVOT_TOL`](crate::PIVOT_TOL); the iteration cap is
/// `50 * (rows + cols) + 10_000`.
#[derive(Debug, Clone)]
pub struct SimplexConfig {
    /// Hard cap on the eta file: refactorize after this many eta updates
    /// at the latest (below the cap a cost model cuts the file as soon as
    /// its entries outweigh the factors' eight to one). `usize::MAX` — the
    /// kernel probes — disables both, so probed windows measure
    /// steady-state eta chains. Must be at least 1.
    pub refactor_interval: usize,
    /// Consecutive degenerate pivots before switching to Bland's rule.
    pub degeneracy_threshold: u64,
    /// Fraction of the basis dimension above which a sparse FTRAN/BTRAN
    /// result is handed on flagged dense, without its nonzero pattern
    /// (`SolveStats` counts these as fallbacks). `0.0` runs the dense
    /// kernels everywhere, which the differential tests use as an oracle:
    /// the answer is bit-identical either way, only the work differs.
    pub kernel_density_threshold: f64,
}

impl Default for SimplexConfig {
    fn default() -> Self {
        SimplexConfig {
            refactor_interval: 100,
            degeneracy_threshold: 400,
            kernel_density_threshold: 0.3,
        }
    }
}

impl SimplexConfig {
    /// Rejects settings no solve can run under: a zero refactorization
    /// interval, a NaN density threshold.
    fn validate(&self) -> Result<(), SolveError> {
        let bad = |what: &str| Err(SolveError::InvalidModel(format!("SimplexConfig: {what}")));
        if self.refactor_interval == 0 {
            return bad("refactor_interval must be at least 1");
        }
        if self.kernel_density_threshold.is_nan() {
            return bad("kernel_density_threshold is NaN");
        }
        Ok(())
    }
}

/// Clamps a quantity to nonnegative with a deterministic `+0.0`.
///
/// `f64::max` leaves the sign of a zero result unspecified — optimized and
/// unoptimized builds can disagree on `(-0.0).max(0.0)` — and a `-0.0`
/// step or ratio is told apart from `+0.0` by every `total_cmp` order and
/// every bitwise pin. Every zero-clamp on the pivot trajectory
/// (and, by convention, every `.max(0.0)` in `lp` and `core`; no lint
/// checks it, see DESIGN.md "Static analysis") goes through here so debug
/// and release builds pick identical pivots. `NaN` clamps to `+0.0`, same
/// as `f64::max(0.0)`.
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

/// Solves `p` cold with the sparse revised simplex under default settings.
/// Other settings, a warm start and in-place re-solves go through a
/// [`SolverSession`].
pub fn solve(p: &Problem) -> Result<Solution, SolveError> {
    let std = standardize(p)?;
    engine::Engine::new(std, SimplexConfig::default()).solve(None)
}
