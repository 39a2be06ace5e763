//! [`SolverSession`]: one standardized problem held across a sequence of
//! solves, edited in place between them.

use super::engine::{Engine, Exact};
use super::grow::checked_bounds;
use super::{NewColumn, NewRow, SimplexConfig};
use crate::model::{Col, Problem, Row};
use crate::solution::{Basis, BasisStatus, Solution, SolveError, SolveStats, Status};
use crate::stdform::standardize;

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
/// independently afterwards. Clones of one solved session all re-solve from
/// the *same* starting basis, so each clone's answer, and its iteration
/// counts, are a pure function of the edits made to that clone.
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
}

impl SolverSession {
    /// Builds a session for `p` under default simplex settings.
    pub fn new(p: &Problem) -> Result<Self, SolveError> {
        Self::with_config(p, &SimplexConfig::default())
    }

    /// Builds a session for `p` with explicit [`SimplexConfig`] settings.
    /// Settings no solve can run under — a zero `refactor_interval`, a NaN
    /// `kernel_density_threshold` — are a [`SolveError::InvalidModel`].
    pub fn with_config(p: &Problem, cfg: &SimplexConfig) -> Result<Self, SolveError> {
        cfg.validate()?;
        let std = standardize(p)?;
        Ok(SolverSession {
            engine: Engine::new(std, cfg.clone()),
            warm: None,
            agg: SolveStats::default(),
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
        let (l, u) = checked_bounds(lower, upper);
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
        self.engine.std.cost[j] = self.engine.std.obj_sign * cost;
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
        self.engine.append_columns(cols);
        if let Some(w) = &mut self.warm {
            let std = &self.engine.std;
            w.cols
                .extend((base..base + cols.len()).map(|j| std.resting(j).0));
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
        self.engine.append_rows(rows);
        if let Some(w) = &mut self.warm {
            w.rows.resize(w.rows.len() + rows.len(), BasisStatus::Basic);
        }
        (base..base + rows.len()).map(Row::from_index).collect()
    }

    /// Seeds the next solve with `basis` — e.g. one extracted from a
    /// structurally related problem — replacing whatever basis the session
    /// was carrying.
    ///
    /// The solve installs it, repairs any infeasibility it causes with a
    /// bound-shift phase 1, and proceeds to phase 2 — on a fresh session
    /// exactly as a one-shot solve from that basis would. On a shape
    /// mismatch, numerical trouble during installation, or a repair that
    /// cannot clear the violations (every genuinely infeasible problem: only
    /// the cold artificial phase 1 is an infeasibility proof) it restarts
    /// cold, so the basis can change the work, never the answer.
    pub fn warm_start_from(&mut self, basis: Basis) {
        self.warm = Some(basis);
        // The carried factors factor the engine's *live* basis, not the one
        // about to be installed.
        self.engine.reuse_ready = false;
    }

    /// Test-only hook: corrupts the carried LU factorization in place (a
    /// single factor entry is scaled), so the differential suites can
    /// prove the residual guard rejects bad carried factors and re-enters
    /// on a fresh factor instead of propagating wrong answers.
    #[doc(hidden)]
    pub fn debug_corrupt_factorization(&mut self) {
        if let Some(lu) = self.engine.lu.as_mut() {
            lu.corrupt_for_test();
            self.engine.exact = Exact::Nothing;
        }
    }

    /// Solves the current state of the held problem, warm-starting from the
    /// carried basis when one is available.
    ///
    /// Only an **optimal** solve replaces the carried basis: the final basis
    /// of an infeasible (or limit-hit) solve is a phase-1 artifact that makes
    /// a poor starting point, so after such a solve the session keeps
    /// warm-starting from the last optimal basis it saw. Use
    /// [`warm_start_from`](SolverSession::warm_start_from) to override.
    pub fn solve(&mut self) -> Result<Solution, SolveError> {
        // Whether the factors themselves carry over is the engine's own
        // bookkeeping: `reuse_ready`, maintained across every in-place edit.
        let sol = self.engine.solve(self.warm.as_ref())?;
        if sol.status == Status::Optimal {
            self.warm.clone_from(&sol.basis);
        }
        self.agg.merge(&sol.stats);
        Ok(sol)
    }

    /// Counters aggregated over every solve this session has run.
    pub fn stats(&self) -> SolveStats {
        self.agg
    }
}
