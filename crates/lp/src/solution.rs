//! Solver outcomes: status codes, solutions, statistics, and errors.

use std::fmt;

/// Termination status of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// An optimal basic feasible solution was found.
    Optimal,
    /// The constraints admit no feasible point (within tolerance).
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
    /// The iteration limit was reached before convergence.
    IterationLimit,
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Status::Optimal => "optimal",
            Status::Infeasible => "infeasible",
            Status::Unbounded => "unbounded",
            Status::IterationLimit => "iteration limit",
        };
        f.write_str(s)
    }
}

/// Where a column or row (its activity variable) sits in a simplex basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BasisStatus {
    /// In the basis.
    Basic,
    /// Nonbasic at its lower bound (also used for fixed variables).
    AtLower,
    /// Nonbasic at its upper bound.
    AtUpper,
    /// Nonbasic free variable resting at zero.
    Free,
}

/// A snapshot of an optimal (or final) simplex basis, expressed in terms of
/// the original problem's columns and rows.
///
/// Obtained from [`Solution::basis`] and consumed by
/// [`SolverSession::warm_start_from`](crate::SolverSession::warm_start_from)
/// to warm-start a related solve.
/// A basis only makes sense for a problem with the same number of columns
/// and rows it was extracted from; the solver falls back to a cold start
/// when the shapes disagree.
#[derive(Debug, PartialEq, Eq)]
pub struct Basis {
    /// Status per problem column, in column order.
    pub cols: Vec<BasisStatus>,
    /// Status per problem row (the row's activity variable), in row order.
    pub rows: Vec<BasisStatus>,
}

impl Clone for Basis {
    fn clone(&self) -> Self {
        Basis {
            cols: self.cols.clone(),
            rows: self.rows.clone(),
        }
    }

    /// Into `self`'s own vectors: a session re-solving at one shape keeps
    /// its carried basis without allocating.
    fn clone_from(&mut self, source: &Self) {
        self.cols.clone_from(&source.cols);
        self.rows.clone_from(&source.rows);
    }
}

/// The one table of solve counters: `field => obs counter name (or None)`,
/// each with its doc. Generates [`SolveStats`], [`SolveStats::merge`] and
/// the `(name, value)` list the solver publishes to `wavesched-obs`, so a
/// counter is added, renamed or dropped in exactly one place. Fields
/// without an obs name feed per-solve histograms instead (see
/// `revised::publish_stats`).
macro_rules! solve_counters {
    ($($(#[$doc:meta])* $field:ident => $obs:expr,)*) => {
        /// Counters describing the work a solve performed.
        ///
        /// Also used in aggregated form (e.g. by
        /// [`SolverSession::stats`](crate::SolverSession::stats) or the scheduling
        /// layers above), where the counters sum over `solves` individual solves.
        #[derive(Debug, Clone, Copy, Default, PartialEq)]
        pub struct SolveStats {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl SolveStats {
            /// Accumulates `other` into `self`, field by field.
            pub fn merge(&mut self, other: &SolveStats) {
                $(self.$field += other.$field;)*
            }

            /// `(obs counter name, value)` for every published field.
            pub(crate) fn published(&self) -> impl Iterator<Item = (&'static str, u64)> {
                let table: [(Option<&'static str>, u64); COUNTERS] = [$(($obs, self.$field),)*];
                table.into_iter().filter_map(|(name, v)| Some((name?, v)))
            }

            /// Every field by name, in table order.
            #[cfg(test)]
            fn fields_mut(&mut self) -> [(&'static str, &mut u64); COUNTERS] {
                [$((stringify!($field), &mut self.$field),)*]
            }
        }

        const COUNTERS: usize = [$(stringify!($field),)*].len();
    };
}

solve_counters! {
    /// Total simplex iterations (phase 1 + phase 2) of the rung that
    /// answered.
    iterations => Some("lp.iterations"),
    /// Iterations spent in phase 1 (attaining feasibility).
    phase1_iterations => Some("lp.phase1_iterations"),
    /// Iterations of the warm rung when it gave up and the cold rung
    /// answered (its bound-shift phase 1 could not clear the violations, or
    /// it hit numerical trouble). At most one warm attempt per solve. Not
    /// included in `iterations`.
    abandoned_iterations => Some("lp.abandoned_iterations"),
    /// Number of basis refactorizations performed (sum of the per-reason
    /// counters below).
    refactorizations => Some("lp.refactorizations"),
    /// Refactorizations forced by the eta file reaching the fixed
    /// `refactor_interval` cap.
    refactor_interval => Some("lp.refactor_interval"),
    /// Refactorizations triggered by the cost model (eta-apply work
    /// outgrew the amortized factor cost) before the interval cap hit.
    refactor_cost_model => Some("lp.refactor_cost_model"),
    /// Refactorizations that are part of the algorithm itself: the entry
    /// factor of a cold start or of a basis installed from a snapshot, the
    /// verification of a claimed optimum reached by pivoting, and
    /// zero-pivot retries. An entry on carried factors avoids the entry
    /// share of these; a claim made on an iterate nothing has moved since
    /// it was last computed exactly avoids the verification
    /// (`verifications_skipped`).
    refactor_forced_fallback => Some("lp.refactor_forced_fallback"),
    /// Claimed optima accepted without a verification refactorization:
    /// factors fresh for the live basis, an empty eta file, and basic
    /// values and reduced costs computed from them with nothing moved
    /// since, so the verification would have rebuilt every value bit for
    /// bit. Each is one `refactor_forced_fallback` not spent.
    verifications_skipped => Some("lp.verifications_skipped"),
    /// Basis repairs performed because a factorization attempt hit a
    /// numerically singular basis (counts repairs, not whole
    /// refactorizations; the repaired factor lands in one of the reason
    /// counters above).
    refactor_forced_singular => Some("lp.refactor_forced_singular"),
    /// Solve entries that reused the previous solve's factorization (and
    /// live basis state) instead of refactorizing.
    lu_reuse_hits => Some("lp.lu_reuse_hits"),
    /// Solves whose carried factors did not answer: refused by the residual
    /// spot-check (the offered basis is then installed and refactored), or
    /// entered and given up on (the solve then goes cold).
    refactor_reuse_rejected => Some("lp.refactor_reuse_rejected"),
    /// Number of degenerate pivots (zero step length).
    degenerate_pivots => Some("lp.degenerate_pivots"),
    /// Number of Devex reference-framework resets forced by weight blowup.
    devex_resets => Some("lp.devex_resets"),
    /// Number of bound flips (nonbasic variable moved between its bounds
    /// without a basis change).
    bound_flips => Some("lp.bound_flips"),
    /// Number of LP solves aggregated into these counters (1 for the stats
    /// of a single [`Solution`]).
    solves => Some("lp.solves"),
    /// Solves that started from a supplied basis and kept it.
    warm_starts_accepted => Some("lp.warm_starts_accepted"),
    /// Solves that were offered a basis but answered cold: the warm rung
    /// gave up on a shape mismatch, a failed factorization, or a bound-shift
    /// phase 1 that could not clear the violations (every infeasible
    /// problem offered a basis ends so).
    warm_start_fallbacks => Some("lp.warm_start_fallbacks"),
    /// FTRAN kernel runs (one per simplex iteration that reached the ratio
    /// test).
    ftran_ops => None,
    /// Summed nonzero count of FTRAN results; the full dimension is charged
    /// for a result flagged dense. `ftran_nnz / ftran_ops` is the mean
    /// pivot-column density. This, `btran_nnz` and the two
    /// `*_dense_fallbacks` describe how results were *represented*, not
    /// which pivots were taken.
    ftran_nnz => None,
    /// FTRAN results handed on flagged dense, without a pattern, because
    /// the result nonzeros exceeded the density threshold (every run,
    /// under a threshold of `0.0`).
    ftran_dense_fallbacks => Some("lp.ftran_dense_fallbacks"),
    /// Pivotal-row BTRAN kernel runs: one per basis-changing pivot
    /// (`iterations - bound_flips`).
    btran_ops => None,
    /// Summed nonzero count of pivotal-row BTRAN results (the density of
    /// ρ = B⁻ᵀ e_r).
    btran_nnz => None,
    /// Pivotal-row BTRAN results handed on flagged dense because the
    /// result nonzeros exceeded the density threshold.
    btran_dense_fallbacks => Some("lp.btran_dense_fallbacks"),
    /// Summed count of nonbasic columns touched by the pivotal-row pass
    /// (the support of α_r = ρᵀA net of basic/fixed columns).
    pivot_row_nnz => None,
    /// Eligible columns the pricing scans examined (Bland's rule
    /// charges one per scan).
    pricing_candidates_scanned => Some("lp.pricing_candidates_scanned"),
    /// Runtime-sanitizer sweeps performed (`WS_SANITIZE`; each sweep
    /// re-verifies the basic solution against the standardized system,
    /// Devex weight positivity, and eta-file/basis agreement).
    sanitizer_checks => Some("lp.sanitizer_checks"),
    /// Individual sanitizer check failures observed across those sweeps
    /// (0 on a numerically healthy solve).
    sanitizer_violations => Some("lp.sanitizer_violations"),
}

/// The result of an LP solve.
///
/// Each status carries the evidence [`certify`](crate::certify) checks:
/// an optimum its `x` and `duals`, an infeasible problem a Farkas
/// multiplier in `duals`, an unbounded one a feasible `x` and a `ray`.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Termination status.
    pub status: Status,
    /// Objective value in the problem's own direction (includes any offset).
    pub objective: f64,
    /// Primal values, one per problem column. For [`Status::Infeasible`]
    /// the final phase-1 iterate (useful for diagnosing which constraints
    /// conflict).
    pub x: Vec<f64>,
    /// Dual values (simplex multipliers), one per problem row, in the
    /// *minimization* convention used internally: for a maximization problem
    /// the sign is flipped back so that duals price the original objective.
    /// For [`Status::Infeasible`] the phase-1 multipliers `y`, in no
    /// objective's direction: `yᵀ(A x − r) < 0` for every `x` and every row
    /// activity `r` within their bounds.
    pub duals: Vec<f64>,
    /// For [`Status::Unbounded`], one entry per problem column: a direction
    /// along which `x` stays feasible and the objective improves without
    /// limit. Empty for every other status.
    pub ray: Vec<f64>,
    /// The final simplex basis, suitable for warm-starting a related solve.
    /// Always present from this crate's solvers; `None` only in a
    /// `Solution` built without a solve (the scheduling layer's answer
    /// over an LP with no jobs).
    pub basis: Option<Basis>,
    /// Work counters.
    pub stats: SolveStats,
}

/// Errors that prevent a solve from producing a meaningful [`Solution`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// The model is structurally invalid (e.g. crossed bounds discovered at
    /// standardization time).
    InvalidModel(String),
    /// Numerical failure that repeated refactorization could not repair.
    Numerical(String),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::InvalidModel(m) => write!(f, "invalid model: {m}"),
            SolveError::Numerical(m) => write!(f, "numerical failure: {m}"),
        }
    }
}

impl std::error::Error for SolveError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_display() {
        assert_eq!(Status::Optimal.to_string(), "optimal");
        assert_eq!(Status::Infeasible.to_string(), "infeasible");
        assert_eq!(Status::Unbounded.to_string(), "unbounded");
        assert_eq!(Status::IterationLimit.to_string(), "iteration limit");
    }

    #[test]
    fn stats_merge_sums_fields() {
        // Distinct values per field, so a swapped or skipped field shows.
        let (mut a, mut b) = (SolveStats::default(), SolveStats::default());
        for (k, (_, v)) in a.fields_mut().into_iter().enumerate() {
            *v = 10 + k as u64;
        }
        for (k, (_, v)) in b.fields_mut().into_iter().enumerate() {
            *v = 1000 * (k as u64 + 1);
        }
        a.merge(&b);
        for (k, (name, v)) in a.fields_mut().into_iter().enumerate() {
            assert_eq!(*v, 10 + k as u64 + 1000 * (k as u64 + 1), "{name}");
        }
    }

    #[test]
    fn error_display() {
        let e = SolveError::InvalidModel("x".into());
        assert!(e.to_string().contains("invalid model"));
        let e = SolveError::Numerical("y".into());
        assert!(e.to_string().contains("numerical"));
    }
}
