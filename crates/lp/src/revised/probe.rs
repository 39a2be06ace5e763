//! [`PivotProbe`]: the bench-and-test harness that steps the engine one
//! pivot batch or one kernel sweep at a time.

use super::engine::{Engine, VarState};
use super::SimplexConfig;
use crate::model::Problem;
use crate::solution::{SolveStats, Status};
use crate::stdform::standardize;

/// Test-and-bench harness that drives the engine one pivot batch at a time.
///
/// Hidden from the public API: the supported consumers are the crate's
/// allocation test, its kernel differential (which reads single kernel
/// results) and the per-pivot kernel benchmark, which need to put
/// the engine into a steady state (factorized basis, warmed scratch
/// arenas) and then run an exact number of pivots under observation.
///
/// The problem must be feasible at its crash basis (phase-2-only): the
/// probe advances by re-entering the phase-2 loop, which is only sound when
/// no phase-1 bookkeeping is pending. [`new`](Self::new) disables
/// `refactor_interval`, so its windows exercise the eta-file path alone.
#[doc(hidden)]
#[derive(Clone)]
pub struct PivotProbe {
    engine: Engine,
}

impl PivotProbe {
    /// Standardizes `p`, runs `warmup` simplex iterations, and parks the
    /// engine at its iteration limit, ready to step.
    ///
    /// # Panics
    /// Panics if `p` does not standardize, if the warmup terminates before
    /// exhausting its iteration budget (the probe needs a problem big
    /// enough to keep pivoting), or if the crash basis needed a phase 1.
    pub fn new(p: &Problem, warmup: u64) -> Self {
        Self::new_with(
            p,
            warmup,
            &SimplexConfig {
                // Refactorize only on demand: a window of pure eta-file
                // pivots.
                refactor_interval: usize::MAX,
                ..SimplexConfig::default()
            },
        )
    }

    /// Like [`new`](Self::new), but with explicit simplex settings — the
    /// kernel benchmarks use this to probe with the dense kernels forced
    /// (`kernel_density_threshold: 0.0`) as the comparison baseline.
    ///
    /// Only the warmup budget of `base` is overridden; in particular the
    /// refactorization cadence is honored, so probed windows measure the
    /// realistic steady state (periodic refactorization included) rather
    /// than an ever-growing eta file.
    pub fn new_with(p: &Problem, warmup: u64, base: &SimplexConfig) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "bench-only probe constructor: a malformed probe problem is a programming error in the benchmark, not a runtime condition"
        )]
        let std = standardize(p).expect("probe problem must standardize");
        let mut engine = Engine::new(std, base.clone());
        engine.max_iterations = warmup.max(1);
        #[expect(
            clippy::expect_used,
            reason = "bench-only probe constructor: warmup failure means the benchmark fixture is broken and should abort loudly"
        )]
        let sol = engine.solve(None).expect("probe warmup failed");
        assert_eq!(
            sol.status,
            Status::IterationLimit,
            "probe exhausted the problem during warmup"
        );
        assert_eq!(
            engine.stats.phase1_iterations, 0,
            "probe problems must be feasible at the crash basis"
        );
        PivotProbe { engine }
    }

    /// Pre-grows the eta arena and its pivotal table for `n` further
    /// pivots, and the factor arenas by as many entries, so the measured
    /// window appends etas and refactorizes without allocating.
    pub fn reserve(&mut self, n: usize) {
        let m = self.engine.std.nrows;
        self.engine.etas.reserve(n + 1, (n + 1) * (m + 1));
        if let Some(lu) = self.engine.lu.as_mut() {
            lu.reserve((n + 1) * (m + 1));
        }
    }

    /// Runs up to `n` further pivots (phase-2 iterations) and returns how
    /// many actually ran — fewer only if the problem terminated first.
    pub fn pivots(&mut self, n: u64) -> u64 {
        let before = self.engine.stats.iterations;
        self.engine.max_iterations = before + n;
        #[expect(
            clippy::expect_used,
            reason = "bench-only probe: a numerical failure mid-window invalidates the measurement, so abort loudly"
        )]
        let _ = self
            .engine
            .iterate(false)
            .expect("probe pivot batch hit a numerical failure");
        self.engine.stats.iterations - before
    }

    /// Runs the FTRAN kernel (`w = B⁻¹ a_q`, triangular solves plus eta
    /// passes) once for every nonbasic column at the parked basis, and
    /// returns how many ran. Engine state other than scratch and counters
    /// is untouched, so repeated sweeps time the identical computation —
    /// the kernel benchmarks divide wall-clock by the return value.
    pub fn ftran_sweep(&mut self) -> u64 {
        let mut ran = 0;
        for q in 0..self.engine.state.len() {
            if matches!(self.engine.state[q], VarState::Basic(_) | VarState::Fixed) {
                continue;
            }
            self.engine.ftran_entering(q);
            std::hint::black_box(&self.engine.ftran_w.values);
            ran += 1;
        }
        ran
    }

    /// Runs the pivotal-row BTRAN kernel (`ρ = B⁻ᵀ e_r`) once for every
    /// basis position at the parked basis, and returns how many ran.
    pub fn btran_sweep(&mut self) -> u64 {
        let m = self.engine.std.nrows;
        for pos in 0..m {
            self.engine.btran_pos_sparse(pos);
            std::hint::black_box(&self.engine.rho.values);
        }
        m as u64
    }

    /// `B⁻ᵀ e_pos` at the parked basis, row-indexed: one run of the kernel
    /// [`Self::btran_sweep`] times, for the kernel differential to read.
    pub fn btran_row(&mut self, pos: usize) -> &[f64] {
        self.engine.btran_pos_sparse(pos);
        &self.engine.rho.values
    }

    /// `B⁻¹ a_q` at the parked basis, by basis position: one run of the
    /// kernel [`Self::ftran_sweep`] times, for the kernel differential.
    pub fn ftran_column(&mut self, q: usize) -> &[f64] {
        self.engine.ftran_entering(q);
        &self.engine.ftran_w.values
    }

    /// The eta file's length and how many distinct basis positions its
    /// etas pivot on.
    pub fn eta_shape(&self) -> (usize, usize) {
        (self.engine.etas.len(), self.engine.etas.pivotal_len())
    }

    /// Work counters accumulated so far (warmup included).
    pub fn stats(&self) -> SolveStats {
        self.engine.stats
    }
}
