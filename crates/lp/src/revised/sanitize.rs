//! Runtime numerics sanitizer for the simplex hot path.
//!
//! Every `sanitize_every` basis-changing pivots (counted from the last
//! solve entry that rebuilt that state — cold or from a basis snapshot —
//! and on through entries on carried factors) the engine cross-checks its
//! incrementally maintained state against a from-scratch recomputation: the basic solution must satisfy the
//! standardized system `B x_B + N x_N = 0`, Devex weights must stay
//! finite and strictly positive, the eta file must agree with the basis
//! bookkeeping, and the eligible set pricing reads must be the set a full
//! eligibility scan would find. Violations are never fatal — they are
//! folded into [`SolveStats::sanitizer_violations`](crate::SolveStats)
//! (and from there the `lp.sanitizer_*` obs counters) so smoke runs and CI
//! gate on "checks ran, none failed" without perturbing the solve.
//!
//! The sweep reuses the engine's `work_row` scratch (dead between
//! pivots; `refactorize` refills it before every use) and allocates
//! nothing, so the zero-allocation pivot guarantee holds with the
//! sanitizer on. With it off, the cost is a single predictable branch
//! per pivot.

use super::engine::{Engine, VarState};

/// Residual tolerance for the `B x_B + N x_N = 0` check, scaled by the
/// largest participating variable magnitude. Deliberately loose: the
/// sweep flags genuine drift (a corrupted incremental update, a bad
/// eta), not the benign rounding `refactorize` exists to flush.
const RESIDUAL_TOL: f64 = 1e-5;

/// Default sweep interval when `WS_SANITIZE` is unset: coarse-grained in
/// debug builds, off in release builds.
const DEBUG_DEFAULT_INTERVAL: u64 = 256;

/// Sweep interval when `WS_SANITIZE=1` ("just turn it on").
const ON_INTERVAL: u64 = 64;

/// Process-wide sanitizer interval from the `WS_SANITIZE` environment
/// variable, read once per process: `0` (or unparseable) disables, `1`
/// enables at a tight default interval, any larger `N` sweeps every `N`
/// pivots. Unset: debug builds default to a coarse interval so the
/// sanitizer rides along with every debug test run, release builds to
/// off so benchmarks are untouched.
pub(super) fn sanitize_env() -> u64 {
    static INTERVAL: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *INTERVAL.get_or_init(|| {
        #[expect(
            clippy::disallowed_methods,
            reason = "the one WS_SANITIZE reader: read once at first use, build-dependent default when unset, documented in the README"
        )]
        match std::env::var("WS_SANITIZE") {
            Ok(v) => match v.trim().parse::<u64>() {
                Ok(0) | Err(_) => 0,
                Ok(1) => ON_INTERVAL,
                Ok(n) => n,
            },
            Err(_) => {
                if cfg!(debug_assertions) {
                    DEBUG_DEFAULT_INTERVAL
                } else {
                    0
                }
            }
        }
    })
}

impl Engine {
    /// Per-pivot sanitizer gate: decrements the countdown and runs a sweep
    /// when it expires. One branch and no memory traffic when disabled
    /// (`sanitize_left` stays 0 forever).
    #[inline]
    pub(super) fn maybe_sanitize(&mut self) {
        if self.sanitize_left == 0 {
            return;
        }
        self.sanitize_left -= 1;
        if self.sanitize_left == 0 {
            self.sanitize_left = self.sanitize_every;
            self.sanitize_sweep();
        }
    }

    /// Residual spot-check of the standardized system: assembles `A·x`
    /// from the incremental `xb`/`xval` and requires it to vanish (scaled
    /// by the largest participating magnitude). `work_row` is dead between
    /// pivots, so the check may clobber it. Returns `false` on any drift —
    /// including a NaN residual — which makes it double as the
    /// factorization-reuse gate: a stale LU produces basic values that
    /// fail this identity.
    pub(super) fn residual_ok(&mut self) -> bool {
        let m = self.std.nrows;
        self.work_row[..m].fill(0.0);
        let mut scale = 1.0f64;
        for j in 0..self.std.ncols() {
            let xj = match self.state[j] {
                VarState::Basic(p) => self.xb[p as usize],
                _ => self.xval[j],
            };
            if xj != 0.0 {
                if xj.abs() > scale {
                    scale = xj.abs();
                }
                let (rows, vals) = self.std.a.col(j);
                for (&r, &v) in rows.iter().zip(vals) {
                    self.work_row[r as usize] += v * xj;
                }
            }
        }
        let mut worst = 0.0f64;
        for &r in &self.work_row[..m] {
            if r.abs() > worst {
                worst = r.abs();
            }
        }
        // Direct (non-negated) comparison: a NaN residual compares false.
        worst <= RESIDUAL_TOL * scale
    }

    /// One full sanitizer sweep. Kept out of line so the hot path carries
    /// only the countdown branch.
    #[cold]
    #[inline(never)]
    pub(super) fn sanitize_sweep(&mut self) {
        self.stats.sanitizer_checks += 1;
        let mut violations = 0u64;
        let m = self.std.nrows;

        // (1) Residual of the standardized system.
        if !self.residual_ok() {
            violations += 1;
        }

        // (2) Devex weights: finite and strictly positive, always. A zero,
        // negative, or non-finite weight silently corrupts every later
        // pricing decision.
        if !self.weights.iter().all(|&w| w.is_finite() && w > 0.0) {
            violations += 1;
        }

        // (3) Eta file vs. basis bookkeeping: the file never outruns the
        // refactorization interval, and every head names a real basis
        // position with a usable pivot element.
        if self.etas.len() > self.cfg.refactor_interval {
            violations += 1;
        }
        for k in 0..self.etas.len() {
            let head = self.etas.head(k);
            if head.pos as usize >= m || !head.pivot.is_finite() || head.pivot.abs() <= 0.0 {
                violations += 1;
                break;
            }
        }

        // (4) Basis/state agreement (debug_invariants' structural check,
        // here available in release builds too): one column per row, each
        // marked Basic at its own position, with a finite value.
        if self.basis.len() != m {
            violations += 1;
        }
        for (pos, &j) in self.basis.iter().enumerate() {
            let agreed = matches!(self.state[j], VarState::Basic(p) if p as usize == pos);
            if !agreed || !self.xb[pos].is_finite() {
                violations += 1;
                break;
            }
        }

        // (5) The eligible set against the mathematics: exactly the columns
        // whose maintained reduced cost and state make them eligible, each
        // at the slot the index names. A column missing from it is never
        // priced; a stale member is priced on a reduced cost it lost.
        if !self.eligible_set_consistent() {
            violations += 1;
        }

        self.stats.sanitizer_violations += violations;
    }
}
