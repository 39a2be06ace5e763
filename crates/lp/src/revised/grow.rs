//! In-place structural growth of a held standardized form: column and row
//! splices (the column-generation master's two edits), and the bound
//! normalisation every in-place edit shares.

use super::engine::{iteration_cap, Engine, Exact, VarState};
use super::kernels::build_row_mirror;
use super::lu::LuScratch;
use super::{pos_or_zero, NewColumn, NewRow};
use crate::sparse::WorkVec;
use crate::stdform::{norm_lower, norm_upper, ColKind};

/// Validates a caller-supplied bound pair and normalises infinite
/// magnitudes exactly as `standardize` does.
///
/// # Panics
/// Panics on a NaN bound or crossed bounds.
pub(super) fn checked_bounds(lower: f64, upper: f64) -> (f64, f64) {
    assert!(!lower.is_nan() && !upper.is_nan(), "NaN bound");
    let (l, u) = (norm_lower(lower), norm_upper(upper));
    assert!(l <= u, "bounds crossed: [{l}, {u}]");
    (l, u)
}

impl Engine {
    /// Refits the structure-derived engine state that is cheap to refit
    /// after the standardized form grew columns and/or rows: the
    /// row-dimensioned scratch buffers, the kernel density cap and the
    /// auto-derived iteration budget. The CSR row mirror and the pivot
    /// scratch are only marked stale: [`Engine::fit_structure`] rebuilds
    /// them once at the next solve's entry, however many splices came
    /// before it. The carried factorization and eta file are deliberately
    /// left alone — the callers (`append_columns`, `append_rows`) decide
    /// between preserving the factorization across the splice and dropping
    /// it via `invalidate_factorization`.
    fn after_structure_change(&mut self) {
        let m = self.std.nrows;
        if self.xb.len() != m {
            self.xb.resize(m, 0.0);
            self.work_pos.resize(m, 0.0);
            self.work_row.resize(m, 0.0);
            self.dual.resize(m, 0.0);
            self.ftran_rhs = WorkVec::new(m);
            self.ftran_w = WorkVec::new(m);
            self.rho = WorkVec::new(m);
            self.lu_scratch = LuScratch::new(m);
            self.etas.ensure_rows(m);
        }
        // Intentional truncation of a density fraction to a scratch-arena size.
        self.kernel_cap = (pos_or_zero(self.cfg.kernel_density_threshold) * m as f64) as usize;
        self.max_iterations = iteration_cap(&self.std);
        self.structure_stale = true;
    }

    /// Rebuilds the CSR row mirror and re-sizes the pivot scratch if the
    /// structure grew since they were last built. Called at every solve
    /// entry, before anything reads either.
    pub(super) fn fit_structure(&mut self) {
        if std::mem::take(&mut self.structure_stale) {
            let (csr_ptr, csr_cols) = build_row_mirror(&self.std.a);
            self.csr_ptr = csr_ptr;
            self.csr_cols = csr_cols;
            self.size_scratch();
        }
    }

    /// Drops the carried factorization and the cross-solve flag that rides
    /// on it. The next solve entry refactorizes from scratch.
    fn invalidate_factorization(&mut self) {
        self.lu = None;
        self.etas.clear();
        self.reuse_ready = false;
        self.exact = Exact::Nothing;
    }

    /// Inserts columns with the given bounds and phase-2 costs at index
    /// `at` of the standardized form (the matrix columns are the caller's
    /// job), with placeholder entries in the per-column engine buffers —
    /// every solve path rewrites all per-column state before use — and
    /// re-points the basic column indices past the insertion.
    fn splice_columns(
        &mut self,
        at: usize,
        lower: Vec<f64>,
        upper: Vec<f64>,
        cost: Vec<f64>,
        kind: ColKind,
    ) {
        let k = lower.len();
        self.std.lower.splice(at..at, lower);
        self.std.upper.splice(at..at, upper);
        self.std.cost.splice(at..at, cost);
        self.std.kind.splice(at..at, vec![kind; k]);
        self.cost.splice(at..at, vec![0.0; k]);
        self.state.splice(at..at, vec![VarState::Fixed; k]);
        self.xval.splice(at..at, vec![0.0; k]);
        self.d.splice(at..at, vec![0.0; k]);
        self.weights.splice(at..at, vec![1.0; k]);
        for b in &mut self.basis {
            if *b >= at {
                *b += k;
            }
        }
    }

    /// Appends structural columns to the held standardized form, shifting
    /// the activity and artificial blocks right; a basis held across the
    /// append stays valid.
    pub(super) fn append_columns(&mut self, cols: &[NewColumn]) {
        if cols.is_empty() {
            return;
        }
        // A nonbasic column splice never touches B: the carried
        // factorization stays valid as long as the new columns are parked
        // nonbasic (done below, after the per-column state exists).
        let preserve = self.reuse_ready && self.lu.is_some();
        let n0 = self.std.nstruct;
        let k = cols.len();
        let mut packed: Vec<Vec<(u32, f64)>> = Vec::with_capacity(k);
        let mut lows = Vec::with_capacity(k);
        let mut ups = Vec::with_capacity(k);
        let mut costs = Vec::with_capacity(k);
        for c in cols {
            assert!(c.cost.is_finite(), "non-finite cost");
            let (l, u) = checked_bounds(c.lower, c.upper);
            lows.push(l);
            ups.push(u);
            costs.push(self.std.obj_sign * c.cost);
            let mut es: Vec<(u32, f64)> = c
                .entries
                .iter()
                .map(|&(r, v)| {
                    assert!(r.index() < self.std.nrows, "row out of range");
                    assert!(v.is_finite(), "non-finite coefficient");
                    (r.index() as u32, v)
                })
                .collect();
            es.sort_unstable_by_key(|&(r, _)| r);
            for w in es.windows(2) {
                assert!(w[0].0 != w[1].0, "duplicate row entry in new column");
            }
            packed.push(es);
        }
        self.std.a.insert_cols(n0, &packed);
        self.splice_columns(n0, lows, ups, costs, ColKind::Structural);
        self.std.nstruct = n0 + k;
        self.after_structure_change();
        if preserve {
            for j in n0..n0 + k {
                self.rest(j);
            }
        } else {
            self.invalidate_factorization();
        }
    }

    /// Appends constraint rows to the held standardized form: the matrix
    /// grows `k` rows, each new row gets an activity column (single `-1`,
    /// bounded by the row bounds) spliced at the end of the activity block
    /// and an artificial column (single `+1`, fixed at zero) at the end of
    /// the artificial block. A basis held across the append stays valid.
    pub(super) fn append_rows(&mut self, rows: &[NewRow]) {
        if rows.is_empty() {
            return;
        }
        let m0 = self.std.nrows;
        let n = self.std.nstruct;
        let k = rows.len();
        // Row growth changes B itself. With no coefficients on existing
        // columns — column generation's capacity rows, filled only by the
        // columns spliced after them — the new basis is `diag(B, -I)` with
        // the new activity columns basic, which `Lu::extend_rows` factors
        // in place. Any coupling entry drops the carried factors instead.
        let preserve = self.reuse_ready
            && self.lu.is_some()
            && self.basis.len() == m0
            && rows.iter().all(|r| r.entries.is_empty());
        let mut trips: Vec<(u32, u32, f64)> = Vec::new();
        let mut lows = Vec::with_capacity(k);
        let mut ups = Vec::with_capacity(k);
        for (i, r) in rows.iter().enumerate() {
            let (l, u) = checked_bounds(r.lower, r.upper);
            lows.push(l);
            ups.push(u);
            for &(c, v) in &r.entries {
                assert!(c.index() < n, "col out of range");
                assert!(v.is_finite(), "non-finite coefficient");
                // Row indices are bounded by the CSR u32 index width by construction.
                trips.push(((m0 + i) as u32, c.index() as u32, v));
            }
        }
        self.std.a.append_rows(k, &trips);
        // Row indices are bounded by the CSR u32 index width by construction.
        let acts: Vec<Vec<(u32, f64)>> = (0..k).map(|i| vec![((m0 + i) as u32, -1.0)]).collect();
        self.std.a.insert_cols(n + m0, &acts);
        for i in 0..k {
            // Row indices are bounded by the CSR u32 index width by construction.
            self.std.a.push_col(&[((m0 + i) as u32, 1.0)]);
        }
        // Activity columns at the end of their block, artificials (fixed
        // at zero) at the very end.
        let (at, zeros) = (n + m0, vec![0.0; k]);
        self.splice_columns(at, lows, ups, zeros.clone(), ColKind::Activity);
        let end = self.cost.len();
        self.splice_columns(
            end,
            zeros.clone(),
            zeros.clone(),
            zeros,
            ColKind::Artificial,
        );
        self.std.nrows = m0 + k;
        self.after_structure_change();
        if let (true, Some(lu)) = (preserve, self.lu.as_mut()) {
            lu.extend_rows(k);
            // Valid factors, but not the ones `Lu::refactor` would order.
            self.exact = Exact::Nothing;
            self.lu_nnz += k;
            for i in 0..k {
                self.basis.push(at + i);
                // Basis positions are bounded by the CSR u32 index width by construction.
                self.state[at + i] = VarState::Basic((m0 + i) as u32);
            }
        } else {
            self.invalidate_factorization();
        }
    }
}
