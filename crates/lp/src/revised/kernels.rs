//! The engine's linear-algebra kernels: FTRAN and BTRAN through the LU
//! factors and the eta file, exact reduced-cost recomputation, and the
//! pivotal-row pass.

use super::engine::{Engine, Exact, VarState};
use super::pricing::NOT_LISTED;
use crate::sparse::{CscMatrix, WorkVec};

/// Builds the flat CSR row mirror (column indices per row) of `a`. Filling
/// in ascending column order keeps each row's list sorted, so the
/// pivotal-row pass visits columns in the same order a dense scan would.
pub(super) fn build_row_mirror(a: &CscMatrix) -> (Vec<usize>, Vec<u32>) {
    let m = a.nrows();
    let mut csr_ptr = vec![0usize; m + 1];
    for j in 0..a.ncols() {
        let (rows, _) = a.col(j);
        for &r in rows {
            csr_ptr[r as usize + 1] += 1;
        }
    }
    for r in 0..m {
        csr_ptr[r + 1] += csr_ptr[r];
    }
    let mut csr_cols = vec![0u32; a.nnz()];
    let mut fill = csr_ptr.clone();
    for j in 0..a.ncols() {
        let (rows, _) = a.col(j);
        for &r in rows {
            csr_cols[fill[r as usize]] = j as u32;
            fill[r as usize] += 1;
        }
    }
    (csr_ptr, csr_cols)
}

/// Visits the entries of `w` in ascending index order: the sorted pattern
/// when tracked, every slot of a result flagged dense. Pattern order equals
/// the dense scan order restricted to (potential) nonzeros, so consumers
/// behave identically in both modes.
#[inline]
pub(super) fn for_each_entry(w: &WorkVec, mut f: impl FnMut(usize, f64)) {
    if w.is_dense() {
        for (pos, &wp) in w.values.iter().enumerate() {
            f(pos, wp);
        }
    } else {
        for &p in &w.pattern {
            f(p as usize, w.values[p as usize]);
        }
    }
}

impl Engine {
    /// Solves `B' y = c` for a basis-position-indexed dense `c`, leaving
    /// the row-indexed result in place.
    pub(super) fn btran_pos_dense(&mut self, c: &mut [f64]) {
        self.etas.btran(c);
        #[expect(
            clippy::expect_used,
            reason = "invariant: solve() refactorizes before any pricing pass, so an LU is always installed here"
        )]
        self.lu
            .as_ref()
            .expect("invariant: LU installed before btran")
            .btran(c, &mut self.work_pos);
    }

    /// Sparse twin of [`Self::btran_pos_dense`] for a unit right-hand side:
    /// `ρ = B⁻ᵀ e_pos` into the engine-owned, pattern-tracked `rho` arena
    /// (row-indexed), bit-identical to the dense solve up to the sign of
    /// cancelled zeros (every consumer guards with magnitude tests).
    pub(super) fn btran_pos_sparse(&mut self, pos: usize) {
        let mut c = std::mem::take(&mut self.rho);
        c.clear();
        c.set(pos as u32, 1.0);
        // The eta pass reads only the pivotal positions. Forced-dense
        // oracle mode (`kernel_cap == 0`) runs the full gather instead, so
        // the oracle shares none of that; its dense LU pass below reads
        // every value and drops the pattern.
        if self.kernel_cap > 0 {
            self.etas.btran_unit(&mut c);
        } else {
            self.etas.btran(&mut c.values);
        }
        let mut s = std::mem::take(&mut self.lu_scratch);
        #[expect(
            clippy::expect_used,
            reason = "invariant: solve() refactorizes before any pricing pass, so an LU is always installed here"
        )]
        self.lu
            .as_ref()
            .expect("invariant: LU installed before btran")
            .btran_sparse(&mut c, &mut s, self.kernel_cap);
        self.lu_scratch = s;
        self.rho = c;
    }

    /// The pivotal-row pass, run once per basis-changing pivot: `ρ = B⁻ᵀ
    /// e_pos`, then `(j, α_j = ρ·a_j)` into `row_alpha` for every nonbasic,
    /// non-fixed column `j` other than the entering `q` with an entry in
    /// one of ρ's nonzero rows, in no particular order.
    pub(super) fn pivotal_row(&mut self, pos: usize, q: usize) {
        self.btran_pos_sparse(pos);
        let rho = std::mem::take(&mut self.rho);
        self.stats.btran_ops += 1;
        self.stats.btran_nnz += rho.nnz() as u64;
        if rho.is_dense() {
            self.stats.btran_dense_fallbacks += 1;
        }

        // Touch only columns that intersect rho's nonzero rows. A column
        // met in several such rows is listed once (its bit in `col_words`
        // marks it). Every consumer of the list is order-free: the
        // reduced-cost and weight updates are per column, and pricing
        // breaks ties by column index.
        let mut touched = std::mem::take(&mut self.touched);
        let mut words = std::mem::take(&mut self.col_words);
        touched.clear();
        if rho.is_dense() {
            for (r, &rv) in rho.values.iter().enumerate() {
                if rv.abs() <= 1e-12 {
                    continue;
                }
                self.push_row_cols(r, q, &mut touched, &mut words);
            }
        } else {
            for &r in &rho.pattern {
                let r = r as usize;
                if rho.values[r].abs() <= 1e-12 {
                    continue;
                }
                self.push_row_cols(r, q, &mut touched, &mut words);
            }
        }
        // Every set bit is a listed column's: zero their words.
        for &jc in &touched {
            words[jc as usize >> 6] = 0;
        }
        self.col_words = words;
        self.stats.pivot_row_nnz += touched.len() as u64;

        // Column-wise gather: the same FP summation order as a dense
        // pricing pass (a row-wise scatter would reorder it).
        let mut row_alpha = std::mem::take(&mut self.row_alpha);
        row_alpha.clear();
        for &jc in &touched {
            row_alpha.push((jc, self.std.a.col_dot(jc as usize, &rho.values)));
        }
        self.row_alpha = row_alpha;
        self.touched = touched;
        self.rho = rho;
    }

    /// Appends to `out` the nonbasic, non-`q` columns with an entry in row
    /// `r` (one pivotal-row pricing probe, via the CSR mirror) that an
    /// earlier row has not already put there: a listed column's bit is set
    /// in `words`, which the caller clears again.
    #[inline]
    pub(super) fn push_row_cols(&self, r: usize, q: usize, out: &mut Vec<u32>, words: &mut [u64]) {
        for &jc in &self.csr_cols[self.csr_ptr[r]..self.csr_ptr[r + 1]] {
            let j = jc as usize;
            match self.state[j] {
                VarState::Basic(_) | VarState::Fixed => continue,
                _ => {}
            }
            let (word, bit) = (&mut words[j >> 6], 1u64 << (j & 63));
            if j == q || *word & bit != 0 {
                continue;
            }
            *word |= bit;
            out.push(jc);
        }
    }

    /// Computes `y` with `B' y = c_B` into the engine-owned `dual` buffer.
    pub(super) fn compute_duals(&mut self) {
        let mut c = std::mem::take(&mut self.dual);
        c.fill(0.0);
        for (pos, &j) in self.basis.iter().enumerate() {
            c[pos] = self.cost[j];
        }
        self.btran_pos_dense(&mut c);
        self.dual = c;
    }

    /// Recomputes every reduced cost exactly from the current basis, and
    /// with them the eligible set pricing reads. Every phase start and
    /// refactorization comes through here, so whatever moved states or
    /// bounds outside the pivot loop is picked up before the next pricing
    /// call.
    pub(super) fn recompute_reduced(&mut self) {
        self.compute_duals();
        self.elig.clear();
        for j in 0..self.std.ncols() {
            self.d[j] = match self.state[j] {
                VarState::Basic(_) | VarState::Fixed => 0.0,
                _ => self.cost[j] - self.std.a.col_dot(j, &self.dual),
            };
            // The set is being rebuilt from empty: a member goes on the
            // end, everything else is simply not listed.
            self.elig_slot[j] = if self.eligible_dir(j).is_some() {
                let slot = self.elig.len() as u32;
                self.elig.push(j as u32);
                slot
            } else {
                NOT_LISTED
            };
        }
        if self.exact >= Exact::Basics {
            debug_assert!(self.etas.is_empty(), "exact basics on a non-empty eta file");
            self.exact = Exact::Reduced;
        }
    }

    /// FTRAN of column `q` through LU and the eta file into the
    /// engine-owned `ftran_w` arena: `w = B^{-1} a_q`, basis-position
    /// indexed, pattern sorted ascending (or flagged dense past the
    /// density threshold). Bit-identical to the dense pass up to the sign
    /// of cancelled zeros, which every consumer guards away.
    pub(super) fn ftran_entering(&mut self, q: usize) {
        let mut rhs = std::mem::take(&mut self.ftran_rhs);
        let (rows, vals) = self.std.a.col(q);
        rhs.load(rows, vals);
        let mut w = std::mem::take(&mut self.ftran_w);
        let mut s = std::mem::take(&mut self.lu_scratch);
        #[expect(
            clippy::expect_used,
            reason = "invariant: solve() refactorizes before any ratio test, so an LU is always installed here"
        )]
        self.lu
            .as_ref()
            .expect("invariant: LU installed before ftran")
            .ftran_sparse(&mut rhs, &mut w, &mut s, self.kernel_cap);
        self.etas.ftran(&mut w);
        self.stats.ftran_ops += 1;
        self.stats.ftran_nnz += w.nnz() as u64;
        if w.is_dense() {
            self.stats.ftran_dense_fallbacks += 1;
        }
        self.ftran_rhs = rhs;
        self.lu_scratch = s;
        self.ftran_w = w;
    }
}
