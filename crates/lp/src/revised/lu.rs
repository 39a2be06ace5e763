//! Sparse LU factorization of a simplex basis.
//!
//! Gilbert–Peierls left-looking factorization with row partial pivoting and a
//! sparsest-column-first processing order. Produces `P B Q = L U` where `P`
//! is the row pivot order, `Q` the column processing order, `L` unit lower
//! triangular and `U` upper triangular (both in pivot-position space). The
//! factors live in flat column-compressed arenas that [`Lu::refactor`]
//! overwrites in place, so a steady-state refactorization allocates nothing
//! and a clone copies a fixed handful of vectors.

use crate::sparse::{sort_words, CscMatrix, WorkVec};

const NONE: u32 = u32::MAX;

/// The factors of a basis matrix, plus the permutations.
#[derive(Debug, Clone, Default)]
pub(crate) struct Lu {
    m: usize,
    /// `row_perm[step] = original row pivoted at that step`.
    row_perm: Vec<u32>,
    /// Inverse of `row_perm`.
    row_pos: Vec<u32>,
    /// `col_order[step] = basis position processed at that step`.
    col_order: Vec<u32>,
    /// Inverse of `col_order`: basis position → step.
    col_pos: Vec<u32>,
    /// L by step, unit diagonal implicit: column `p` is the arena slice
    /// `l_ptr[p]..l_ptr[p + 1]` of `l_row` (original row), `l_step` (the
    /// step that row is pivoted at, always later than `p`) and `l_val`.
    l_ptr: Vec<usize>,
    l_row: Vec<u32>,
    l_step: Vec<u32>,
    l_val: Vec<f64>,
    /// U off-diagonals by step: column `j` is `u_ptr[j]..u_ptr[j + 1]` of
    /// `u_idx` (an earlier step) and `u_val`.
    u_ptr: Vec<usize>,
    u_idx: Vec<u32>,
    u_val: Vec<f64>,
    /// U diagonal (the pivots) by step.
    u_diag: Vec<f64>,
    /// Transposed U pattern: for step `p`, the later steps whose U column
    /// hits it — the steps a nonzero at `p` feeds in the BTRAN U'-solve.
    ut: Transposed,
    /// Transposed L pattern in step space: for step `q`, the earlier steps
    /// whose L column contains the row pivoted at `q` — the steps a nonzero
    /// at `q` feeds in the BTRAN L'-solve.
    lt: Transposed,
    /// [`Self::refactor`]'s scratch, kept so it allocates nothing once it has
    /// run at this dimension: the dense accumulator by original row (zero
    /// between calls), its membership flags and pattern, the DFS stack and
    /// topological order, the counting sort's and the transposes' counters.
    work: Vec<f64>,
    visited: Vec<bool>,
    pattern: Vec<u32>,
    dfs: Vec<(u32, usize)>,
    topo: Vec<u32>,
    count: Vec<usize>,
}

/// For each step an ascending list of other steps, in compressed form: the
/// transpose of a step-indexed column pattern.
#[derive(Debug, Clone, Default)]
struct Transposed {
    ptr: Vec<usize>,
    idx: Vec<u32>,
}

impl Transposed {
    #[inline]
    fn of(&self, step: usize) -> &[u32] {
        &self.idx[self.ptr[step]..self.ptr[step + 1]]
    }

    /// Rebuilds as the transpose of the columns `idx[ptr[j]..ptr[j + 1]]`:
    /// step `i`'s list names the columns holding `i`.
    fn rebuild(&mut self, ptr: &[usize], idx: &[u32], fill: &mut Vec<usize>) {
        let m = ptr.len() - 1;
        self.ptr.clear();
        self.ptr.resize(m + 1, 0);
        for &i in idx {
            self.ptr[i as usize + 1] += 1;
        }
        for i in 0..m {
            self.ptr[i + 1] += self.ptr[i];
        }
        fill.clear();
        fill.extend_from_slice(&self.ptr[..m]);
        self.idx.clear();
        self.idx.resize(idx.len(), 0);
        for col in 0..m {
            for &i in &idx[ptr[col]..ptr[col + 1]] {
                self.idx[fill[i as usize]] = col as u32;
                fill[i as usize] += 1;
            }
        }
    }
}

/// Reusable scratch for the sparse triangular solves, owned by the caller so
/// steady-state pivots allocate nothing. Both buffers are step-indexed and
/// all-zero between calls.
#[derive(Debug, Clone, Default)]
pub(crate) struct LuScratch {
    vals: Vec<f64>,
    /// One bit per step: the steps a solve has yet to visit.
    words: Vec<u64>,
}

impl LuScratch {
    /// Scratch for an `m`-row basis, pre-sized so no later call grows it.
    pub fn new(m: usize) -> Self {
        LuScratch {
            vals: vec![0.0; m],
            words: sort_words(m),
        }
    }
}

/// The lowest marked step at or above `from`, looking no further than word
/// `hi`. Re-reads the word `from` sits in, so a mark set just ahead of the
/// sweep is found.
#[inline]
fn lowest_from(words: &[u64], hi: usize, from: usize) -> Option<usize> {
    let mut w = from >> 6;
    if w > hi {
        return None;
    }
    let mut bits = words[w] & (!0u64 << (from & 63));
    while bits == 0 {
        w += 1;
        if w > hi {
            return None;
        }
        bits = words[w];
    }
    Some((w << 6) | bits.trailing_zeros() as usize)
}

/// The highest marked step below `end`, looking no further than word `lo`.
#[inline]
fn highest_below(words: &[u64], lo: usize, end: usize) -> Option<usize> {
    let last = end.checked_sub(1)?;
    let mut w = last >> 6;
    if w < lo {
        return None;
    }
    let mut bits = words[w] & (!0u64 >> (63 - (last & 63)));
    while bits == 0 {
        if w == lo {
            return None;
        }
        w -= 1;
        bits = words[w];
    }
    Some((w << 6) | (63 - bits.leading_zeros() as usize))
}

#[inline]
fn mark(words: &mut [u64], step: usize) {
    words[step >> 6] |= 1u64 << (step & 63);
}

#[inline]
fn unmark(words: &mut [u64], step: usize) {
    words[step >> 6] &= !(1u64 << (step & 63));
}

impl Lu {
    /// [`Self::refactor`] into fresh arenas.
    #[cfg(test)]
    pub fn factor(a: &CscMatrix, basis: &[usize], pivot_tol: f64) -> Result<Lu, usize> {
        let mut lu = Lu::default();
        lu.refactor(a, basis, pivot_tol)?;
        Ok(lu)
    }

    /// Factorizes the basis given by `basis` (column indices into `a`) into
    /// this factorization's own arenas. On structural or numerical
    /// singularity returns `Err(row)` with an original row index that could
    /// not be pivoted, so the caller can repair the basis and call again;
    /// until a call succeeds the factors are unusable.
    pub fn refactor(
        &mut self,
        a: &CscMatrix,
        basis: &[usize],
        pivot_tol: f64,
    ) -> Result<(), usize> {
        let m = basis.len();
        assert_eq!(a.nrows(), m, "basis size must equal row count");
        self.m = m;

        // Process sparsest columns first: cheap Markowitz-style ordering that
        // keeps the mostly-singleton scheduling bases near-diagonal. A stable
        // counting sort on the column counts orders by `(col_nnz, position)`.
        self.count.clear();
        self.count.resize(m + 2, 0);
        for &j in basis {
            self.count[a.col_nnz(j) + 1] += 1;
        }
        for c in 0..=m {
            self.count[c + 1] += self.count[c];
        }
        self.col_order.clear();
        self.col_order.resize(m, 0);
        for (p, &j) in basis.iter().enumerate() {
            let slot = &mut self.count[a.col_nnz(j)];
            self.col_order[*slot] = p as u32;
            *slot += 1;
        }

        for perm in [&mut self.row_perm, &mut self.row_pos] {
            perm.clear();
            perm.resize(m, NONE);
        }
        for ptr in [&mut self.l_ptr, &mut self.u_ptr] {
            ptr.clear();
            ptr.reserve(m + 1);
            ptr.push(0);
        }
        self.l_row.clear();
        self.l_val.clear();
        self.u_idx.clear();
        self.u_val.clear();
        self.u_diag.clear();
        self.u_diag.reserve(m);
        // Accumulator by original row, its pattern, DFS scratch: all within `m`.
        self.work.resize(m, 0.0);
        self.visited.resize(m, false);
        for list in [&mut self.pattern, &mut self.topo] {
            list.clear();
            list.reserve(m);
        }
        self.dfs.reserve(m);

        for step in 0..m {
            let bcol = basis[self.col_order[step] as usize];
            let (rows, vals) = a.col(bcol);

            // Symbolic: reach of the column pattern through L.
            self.pattern.clear();
            self.topo.clear();
            for &r in rows {
                if self.visited[r as usize] {
                    continue;
                }
                self.dfs.push((r, 0));
                self.visited[r as usize] = true;
                self.pattern.push(r);
                while let Some(&mut (node, ref mut child)) = self.dfs.last_mut() {
                    let p = self.row_pos[node as usize];
                    if p == NONE {
                        self.dfs.pop();
                        continue;
                    }
                    let k = self.l_ptr[p as usize] + *child;
                    if k < self.l_ptr[p as usize + 1] {
                        let next = self.l_row[k];
                        *child += 1;
                        if !self.visited[next as usize] {
                            self.visited[next as usize] = true;
                            self.pattern.push(next);
                            self.dfs.push((next, 0));
                        }
                    } else {
                        self.dfs.pop();
                        self.topo.push(p);
                    }
                }
            }

            // Numeric: scatter and eliminate in topological order.
            for (&r, &v) in rows.iter().zip(vals) {
                self.work[r as usize] = v;
            }
            for &p in self.topo.iter().rev() {
                let p = p as usize;
                let v = self.work[self.row_perm[p] as usize];
                // lint: allow(float-eq, reason = "exact-zero skip is a sparsity guard: skipping true zeros never changes the arithmetic")
                if v != 0.0 {
                    let (lo, hi) = (self.l_ptr[p], self.l_ptr[p + 1]);
                    for (&r, &lv) in self.l_row[lo..hi].iter().zip(&self.l_val[lo..hi]) {
                        self.work[r as usize] -= lv * v;
                    }
                }
            }

            // Pivot: largest magnitude among unpivoted rows in the pattern.
            let mut piv_row = NONE;
            let mut piv_val = 0.0_f64;
            for &r in self.pattern.iter() {
                if self.row_pos[r as usize] == NONE {
                    let v = self.work[r as usize];
                    if v.abs() > piv_val.abs() {
                        piv_val = v;
                        piv_row = r;
                    }
                }
            }
            if piv_row == NONE || piv_val.abs() <= pivot_tol {
                // Singular: report some still-unpivoted row for repair.
                let bad = (0..m).find(|&r| self.row_pos[r] == NONE).unwrap_or(0);
                // Reset accumulator before bailing.
                for &r in self.pattern.iter() {
                    self.work[r as usize] = 0.0;
                    self.visited[r as usize] = false;
                }
                return Err(bad);
            }

            // Gather U (pivoted part) and L (unpivoted part) of the column.
            for &r in self.pattern.iter() {
                let v = self.work[r as usize];
                let p = self.row_pos[r as usize];
                if p != NONE {
                    // lint: allow(float-eq, reason = "exact-zero skip is a sparsity guard: skipping true zeros never changes the arithmetic")
                    if v != 0.0 {
                        self.u_idx.push(p);
                        self.u_val.push(v);
                    }
                // lint: allow(float-eq, reason = "exact-zero skip is a sparsity guard: skipping true zeros never changes the arithmetic")
                } else if r != piv_row && v != 0.0 {
                    self.l_row.push(r);
                    self.l_val.push(v / piv_val);
                }
                self.work[r as usize] = 0.0;
                self.visited[r as usize] = false;
            }
            self.u_ptr.push(self.u_idx.len());
            self.l_ptr.push(self.l_row.len());
            self.u_diag.push(piv_val);
            self.row_perm[step] = piv_row;
            self.row_pos[piv_row as usize] = step as u32;
        }

        // Inverse column permutation, the step each L row is pivoted at, and
        // the two transposed patterns the sparse BTRAN marks through. The L
        // side needs the *final* `row_pos`, so none of this can happen
        // inside the elimination loop.
        self.col_pos.clear();
        self.col_pos.resize(m, 0);
        for (step, &p) in self.col_order.iter().enumerate() {
            self.col_pos[p as usize] = step as u32;
        }
        self.l_step.clear();
        self.l_step
            .extend(self.l_row.iter().map(|&r| self.row_pos[r as usize]));
        self.ut.rebuild(&self.u_ptr, &self.u_idx, &mut self.count);
        self.lt.rebuild(&self.l_ptr, &self.l_step, &mut self.count);
        Ok(())
    }

    /// Pre-grows the factor arenas by `extra` entries each, so later
    /// refactorizations with that much more fill do not allocate (the
    /// allocation-free probe harness).
    pub fn reserve(&mut self, extra: usize) {
        self.l_row.reserve(extra);
        self.l_step.reserve(extra);
        self.l_val.reserve(extra);
        self.lt.idx.reserve(extra);
        self.u_idx.reserve(extra);
        self.u_val.reserve(extra);
        self.ut.idx.reserve(extra);
    }

    /// Entry count of the factors: L and U off-diagonals plus the `m`
    /// diagonal pivots. One FTRAN/BTRAN pass touches every entry once, so
    /// this is the per-pass cost unit the refactorization cost model
    /// weighs the eta file against.
    pub fn nnz(&self) -> usize {
        self.l_val.len() + self.u_val.len() + self.m
    }

    /// Extends the factorization in place for `k` rows appended to the
    /// basis, where position `m + i` holds the new row's activity column
    /// (a single `-1.0` in row `m + i`) — exactly the shape `append_rows`
    /// creates. Each new step pivots row `m + i` at position `m + i` with
    /// pivot `-1.0` and empty off-diagonals, so the result factors the
    /// bordered matrix `diag(B, -I)`. Couplings of *old* basic columns
    /// into the new rows are not represented, so the caller only extends
    /// when the new rows have no entries on existing columns.
    pub fn extend_rows(&mut self, k: usize) {
        let m0 = self.m;
        for i in 0..k {
            // lint: allow(lossy-cast, reason = "row indices are bounded by the CSR u32 index width by construction")
            let step = (m0 + i) as u32;
            self.row_perm.push(step);
            self.row_pos.push(step);
            self.col_order.push(step);
            self.col_pos.push(step);
            self.u_diag.push(-1.0);
        }
        for ptr in [
            &mut self.l_ptr,
            &mut self.u_ptr,
            &mut self.ut.ptr,
            &mut self.lt.ptr,
        ] {
            let last = ptr[m0];
            ptr.resize(m0 + k + 1, last);
        }
        self.m = m0 + k;
    }

    /// Deliberately damages the factors (test hook for the reuse residual
    /// guard; see `SolverSession::debug_corrupt_factorization`).
    #[doc(hidden)]
    pub fn corrupt_for_test(&mut self) {
        if let Some(d) = self.u_diag.first_mut() {
            *d *= 1.5;
        }
    }

    /// Solves `B x = rhs`.
    ///
    /// `rhs_by_row` is dense, indexed by original row, and is destroyed.
    /// `out_by_pos` receives `x` indexed by basis position.
    pub fn ftran(&self, rhs_by_row: &mut [f64], out_by_pos: &mut [f64]) {
        let m = self.m;
        debug_assert_eq!(rhs_by_row.len(), m);
        debug_assert_eq!(out_by_pos.len(), m);
        // L y = P rhs.
        for p in 0..m {
            let v = rhs_by_row[self.row_perm[p] as usize];
            // lint: allow(float-eq, reason = "exact-zero skip is a sparsity guard: skipping true zeros never changes the arithmetic")
            if v != 0.0 {
                let (lo, hi) = (self.l_ptr[p], self.l_ptr[p + 1]);
                for (&r, &lv) in self.l_row[lo..hi].iter().zip(&self.l_val[lo..hi]) {
                    rhs_by_row[r as usize] -= lv * v;
                }
            }
            out_by_pos[p] = v;
        }
        // U z = y (back substitution, in place in out_by_pos).
        for j in (0..m).rev() {
            let z = out_by_pos[j] / self.u_diag[j];
            out_by_pos[j] = z;
            // lint: allow(float-eq, reason = "exact-zero skip is a sparsity guard: skipping true zeros never changes the arithmetic")
            if z != 0.0 {
                let (lo, hi) = (self.u_ptr[j], self.u_ptr[j + 1]);
                for (&p, &uv) in self.u_idx[lo..hi].iter().zip(&self.u_val[lo..hi]) {
                    out_by_pos[p as usize] -= uv * z;
                }
            }
        }
        // Undo the column permutation: x[col_order[j]] = z_j.
        rhs_by_row[..m].copy_from_slice(&out_by_pos[..m]);
        for j in 0..m {
            out_by_pos[self.col_order[j] as usize] = rhs_by_row[j];
        }
        // Leave rhs clean for reuse as a scratch row vector.
        rhs_by_row[..m].fill(0.0);
    }

    /// Solves `B' y = c`.
    ///
    /// `c` comes in indexed by basis position and leaves indexed by original
    /// row. `scratch` must have length `m`.
    pub fn btran(&self, c: &mut [f64], scratch: &mut [f64]) {
        let m = self.m;
        debug_assert_eq!(c.len(), m);
        debug_assert!(scratch.len() >= m);
        // Apply the column permutation: cq[j] = c[col_order[j]].
        for j in 0..m {
            scratch[j] = c[self.col_order[j] as usize];
        }
        // U' w = cq (forward, since U' is lower triangular).
        for j in 0..m {
            let mut acc = scratch[j];
            let (lo, hi) = (self.u_ptr[j], self.u_ptr[j + 1]);
            for (&p, &uv) in self.u_idx[lo..hi].iter().zip(&self.u_val[lo..hi]) {
                acc -= uv * scratch[p as usize];
            }
            scratch[j] = acc / self.u_diag[j];
        }
        // L' v = w (backward, unit diagonal).
        for p in (0..m).rev() {
            let mut acc = scratch[p];
            let (lo, hi) = (self.l_ptr[p], self.l_ptr[p + 1]);
            for (&q, &lv) in self.l_step[lo..hi].iter().zip(&self.l_val[lo..hi]) {
                acc -= lv * scratch[q as usize];
            }
            scratch[p] = acc;
        }
        // y[row_perm[p]] = v_p.
        for p in 0..m {
            c[self.row_perm[p] as usize] = scratch[p];
        }
    }

    /// Sparse FTRAN: solves `B x = rhs` in one sweep per triangular solve,
    /// visiting only the steps that hold a nonzero.
    ///
    /// `rhs` is row-indexed and consumed (left cleared); `out` receives `x`
    /// by basis position, its pattern exactly the nonzeros in no particular
    /// order, or flagged dense when there are more than `cap` of them.
    /// `s.words` holds one mark per step still to visit: the rhs pattern
    /// sets the first, the L-solve takes the lowest mark and the U
    /// back-substitution the highest, each does that step's arithmetic
    /// exactly as [`Self::ftran`] does, and a nonzero result marks the steps
    /// it scatters into. Triangularity puts those strictly ahead of the
    /// sweep, so the marks *are* the step order. An unmarked step holds an
    /// exact zero, which the dense loop skips too: the result is
    /// bit-identical to [`Self::ftran`] up to the sign of cancelled zeros,
    /// which no consumer observes (every use is guarded by `!= 0` or
    /// magnitude tests). A dense `rhs` or `cap == 0` runs the dense kernel.
    pub fn ftran_sparse(
        &self,
        rhs: &mut WorkVec,
        out: &mut WorkVec,
        s: &mut LuScratch,
        cap: usize,
    ) {
        debug_assert_eq!(rhs.len(), self.m);
        debug_assert_eq!(out.len(), self.m);
        debug_assert_eq!(s.vals.len(), self.m);
        out.clear();
        if rhs.is_dense() || cap == 0 {
            self.ftran(&mut rhs.values, &mut out.values);
            rhs.clear();
            out.make_dense();
            return;
        }
        let (vals, words) = (&mut s.vals[..], &mut s.words[..]);
        // Move the rhs into step space, marking its steps; `lo..=hi` is the
        // word span the marks cover (`lo > hi`: none). The rhs is spent.
        let (mut lo, mut hi) = (usize::MAX, 0);
        for &r in &rhs.pattern {
            let p = self.row_pos[r as usize] as usize;
            vals[p] = rhs.values[r as usize];
            mark(words, p);
            (lo, hi) = (lo.min(p >> 6), hi.max(p >> 6));
        }
        rhs.clear();

        // L-solve, ascending. A step left at zero drops its mark, so what
        // stays marked is the nonzero set the U-solve starts from.
        let mut at = lo.saturating_mul(64);
        while let Some(p) = lowest_from(words, hi, at) {
            at = p + 1;
            let v = vals[p];
            // lint: allow(float-eq, reason = "exact-zero skip is a sparsity guard: skipping true zeros never changes the arithmetic")
            if v != 0.0 {
                let (k0, k1) = (self.l_ptr[p], self.l_ptr[p + 1]);
                for (&t, &lv) in self.l_step[k0..k1].iter().zip(&self.l_val[k0..k1]) {
                    let t = t as usize;
                    vals[t] -= lv * v;
                    mark(words, t);
                    hi = hi.max(t >> 6);
                }
            } else {
                vals[p] = 0.0;
                unmark(words, p);
            }
        }
        // U back-substitution, descending. Nothing writes to a step once
        // the sweep has passed it, so each is harvested (permuted to its
        // basis position) and its scratch zeroed as it is finished.
        let mut end = (hi + 1) << 6;
        while let Some(j) = highest_below(words, lo, end) {
            end = j;
            unmark(words, j);
            let z = vals[j] / self.u_diag[j];
            vals[j] = 0.0;
            // lint: allow(float-eq, reason = "exact-zero skip is a sparsity guard: skipping true zeros never changes the arithmetic")
            if z != 0.0 {
                out.set(self.col_order[j], z);
                let (k0, k1) = (self.u_ptr[j], self.u_ptr[j + 1]);
                for (&p, &uv) in self.u_idx[k0..k1].iter().zip(&self.u_val[k0..k1]) {
                    let p = p as usize;
                    vals[p] -= uv * z;
                    mark(words, p);
                    lo = lo.min(p >> 6);
                }
            }
        }
        if out.pattern.len() > cap {
            out.make_dense();
        }
    }

    /// Sparse BTRAN: solves `B' y = c` by the same two marked sweeps as
    /// [`Self::ftran_sparse`], through the transposed patterns.
    ///
    /// `c` comes in indexed by basis position and leaves indexed by
    /// original row, flagged dense when it has more than `cap` nonzeros.
    /// Unlike FTRAN these solves are *gathers*: a visited step accumulates
    /// over its full stored column in stored order — term-for-term the
    /// dense arithmetic (absent terms are exact zeros) — and a nonzero
    /// result marks the steps whose columns hold it (`ut`, `lt`).
    /// A step nothing marked gathers only exact zeros. So the result is
    /// bit-identical to [`Self::btran`] up to the sign of cancelled zeros.
    pub fn btran_sparse(&self, c: &mut WorkVec, s: &mut LuScratch, cap: usize) {
        debug_assert_eq!(c.len(), self.m);
        debug_assert_eq!(s.vals.len(), self.m);
        if c.is_dense() || cap == 0 {
            self.btran(&mut c.values, &mut s.vals);
            s.vals.fill(0.0);
            c.make_dense();
            return;
        }
        let (vals, words) = (&mut s.vals[..], &mut s.words[..]);
        // Move the input into step space, marking its steps, and clear `c`
        // for reuse as the row-indexed output.
        let (mut lo, mut hi) = (usize::MAX, 0);
        for &pos in &c.pattern {
            let j = self.col_pos[pos as usize] as usize;
            vals[j] = c.values[pos as usize];
            mark(words, j);
            (lo, hi) = (lo.min(j >> 6), hi.max(j >> 6));
        }
        c.clear();

        // Forward U'-solve, ascending.
        let mut at = lo.saturating_mul(64);
        while let Some(j) = lowest_from(words, hi, at) {
            at = j + 1;
            let mut acc = vals[j];
            let (k0, k1) = (self.u_ptr[j], self.u_ptr[j + 1]);
            for (&p, &uv) in self.u_idx[k0..k1].iter().zip(&self.u_val[k0..k1]) {
                acc -= uv * vals[p as usize];
            }
            let w = acc / self.u_diag[j];
            // lint: allow(float-eq, reason = "exact-zero skip is a sparsity guard: skipping true zeros never changes the arithmetic")
            if w != 0.0 {
                vals[j] = w;
                for &t in self.ut.of(j) {
                    let t = t as usize;
                    mark(words, t);
                    hi = hi.max(t >> 6);
                }
            } else {
                vals[j] = 0.0;
                unmark(words, j);
            }
        }
        // Backward L'-solve, descending: each step gathers from the finished
        // part of the row-indexed output (`y[row_perm[q]]` is step `q`'s
        // result) and is harvested straight into it.
        let mut end = (hi + 1) << 6;
        while let Some(p) = highest_below(words, lo, end) {
            end = p;
            unmark(words, p);
            let mut acc = vals[p];
            vals[p] = 0.0;
            let (k0, k1) = (self.l_ptr[p], self.l_ptr[p + 1]);
            for (&r, &lv) in self.l_row[k0..k1].iter().zip(&self.l_val[k0..k1]) {
                acc -= lv * c.values[r as usize];
            }
            // lint: allow(float-eq, reason = "exact-zero skip is a sparsity guard: skipping true zeros never changes the arithmetic")
            if acc != 0.0 {
                c.set(self.row_perm[p], acc);
                for &q in self.lt.of(p) {
                    let q = q as usize;
                    mark(words, q);
                    lo = lo.min(q >> 6);
                }
            }
        }
        if c.pattern.len() > cap {
            c.make_dense();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::CscMatrix;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Builds a CSC matrix whose columns are exactly the basis columns.
    fn mat(cols: &[Vec<(u32, f64)>], m: usize) -> (CscMatrix, Vec<usize>) {
        let mut a = CscMatrix::from_triplets(m, 0, []);
        for c in cols {
            a.push_col(c);
        }
        (a, (0..cols.len()).collect())
    }

    fn mul(a: &CscMatrix, basis: &[usize], x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; a.nrows()];
        for (pos, &j) in basis.iter().enumerate() {
            a.col_axpy(j, x[pos], &mut y);
        }
        y
    }

    #[test]
    fn identity_roundtrip() {
        let cols: Vec<Vec<(u32, f64)>> = (0..4).map(|i| vec![(i as u32, 1.0)]).collect();
        let (a, basis) = mat(&cols, 4);
        let lu = Lu::factor(&a, &basis, 1e-12).unwrap();
        let mut rhs = vec![1.0, 2.0, 3.0, 4.0];
        let mut x = vec![0.0; 4];
        lu.ftran(&mut rhs, &mut x);
        assert_eq!(x, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn dense_3x3_ftran_btran() {
        // B = [[2,1,0],[1,3,1],[0,1,4]] as columns.
        let cols = vec![
            vec![(0, 2.0), (1, 1.0)],
            vec![(0, 1.0), (1, 3.0), (2, 1.0)],
            vec![(1, 1.0), (2, 4.0)],
        ];
        let (a, basis) = mat(&cols, 3);
        let lu = Lu::factor(&a, &basis, 1e-12).unwrap();

        let want = vec![0.5, -1.5, 2.0];
        let rhs0 = mul(&a, &basis, &want);
        let mut rhs = rhs0.clone();
        let mut x = vec![0.0; 3];
        lu.ftran(&mut rhs, &mut x);
        for (xi, wi) in x.iter().zip(&want) {
            assert!((xi - wi).abs() < 1e-12, "{x:?} vs {want:?}");
        }

        // BTRAN: y such that B' y = c  <=>  y' B = c'.
        let mut c = vec![1.0, 0.0, -2.0];
        let mut scratch = vec![0.0; 3];
        lu.btran(&mut c, &mut scratch);
        // Check y' * B columns == original c.
        let y = c;
        let orig = [1.0, 0.0, -2.0];
        for (pos, col) in cols.iter().enumerate() {
            let mut acc = 0.0;
            for &(r, v) in col {
                acc += y[r as usize] * v;
            }
            assert!((acc - orig[pos]).abs() < 1e-12);
        }
    }

    #[test]
    fn permuted_diagonal() {
        // Columns hit rows out of order; forces pivoting bookkeeping.
        let cols = vec![vec![(2, 5.0)], vec![(0, -3.0)], vec![(1, 2.0)]];
        let (a, basis) = mat(&cols, 3);
        let lu = Lu::factor(&a, &basis, 1e-12).unwrap();
        let want = vec![1.0, 2.0, 3.0];
        let mut rhs = mul(&a, &basis, &want);
        let mut x = vec![0.0; 3];
        lu.ftran(&mut rhs, &mut x);
        for (xi, wi) in x.iter().zip(&want) {
            assert!((xi - wi).abs() < 1e-12);
        }
    }

    #[test]
    fn singular_reports_row() {
        // Two identical columns: structurally singular.
        let cols = vec![vec![(0, 1.0), (1, 1.0)], vec![(0, 1.0), (1, 1.0)]];
        let (a, basis) = mat(&cols, 2);
        assert!(Lu::factor(&a, &basis, 1e-12).is_err());
    }

    /// A random basis: a dominant diagonal plus off-diagonal entries with
    /// probability `fill` each.
    fn random_cols(rng: &mut StdRng, m: usize, fill: f64) -> Vec<Vec<(u32, f64)>> {
        let mut cols = Vec::new();
        for j in 0..m {
            let mut col = vec![(j as u32, 1.0 + rng.random_range(0.0..4.0))];
            for r in 0..m {
                if r != j && rng.random_range(0.0..1.0) < fill {
                    col.push((r as u32, rng.random_range(-1.0..1.0)));
                }
            }
            col.sort_unstable_by_key(|e| e.0);
            cols.push(col);
        }
        cols
    }

    /// A multi-entry right-hand side in step space, with one explicit
    /// `0.0` entry: over `lo..hi` its two ends, its middle and three random
    /// steps. The callers pass the whole basis (the last step sits in the
    /// final, partial bitmap word) and its first and last 64 steps alone,
    /// so each sweep has to carry its marks into words no seed touched.
    fn random_rhs(rng: &mut StdRng, lo: usize, hi: usize) -> Vec<(usize, f64)> {
        let mut at = vec![lo, (lo + hi) / 2, hi - 1];
        at.extend((0..3).map(|_| rng.random_range(lo..hi)));
        at.sort_unstable();
        at.dedup();
        let zero = rng.random_range(0..at.len());
        let mut rhs: Vec<(usize, f64)> = at
            .iter()
            .map(|&i| (i, rng.random_range(-2.0..2.0)))
            .collect();
        if rhs.len() > 1 {
            rhs[zero].1 = 0.0;
        }
        rhs
    }

    /// `got` against the dense kernel's `want`: nonzeros bit-equal, zeros
    /// zero (their sign is free), the pattern exactly the nonzero set, and
    /// flagged dense iff there are more than `cap` of them.
    fn assert_same(got: &WorkVec, want: &[f64], cap: usize, label: &str) {
        for (i, (&g, &w)) in got.values.iter().zip(want).enumerate() {
            if w == 0.0 {
                assert_eq!(g, 0.0, "{label} slot {i}");
            } else {
                assert_eq!(g.to_bits(), w.to_bits(), "{label} slot {i}: {g} vs {w}");
            }
        }
        let nonzero: Vec<u32> = (0..want.len() as u32)
            .filter(|&i| want[i as usize] != 0.0)
            .collect();
        assert_eq!(got.is_dense(), nonzero.len() > cap, "{label} dense flag");
        if !got.is_dense() {
            let mut pattern = got.pattern.clone();
            pattern.sort_unstable();
            assert_eq!(pattern, nonzero, "{label} pattern");
        }
    }

    /// Both sparse kernels against the dense ones on one factorization and
    /// one step-space right-hand side, at caps 0 and 1 and either side of
    /// the result's nonzero count.
    fn check_kernels(lu: &Lu, steps: &[(usize, f64)], label: &str) {
        let m = lu.m;
        let mut scratch = LuScratch::new(m);
        let clean = |s: &LuScratch| {
            s.vals.iter().all(|&v| v.to_bits() == 0) && s.words.iter().all(|&w| w == 0)
        };
        // The right-hand side as a tracked and as a dense vector, its steps
        // mapped through `index` to rows (FTRAN) or positions (BTRAN).
        let tracked = |index: &[u32]| {
            let mut w = WorkVec::new(m);
            for &(step, v) in steps {
                w.set(index[step], v);
            }
            w
        };
        let dense = |index: &[u32]| {
            let mut d = vec![0.0; m];
            for &(step, v) in steps {
                d[index[step] as usize] = v;
            }
            d
        };

        let mut want = vec![0.0; m];
        lu.ftran(&mut dense(&lu.row_perm), &mut want);
        let nnz = want.iter().filter(|&&v| v != 0.0).count();
        for cap in [0, 1, nnz - 1, nnz, nnz + 1] {
            let label = format!("{label} ftran cap {cap}");
            let (mut rhs, mut out) = (tracked(&lu.row_perm), WorkVec::new(m));
            lu.ftran_sparse(&mut rhs, &mut out, &mut scratch, cap);
            assert_same(&out, &want, cap, &label);
            // rhs handed back clean for reuse.
            assert!(rhs.pattern.is_empty() && !rhs.is_dense(), "{label}");
            assert!(rhs.values.iter().all(|&v| v == 0.0), "{label}");
            assert!(clean(&scratch), "{label}: scratch left dirty");
        }

        let mut want = dense(&lu.col_order);
        lu.btran(&mut want, &mut vec![0.0; m]);
        let nnz = want.iter().filter(|&&v| v != 0.0).count();
        for cap in [0, 1, nnz - 1, nnz, nnz + 1] {
            let label = format!("{label} btran cap {cap}");
            let mut c = tracked(&lu.col_order);
            lu.btran_sparse(&mut c, &mut scratch, cap);
            assert_same(&c, &want, cap, &label);
            assert!(clean(&scratch), "{label}: scratch left dirty");
        }
    }

    /// [`check_kernels`] seeded over the whole basis, then from its first
    /// and from its last 64 steps alone.
    fn check_factorization(lu: &Lu, rng: &mut StdRng, label: &str) {
        let m = lu.m;
        for (lo, hi) in [(0, m), (0, m.min(64)), (m.saturating_sub(64), m)] {
            let steps = random_rhs(rng, lo, hi);
            check_kernels(lu, &steps, &format!("{label} seeds {lo}..{hi}"));
        }
    }

    /// Sparse FTRAN/BTRAN must be bit-identical to the dense kernels on
    /// every nonzero (zeros may differ in sign only) and leave their
    /// scratch zeroed: on small bases (one bitmap word), on bases around
    /// and across the 64-step word boundaries, and on each again after
    /// `extend_rows`.
    #[test]
    fn sparse_kernels_match_dense_bitwise() {
        let mut rng = StdRng::seed_from_u64(42);
        let small = (0..40).map(|trial| (2 + trial % 14, 0.25));
        let multi_word = [63, 64, 65, 130, 300].map(|m| (m, 2.5 / m as f64));
        let mut checked = 0;
        for (m, fill) in small.chain(multi_word) {
            let (a, basis) = mat(&random_cols(&mut rng, m, fill), m);
            let Ok(mut lu) = Lu::factor(&a, &basis, 1e-10) else {
                continue; // genuinely singular draw
            };
            check_factorization(&lu, &mut rng, &format!("m {m}"));
            lu.extend_rows(3);
            check_factorization(&lu, &mut rng, &format!("m {m} + 3"));
            checked += 1;
        }
        assert!(checked >= 40, "only {checked} of 45 bases factored");
    }

    #[test]
    fn randomized_roundtrip() {
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..30 {
            let m = 1 + (trial % 12);
            // Random sparse nonsingular-ish matrix: diagonal + noise.
            let cols = random_cols(&mut rng, m, 0.3);
            let (a, basis) = mat(&cols, m);
            let lu = match Lu::factor(&a, &basis, 1e-10) {
                Ok(l) => l,
                Err(_) => continue, // genuinely singular draw
            };
            let want: Vec<f64> = (0..m).map(|_| rng.random_range(-5.0..5.0)).collect();
            let mut rhs = mul(&a, &basis, &want);
            let mut x = vec![0.0; m];
            lu.ftran(&mut rhs, &mut x);
            for (xi, wi) in x.iter().zip(&want) {
                assert!((xi - wi).abs() < 1e-7, "trial {trial}: {x:?} vs {want:?}");
            }
            // BTRAN consistency: y' B = c'.
            let c: Vec<f64> = (0..m).map(|_| rng.random_range(-3.0_f64..3.0)).collect();
            let mut y = c.clone();
            let mut scratch = vec![0.0; m];
            lu.btran(&mut y, &mut scratch);
            for (pos, col) in cols.iter().enumerate() {
                let mut acc = 0.0;
                for &(r, v) in col {
                    acc += y[r as usize] * v;
                }
                assert!((acc - c[pos]).abs() < 1e-7);
            }
        }
    }
}
