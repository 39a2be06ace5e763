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
    /// topological order, the counting sort's counters.
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
    fn rebuild(&mut self, ptr: &[usize], idx: &[u32]) {
        let m = ptr.len() - 1;
        // Counted two places up, so the running sum leaves list `i`'s
        // start in `ptr[i + 1]`: the cursor the fill below advances to
        // list `i + 1`'s start, which is what `ptr[i + 1]` has to end as.
        self.ptr.clear();
        self.ptr.resize(m + 2, 0);
        for &i in idx {
            self.ptr[i as usize + 2] += 1;
        }
        for i in 1..=m {
            self.ptr[i + 1] += self.ptr[i];
        }
        self.idx.clear();
        self.idx.resize(idx.len(), 0);
        // The columns in front of the first entry are empty: the one-entry
        // steps a scheduling basis opens with, nearly all of them.
        let first = ptr.partition_point(|&k| k == 0).saturating_sub(1);
        for col in first..m {
            for &i in &idx[ptr[col]..ptr[col + 1]] {
                let at = &mut self.ptr[i as usize + 1];
                self.idx[*at] = col as u32;
                *at += 1;
            }
        }
        self.ptr.truncate(m + 1);
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
        self.begin(a, basis);
        for step in 0..basis.len() {
            let (rows, vals) = a.col(basis[self.col_order[step] as usize]);
            // A one-entry column whose row is still unpivoted is its own
            // step: the reach is that row alone, nothing eliminates into
            // it, the entry is the pivot and both factor columns are empty
            // — what `eliminate` would work out for it, without the walk.
            // The scheduling bases are nearly all slack, so this is nearly
            // every step. (A pivot at or below the tolerance goes to
            // `eliminate` for the singular exit.)
            if let (&[r], &[v]) = (rows, vals) {
                if self.row_pos[r as usize] == NONE && v.abs() > pivot_tol {
                    self.u_ptr.push(self.u_idx.len());
                    self.l_ptr.push(self.l_row.len());
                    self.u_diag.push(v);
                    self.row_perm[step] = r;
                    self.row_pos[r as usize] = step as u32;
                    continue;
                }
            }
            self.eliminate(step, rows, vals, pivot_tol)?;
        }
        self.finish();
        Ok(())
    }

    /// [`Self::refactor`] with every column taken through
    /// [`Self::eliminate`] — the loop before one-entry columns had a step
    /// of their own, kept as its oracle.
    #[cfg(test)]
    fn refactor_by_elimination(
        &mut self,
        a: &CscMatrix,
        basis: &[usize],
        pivot_tol: f64,
    ) -> Result<(), usize> {
        self.begin(a, basis);
        for step in 0..basis.len() {
            let (rows, vals) = a.col(basis[self.col_order[step] as usize]);
            self.eliminate(step, rows, vals, pivot_tol)?;
        }
        self.finish();
        Ok(())
    }

    /// Fixes the processing order and empties the arenas for a
    /// factorization of `basis`.
    fn begin(&mut self, a: &CscMatrix, basis: &[usize]) {
        let m = basis.len();
        assert_eq!(a.nrows(), m, "basis size must equal row count");
        self.m = m;

        // Process sparsest columns first: a cheap Markowitz-style static
        // ordering. One-entry columns — nearly all of a scheduling basis —
        // come first and pivot on their own entry, so the columns that
        // need elimination meet an L that is still empty below them. A
        // stable counting sort on the column counts orders by
        // `(col_nnz, position)`.
        // Each position's count is read once, into `col_pos` (its own
        // content comes last, in `finish`), and the sort never looks past
        // the largest.
        self.col_pos.clear();
        self.col_pos
            .extend(basis.iter().map(|&j| a.col_nnz(j) as u32));
        let widest = self.col_pos.iter().copied().max().unwrap_or(0) as usize;
        self.count.clear();
        self.count.resize(widest + 2, 0);
        for &c in &self.col_pos {
            self.count[c as usize + 1] += 1;
        }
        for c in 0..=widest {
            self.count[c + 1] += self.count[c];
        }
        self.col_order.clear();
        self.col_order.resize(m, 0);
        for (p, &c) in self.col_pos.iter().enumerate() {
            let slot = &mut self.count[c as usize];
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
    }

    /// One left-looking step: the column `(rows, vals)` is solved against
    /// the L built so far, pivoted on its largest unpivoted entry, and
    /// gathered into the factors as step `step`. `Err(row)` as
    /// [`Self::refactor`] returns it.
    #[inline]
    fn eliminate(
        &mut self,
        step: usize,
        rows: &[u32],
        vals: &[f64],
        pivot_tol: f64,
    ) -> Result<(), usize> {
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
            let bad = (0..self.m).find(|&r| self.row_pos[r] == NONE).unwrap_or(0);
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
                if v != 0.0 {
                    self.u_idx.push(p);
                    self.u_val.push(v);
                }
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
        Ok(())
    }

    /// What only the finished elimination can give: the inverse column
    /// permutation, the step each L row is pivoted at, and the two
    /// transposed patterns the sparse BTRAN marks through (the L side
    /// needs the *final* `row_pos`).
    fn finish(&mut self) {
        let m = self.m;
        self.col_pos.clear();
        self.col_pos.resize(m, 0);
        for (step, &p) in self.col_order.iter().enumerate() {
            self.col_pos[p as usize] = step as u32;
        }
        self.l_step.clear();
        self.l_step
            .extend(self.l_row.iter().map(|&r| self.row_pos[r as usize]));
        self.ut.rebuild(&self.u_ptr, &self.u_idx);
        self.lt.rebuild(&self.l_ptr, &self.l_step);
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
            // Row indices are bounded by the CSR u32 index width by construction.
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
mod tests;
