//! Sparse LU factorization of a simplex basis.
//!
//! Gilbert–Peierls left-looking factorization with row partial pivoting and a
//! sparsest-column-first processing order. Produces `P B Q = L U` where `P`
//! is the row pivot order, `Q` the column processing order, `L` unit lower
//! triangular and `U` upper triangular (both in pivot-position space; `L`'s
//! entries are stored under original row indices for cheap FTRAN).

use crate::sparse::{sort_dedup, sort_words, CscMatrix, WorkVec};

const NONE: u32 = u32::MAX;

/// The factors of a basis matrix, plus the permutations.
#[derive(Debug, Clone)]
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
    /// L columns by step: `(original_row, value)`, unit diagonal implicit.
    l_cols: Vec<Vec<(u32, f64)>>,
    /// U off-diagonal columns by step: `(earlier_step, value)`.
    u_cols: Vec<Vec<(u32, f64)>>,
    /// U diagonal (the pivots) by step.
    u_diag: Vec<f64>,
    /// Transposed U structure: for step `p`, the later steps `j` whose U
    /// column hits it (`ut_idx[ut_ptr[p]..ut_ptr[p+1]]`). Drives the
    /// symbolic reach of the BTRAN U'-solve.
    ut_ptr: Vec<usize>,
    ut_idx: Vec<u32>,
    /// Transposed L structure in step space: for step `q`, the earlier
    /// steps `p` whose L column contains a row pivoted at `q`. Drives the
    /// symbolic reach of the BTRAN L'-solve.
    lt_ptr: Vec<usize>,
    lt_idx: Vec<u32>,
}

/// Reusable scratch for the sparse triangular solves, owned by the caller so
/// steady-state pivots allocate nothing. All buffers are step-indexed;
/// `vals` is kept all-zero between calls.
#[derive(Debug, Clone, Default)]
pub(crate) struct LuScratch {
    visited: Vec<bool>,
    stack: Vec<u32>,
    reach: Vec<u32>,
    reach2: Vec<u32>,
    vals: Vec<f64>,
    /// Zeroed bit words the reaches are put in step order with.
    sort_words: Vec<u64>,
}

impl LuScratch {
    /// Scratch for an `m`-row basis, pre-sized so no later call grows it.
    pub fn new(m: usize) -> Self {
        LuScratch {
            visited: vec![false; m],
            stack: Vec::with_capacity(m),
            reach: Vec::with_capacity(m),
            reach2: Vec::with_capacity(m),
            vals: vec![0.0; m],
            sort_words: sort_words(m),
        }
    }
}

/// Depth-first reach of `starts` under `succ`, collected into `reach`.
///
/// Returns `false` (with `reach` emptied and `visited` reset) once the
/// reach would exceed `cap` — the caller then falls back to a dense solve.
/// On success the caller owns resetting `visited` via the reach list.
fn reach_from<I>(
    visited: &mut [bool],
    stack: &mut Vec<u32>,
    reach: &mut Vec<u32>,
    cap: usize,
    starts: impl Iterator<Item = u32>,
    mut succ: impl FnMut(u32) -> I,
) -> bool
where
    I: Iterator<Item = u32>,
{
    reach.clear();
    stack.clear();
    let mut overflow = false;
    'outer: for s0 in starts {
        if visited[s0 as usize] {
            continue;
        }
        visited[s0 as usize] = true;
        reach.push(s0);
        if reach.len() > cap {
            overflow = true;
            break;
        }
        stack.push(s0);
        while let Some(n) = stack.pop() {
            for t in succ(n) {
                if !visited[t as usize] {
                    visited[t as usize] = true;
                    reach.push(t);
                    if reach.len() > cap {
                        overflow = true;
                        break 'outer;
                    }
                    stack.push(t);
                }
            }
        }
    }
    if overflow {
        for &n in reach.iter() {
            visited[n as usize] = false;
        }
        reach.clear();
        stack.clear();
        return false;
    }
    true
}

impl Lu {
    /// Factorizes the basis given by `basis` (column indices into `a`).
    ///
    /// On structural or numerical singularity returns `Err(row)` with an
    /// original row index that could not be pivoted, so the caller can
    /// repair the basis.
    pub fn factor(a: &CscMatrix, basis: &[usize], pivot_tol: f64) -> Result<Lu, usize> {
        let m = basis.len();
        assert_eq!(a.nrows(), m, "basis size must equal row count");

        // Process sparsest columns first: cheap Markowitz-style ordering that
        // keeps the mostly-singleton scheduling bases near-diagonal.
        let mut col_order: Vec<u32> = (0..m as u32).collect();
        col_order.sort_by_key(|&p| (a.col_nnz(basis[p as usize]), p));

        let mut row_perm = vec![NONE; m];
        let mut row_pos = vec![NONE; m];
        let mut l_cols: Vec<Vec<(u32, f64)>> = Vec::with_capacity(m);
        let mut u_cols: Vec<Vec<(u32, f64)>> = Vec::with_capacity(m);
        let mut u_diag = Vec::with_capacity(m);

        // Dense accumulator indexed by original row, with explicit pattern.
        let mut work = vec![0.0_f64; m];
        let mut visited = vec![false; m];
        let mut pattern: Vec<u32> = Vec::with_capacity(64);
        // DFS scratch.
        let mut dfs: Vec<(u32, usize)> = Vec::with_capacity(64);
        let mut topo: Vec<u32> = Vec::with_capacity(64);

        for step in 0..m {
            let bcol = basis[col_order[step] as usize];
            let (rows, vals) = a.col(bcol);

            // Symbolic: reach of the column pattern through L.
            pattern.clear();
            topo.clear();
            for &r in rows {
                if visited[r as usize] {
                    continue;
                }
                dfs.push((r, 0));
                visited[r as usize] = true;
                pattern.push(r);
                while let Some(&mut (node, ref mut child)) = dfs.last_mut() {
                    let p = row_pos[node as usize];
                    if p == NONE {
                        dfs.pop();
                        continue;
                    }
                    let lcol = &l_cols[p as usize];
                    if *child < lcol.len() {
                        let next = lcol[*child].0;
                        *child += 1;
                        if !visited[next as usize] {
                            visited[next as usize] = true;
                            pattern.push(next);
                            dfs.push((next, 0));
                        }
                    } else {
                        dfs.pop();
                        topo.push(p);
                    }
                }
            }

            // Numeric: scatter and eliminate in topological order.
            for (&r, &v) in rows.iter().zip(vals) {
                work[r as usize] = v;
            }
            for &p in topo.iter().rev() {
                let r_piv = row_perm[p as usize] as usize;
                let v = work[r_piv];
                // lint: allow(float-eq, reason = "exact-zero skip is a sparsity guard: skipping true zeros never changes the arithmetic")
                if v != 0.0 {
                    for &(r, lv) in &l_cols[p as usize] {
                        work[r as usize] -= lv * v;
                    }
                }
            }

            // Pivot: largest magnitude among unpivoted rows in the pattern.
            let mut piv_row = NONE;
            let mut piv_val = 0.0_f64;
            for &r in &pattern {
                if row_pos[r as usize] == NONE {
                    let v = work[r as usize];
                    if v.abs() > piv_val.abs() {
                        piv_val = v;
                        piv_row = r;
                    }
                }
            }
            if piv_row == NONE || piv_val.abs() <= pivot_tol {
                // Singular: report some still-unpivoted row for repair.
                let bad = (0..m).find(|&r| row_pos[r] == NONE).unwrap_or(0);
                // Reset accumulator before bailing.
                for &r in &pattern {
                    work[r as usize] = 0.0;
                    visited[r as usize] = false;
                }
                return Err(bad);
            }

            // Gather U (pivoted part) and L (unpivoted part) of the column.
            let mut ucol = Vec::new();
            let mut lcol = Vec::new();
            for &r in &pattern {
                let v = work[r as usize];
                let p = row_pos[r as usize];
                if p != NONE {
                    // lint: allow(float-eq, reason = "exact-zero skip is a sparsity guard: skipping true zeros never changes the arithmetic")
                    if v != 0.0 {
                        ucol.push((p, v));
                    }
                // lint: allow(float-eq, reason = "exact-zero skip is a sparsity guard: skipping true zeros never changes the arithmetic")
                } else if r != piv_row && v != 0.0 {
                    lcol.push((r, v / piv_val));
                }
                work[r as usize] = 0.0;
                visited[r as usize] = false;
            }
            u_cols.push(ucol);
            l_cols.push(lcol);
            u_diag.push(piv_val);
            row_perm[step] = piv_row;
            row_pos[piv_row as usize] = step as u32;
        }

        // Inverse column permutation and the two transposed adjacency
        // structures the sparse BTRAN reaches walk. Built once per
        // factorization; the L transpose needs the *final* `row_pos`, so
        // this cannot happen inside the elimination loop.
        let mut col_pos = vec![0u32; m];
        for (step, &p) in col_order.iter().enumerate() {
            col_pos[p as usize] = step as u32;
        }
        let mut ut_ptr = vec![0usize; m + 1];
        for ucol in &u_cols {
            for &(p, _) in ucol {
                ut_ptr[p as usize + 1] += 1;
            }
        }
        let mut lt_ptr = vec![0usize; m + 1];
        for lcol in &l_cols {
            for &(r, _) in lcol {
                lt_ptr[row_pos[r as usize] as usize + 1] += 1;
            }
        }
        for i in 0..m {
            ut_ptr[i + 1] += ut_ptr[i];
            lt_ptr[i + 1] += lt_ptr[i];
        }
        let mut ut_fill = ut_ptr.clone();
        let mut ut_idx = vec![0u32; ut_ptr[m]];
        for (j, ucol) in u_cols.iter().enumerate() {
            for &(p, _) in ucol {
                ut_idx[ut_fill[p as usize]] = j as u32;
                ut_fill[p as usize] += 1;
            }
        }
        let mut lt_fill = lt_ptr.clone();
        let mut lt_idx = vec![0u32; lt_ptr[m]];
        for (p, lcol) in l_cols.iter().enumerate() {
            for &(r, _) in lcol {
                let q = row_pos[r as usize] as usize;
                lt_idx[lt_fill[q]] = p as u32;
                lt_fill[q] += 1;
            }
        }

        Ok(Lu {
            m,
            row_perm,
            row_pos,
            col_order,
            col_pos,
            l_cols,
            u_cols,
            u_diag,
            ut_ptr,
            ut_idx,
            lt_ptr,
            lt_idx,
        })
    }

    /// Entry count of the factors: L and U off-diagonals plus the `m`
    /// diagonal pivots. One FTRAN/BTRAN pass touches every entry once, so
    /// this is the per-pass cost unit the refactorization cost model
    /// weighs the eta file against.
    pub fn nnz(&self) -> usize {
        let l: usize = self.l_cols.iter().map(Vec::len).sum();
        let u: usize = self.u_cols.iter().map(Vec::len).sum();
        l + u + self.m
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
        self.row_perm.reserve(k);
        self.row_pos.reserve(k);
        self.col_order.reserve(k);
        self.col_pos.reserve(k);
        for i in 0..k {
            // lint: allow(lossy-cast, reason = "row indices are bounded by the CSR u32 index width by construction")
            let step = (m0 + i) as u32;
            self.row_perm.push(step);
            self.row_pos.push(step);
            self.col_order.push(step);
            self.col_pos.push(step);
            self.l_cols.push(Vec::new());
            self.u_cols.push(Vec::new());
            self.u_diag.push(-1.0);
        }
        let ut_last = self.ut_ptr[m0];
        let lt_last = self.lt_ptr[m0];
        self.ut_ptr.resize(m0 + k + 1, ut_last);
        self.lt_ptr.resize(m0 + k + 1, lt_last);
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
                for &(r, lv) in &self.l_cols[p] {
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
                for &(p, uv) in &self.u_cols[j] {
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
            for &(p, uv) in &self.u_cols[j] {
                acc -= uv * scratch[p as usize];
            }
            scratch[j] = acc / self.u_diag[j];
        }
        // L' v = w (backward, unit diagonal).
        for p in (0..m).rev() {
            let mut acc = scratch[p];
            for &(r, lv) in &self.l_cols[p] {
                acc -= lv * scratch[self.row_pos[r as usize] as usize];
            }
            scratch[p] = acc;
        }
        // y[row_perm[p]] = v_p.
        for p in 0..m {
            c[self.row_perm[p] as usize] = scratch[p];
        }
    }

    /// Sparse FTRAN: solves `B x = rhs`, tracking nonzeros through both
    /// triangular solves via symbolic reach over the L/U dependency graphs.
    ///
    /// `rhs` is row-indexed and consumed (left cleared); `out` receives `x`
    /// by basis position. Once the reach of either solve exceeds
    /// `max_reach`, the remainder runs the dense kernel and `out` is
    /// flagged dense. Either way the result is bit-identical to
    /// [`Self::ftran`]: positions outside the reach hold exact zeros, the
    /// reach is processed in the same step order as the dense loop, and the
    /// only divergence is the sign of cancelled zeros, which no consumer
    /// observes (every use is guarded by `!= 0` or magnitude tests).
    pub fn ftran_sparse(
        &self,
        rhs: &mut WorkVec,
        out: &mut WorkVec,
        s: &mut LuScratch,
        max_reach: usize,
    ) {
        let m = self.m;
        debug_assert_eq!(rhs.len(), m);
        debug_assert_eq!(out.len(), m);
        debug_assert_eq!(s.vals.len(), m);
        out.clear();
        // Symbolic: reach of the rhs pattern through L, in step space.
        let sparse_l = !rhs.is_dense()
            && reach_from(
                &mut s.visited,
                &mut s.stack,
                &mut s.reach,
                max_reach,
                rhs.pattern.iter().map(|&r| self.row_pos[r as usize]),
                |p| {
                    self.l_cols[p as usize]
                        .iter()
                        .map(|&(r, _)| self.row_pos[r as usize])
                },
            );
        if !sparse_l {
            self.ftran(&mut rhs.values, &mut out.values);
            rhs.clear();
            out.make_dense();
            return;
        }
        sort_dedup(&mut s.reach, &mut s.sort_words);
        for &p in &s.reach {
            s.visited[p as usize] = false;
        }
        // Numeric L-solve: the dense loop restricted to the reach, in the
        // same ascending step order (skipped steps hold exact zeros).
        for &p in &s.reach {
            let p = p as usize;
            let v = rhs.values[self.row_perm[p] as usize];
            // lint: allow(float-eq, reason = "exact-zero skip is a sparsity guard: skipping true zeros never changes the arithmetic")
            if v != 0.0 {
                for &(r, lv) in &self.l_cols[p] {
                    rhs.values[r as usize] -= lv * v;
                }
            }
            s.vals[p] = v;
        }
        // rhs is spent: zero the rows the solve touched (a superset of its
        // pattern) and reset its bookkeeping.
        for &p in &s.reach {
            rhs.values[self.row_perm[p as usize] as usize] = 0.0;
        }
        rhs.clear();

        // Symbolic: extend the reach through U's back-substitution edges.
        let sparse_u = reach_from(
            &mut s.visited,
            &mut s.stack,
            &mut s.reach2,
            max_reach,
            s.reach.iter().copied(),
            |j| self.u_cols[j as usize].iter().map(|&(p, _)| p),
        );
        if !sparse_u {
            // Finish densely from the step-indexed accumulator: skipped
            // steps hold exact zeros, so this is the dense
            // back-substitution verbatim.
            for j in (0..m).rev() {
                let z = s.vals[j] / self.u_diag[j];
                s.vals[j] = z;
                // lint: allow(float-eq, reason = "exact-zero skip is a sparsity guard: skipping true zeros never changes the arithmetic")
                if z != 0.0 {
                    for &(p, uv) in &self.u_cols[j] {
                        s.vals[p as usize] -= uv * z;
                    }
                }
            }
            for j in 0..m {
                out.values[self.col_order[j] as usize] = s.vals[j];
                s.vals[j] = 0.0;
            }
            out.make_dense();
            return;
        }
        sort_dedup(&mut s.reach2, &mut s.sort_words);
        for &j in &s.reach2 {
            s.visited[j as usize] = false;
        }
        // Numeric U back-substitution over the reach, descending.
        for &j in s.reach2.iter().rev() {
            let j = j as usize;
            let z = s.vals[j] / self.u_diag[j];
            s.vals[j] = z;
            // lint: allow(float-eq, reason = "exact-zero skip is a sparsity guard: skipping true zeros never changes the arithmetic")
            if z != 0.0 {
                for &(p, uv) in &self.u_cols[j] {
                    s.vals[p as usize] -= uv * z;
                }
            }
        }
        // Permute step → basis position, harvesting actual nonzeros and
        // re-zeroing the scratch.
        for &j in &s.reach2 {
            let v = s.vals[j as usize];
            s.vals[j as usize] = 0.0;
            // lint: allow(float-eq, reason = "exact-zero skip is a sparsity guard: skipping true zeros never changes the arithmetic")
            if v != 0.0 {
                out.set(self.col_order[j as usize], v);
            }
        }
    }

    /// Sparse BTRAN: solves `B' y = c`, tracking nonzeros via the
    /// transposed U/L structures.
    ///
    /// `c` comes in indexed by basis position and leaves indexed by
    /// original row. Unlike FTRAN these solves are *gathers*, so each
    /// reached step accumulates over its full stored adjacency in original
    /// order — term-for-term the dense arithmetic (absent terms are exact
    /// zeros) — which keeps the result bit-identical to [`Self::btran`] up
    /// to the sign of cancelled zeros.
    pub fn btran_sparse(&self, c: &mut WorkVec, s: &mut LuScratch, max_reach: usize) {
        let m = self.m;
        debug_assert_eq!(c.len(), m);
        debug_assert_eq!(s.vals.len(), m);
        // Symbolic U'-reach from the input pattern, mapped into step space.
        let sparse_u = !c.is_dense()
            && reach_from(
                &mut s.visited,
                &mut s.stack,
                &mut s.reach,
                max_reach,
                c.pattern.iter().map(|&pos| self.col_pos[pos as usize]),
                |p| {
                    self.ut_idx[self.ut_ptr[p as usize]..self.ut_ptr[p as usize + 1]]
                        .iter()
                        .copied()
                },
            );
        if !sparse_u {
            self.btran(&mut c.values, &mut s.vals);
            s.vals.fill(0.0);
            c.make_dense();
            return;
        }
        sort_dedup(&mut s.reach, &mut s.sort_words);
        for &p in &s.reach {
            s.visited[p as usize] = false;
        }
        // Permute inputs into step space (unreached inputs are exact
        // zeros) and clear `c` for reuse as the row-indexed output.
        for &j in &s.reach {
            s.vals[j as usize] = c.values[self.col_order[j as usize] as usize];
        }
        c.clear();
        // Forward U'-solve: full gather per reached step, ascending.
        for &j in &s.reach {
            let j = j as usize;
            let mut acc = s.vals[j];
            for &(p, uv) in &self.u_cols[j] {
                acc -= uv * s.vals[p as usize];
            }
            s.vals[j] = acc / self.u_diag[j];
        }
        // Symbolic L'-reach extends the U' reach.
        let sparse_l = reach_from(
            &mut s.visited,
            &mut s.stack,
            &mut s.reach2,
            max_reach,
            s.reach.iter().copied(),
            |q| {
                self.lt_idx[self.lt_ptr[q as usize]..self.lt_ptr[q as usize + 1]]
                    .iter()
                    .copied()
            },
        );
        if !sparse_l {
            // Finish densely: backward L'-solve over every step, then
            // scatter to row space.
            for p in (0..m).rev() {
                let mut acc = s.vals[p];
                for &(r, lv) in &self.l_cols[p] {
                    acc -= lv * s.vals[self.row_pos[r as usize] as usize];
                }
                s.vals[p] = acc;
            }
            for p in 0..m {
                c.values[self.row_perm[p] as usize] = s.vals[p];
                s.vals[p] = 0.0;
            }
            c.make_dense();
            return;
        }
        sort_dedup(&mut s.reach2, &mut s.sort_words);
        for &p in &s.reach2 {
            s.visited[p as usize] = false;
        }
        // Backward L'-solve over the reach, descending, full gathers.
        for &p in s.reach2.iter().rev() {
            let p = p as usize;
            let mut acc = s.vals[p];
            for &(r, lv) in &self.l_cols[p] {
                acc -= lv * s.vals[self.row_pos[r as usize] as usize];
            }
            s.vals[p] = acc;
        }
        // Scatter to row space, harvesting actual nonzeros.
        for &p in &s.reach2 {
            let v = s.vals[p as usize];
            s.vals[p as usize] = 0.0;
            // lint: allow(float-eq, reason = "exact-zero skip is a sparsity guard: skipping true zeros never changes the arithmetic")
            if v != 0.0 {
                c.set(self.row_perm[p as usize], v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::CscMatrix;

    /// Builds a CSC matrix whose columns are exactly the basis columns.
    fn mat(cols: &[Vec<(u32, f64)>], m: usize) -> (CscMatrix, Vec<usize>) {
        let mut a = CscMatrix::empty(m);
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

    /// Sparse FTRAN/BTRAN must be bit-identical to the dense kernels on
    /// every nonzero (zeros may differ in sign only), at generous and at
    /// zero reach caps (the latter forces the dense fallback).
    #[test]
    fn sparse_kernels_match_dense_bitwise() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..40 {
            let m = 2 + (trial % 14);
            let mut cols: Vec<Vec<(u32, f64)>> = Vec::new();
            for j in 0..m {
                let mut col = vec![(j as u32, 1.0 + rng.random_range(0.0..4.0))];
                for r in 0..m {
                    if r != j && rng.random_range(0.0..1.0) < 0.25 {
                        col.push((r as u32, rng.random_range(-1.0..1.0)));
                    }
                }
                col.sort_unstable_by_key(|e| e.0);
                cols.push(col);
            }
            let (a, basis) = mat(&cols, m);
            let lu = match Lu::factor(&a, &basis, 1e-10) {
                Ok(l) => l,
                Err(_) => continue,
            };
            let mut scratch = LuScratch::new(m);
            for cap in [m, 0] {
                // FTRAN on a sparse rhs (a couple of entries).
                let mut dense_rhs = vec![0.0; m];
                dense_rhs[0] = 1.25;
                dense_rhs[m / 2] = -0.5;
                let mut dense_out = vec![0.0; m];
                lu.ftran(&mut dense_rhs, &mut dense_out);

                let mut rhs = WorkVec::new(m);
                rhs.set(0, 1.25);
                rhs.set(m as u32 / 2, -0.5);
                let mut out = WorkVec::new(m);
                lu.ftran_sparse(&mut rhs, &mut out, &mut scratch, cap);
                assert_eq!(out.is_dense(), cap == 0);
                for (p, &dv) in dense_out.iter().enumerate() {
                    let sv = out.values[p];
                    if dv == 0.0 {
                        assert_eq!(sv, 0.0, "trial {trial} cap {cap} pos {p}");
                    } else {
                        assert_eq!(
                            sv.to_bits(),
                            dv.to_bits(),
                            "trial {trial} cap {cap} pos {p}: {sv} vs {dv}"
                        );
                    }
                }
                // rhs left clean for reuse.
                assert!(rhs.pattern.is_empty() && !rhs.is_dense());
                assert!(rhs.values.iter().all(|&v| v == 0.0));

                // BTRAN on a unit vector (the pivotal-row case).
                let mut dense_c = vec![0.0; m];
                dense_c[m - 1] = 1.0;
                let mut ds = vec![0.0; m];
                lu.btran(&mut dense_c, &mut ds);
                let mut c = WorkVec::new(m);
                c.set(m as u32 - 1, 1.0);
                lu.btran_sparse(&mut c, &mut scratch, cap);
                for (r, &dv) in dense_c.iter().enumerate() {
                    let sv = c.values[r];
                    if dv == 0.0 {
                        assert_eq!(sv, 0.0, "btran trial {trial} cap {cap} row {r}");
                    } else {
                        assert_eq!(
                            sv.to_bits(),
                            dv.to_bits(),
                            "btran trial {trial} cap {cap} row {r}"
                        );
                    }
                }
                // Scratch values buffer must be left all-zero.
                assert!(scratch.vals.iter().all(|&v| v == 0.0));
            }
        }
    }

    #[test]
    fn randomized_roundtrip() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..30 {
            let m = 1 + (trial % 12);
            // Random sparse nonsingular-ish matrix: diagonal + noise.
            let mut cols: Vec<Vec<(u32, f64)>> = Vec::new();
            for j in 0..m {
                let mut col = vec![(j as u32, 1.0 + rng.random_range(0.0..4.0))];
                for r in 0..m {
                    if r != j && rng.random_range(0.0..1.0) < 0.3 {
                        col.push((r as u32, rng.random_range(-1.0..1.0)));
                    }
                }
                col.sort_unstable_by_key(|e| e.0);
                cols.push(col);
            }
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
