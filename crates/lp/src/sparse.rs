//! Compressed sparse column (CSC) matrices and sparse/dense vector kernels.
//!
//! The revised simplex works column-wise: pricing scans columns against a
//! dense dual vector, and FTRAN pulls single columns out of the matrix. CSC
//! is the natural layout for both.

/// A sparse matrix in compressed-sparse-column form.
///
/// Invariants: `col_ptr.len() == ncols + 1`, `col_ptr[0] == 0`,
/// `col_ptr[ncols] == row_idx.len() == values.len()`, row indices within a
/// column are strictly increasing and `< nrows`.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    nrows: usize,
    ncols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Builds a CSC matrix from coefficient triplets `(row, col, value)`.
    /// Duplicate `(row, col)` pairs are summed; entries that cancel to zero
    /// are kept (they are harmless and rare).
    ///
    /// Two passes over `triplets`: one counts the entries of each column,
    /// the other scatters them, in input order, into the output arrays.
    /// Each column is then sorted by row through one scratch buffer and
    /// compacted towards the front.
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn from_triplets<I>(nrows: usize, ncols: usize, triplets: I) -> Self
    where
        I: IntoIterator<Item = (u32, u32, f64)>,
        I::IntoIter: Clone,
    {
        let triplets = triplets.into_iter();
        let mut col_ptr = vec![0usize; ncols + 1];
        for (r, c, _) in triplets.clone() {
            assert!((r as usize) < nrows, "row index {r} out of range");
            assert!((c as usize) < ncols, "col index {c} out of range");
            col_ptr[c as usize + 1] += 1;
        }
        for j in 0..ncols {
            col_ptr[j + 1] += col_ptr[j];
        }
        let mut next = col_ptr[..ncols].to_vec();
        let mut row_idx = vec![0u32; col_ptr[ncols]];
        let mut values = vec![0.0f64; col_ptr[ncols]];
        for (r, c, v) in triplets {
            let slot = &mut next[c as usize];
            row_idx[*slot] = r;
            values[*slot] = v;
            *slot += 1;
        }
        let mut col: Vec<(u32, f64)> = Vec::new();
        let (mut lo, mut out) = (0, 0);
        for j in 0..ncols {
            let hi = col_ptr[j + 1];
            col.clear();
            col.extend(
                row_idx[lo..hi]
                    .iter()
                    .copied()
                    .zip(values[lo..hi].iter().copied()),
            );
            col.sort_unstable_by_key(|&(r, _)| r);
            let mut i = 0;
            while i < col.len() {
                let r = col[i].0;
                let mut v = col[i].1;
                let mut k = i + 1;
                while k < col.len() && col[k].0 == r {
                    v += col[k].1;
                    k += 1;
                }
                row_idx[out] = r;
                values[out] = v;
                out += 1;
                i = k;
            }
            col_ptr[j + 1] = out;
            lo = hi;
        }
        row_idx.truncate(out);
        values.truncate(out);
        CscMatrix {
            nrows,
            ncols,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Appends a column given as sorted `(row, value)` pairs.
    ///
    /// # Panics
    /// Panics if rows are out of range or not strictly increasing.
    pub fn push_col(&mut self, entries: &[(u32, f64)]) {
        let mut prev: Option<u32> = None;
        for &(r, v) in entries {
            assert!((r as usize) < self.nrows, "row index out of range");
            if let Some(p) = prev {
                assert!(r > p, "rows must be strictly increasing");
            }
            prev = Some(r);
            self.row_idx.push(r);
            self.values.push(v);
        }
        self.ncols += 1;
        self.col_ptr.push(self.row_idx.len());
    }

    /// Splices `cols` into the matrix starting at column position `at`,
    /// shifting existing columns `at..` right by `cols.len()`. Each new
    /// column is given as sorted `(row, value)` pairs, like
    /// [`push_col`](Self::push_col). Rebuilds the storage in one pass —
    /// O(nnz + added) — so it is meant for occasional batch growth (delayed
    /// column generation), not per-entry editing.
    ///
    /// # Panics
    /// Panics if `at > ncols`, or any row index is out of range or not
    /// strictly increasing within its column.
    pub fn insert_cols(&mut self, at: usize, cols: &[Vec<(u32, f64)>]) {
        assert!(at <= self.ncols, "insert position {at} out of range");
        if cols.is_empty() {
            return;
        }
        let added: usize = cols.iter().map(|c| c.len()).sum();
        for col in cols {
            let mut prev: Option<u32> = None;
            for &(r, _) in col {
                assert!((r as usize) < self.nrows, "row index out of range");
                if let Some(p) = prev {
                    assert!(r > p, "rows must be strictly increasing");
                }
                prev = Some(r);
            }
        }
        let mut row_idx = Vec::with_capacity(self.nnz() + added);
        let mut values = Vec::with_capacity(self.nnz() + added);
        let mut col_ptr = Vec::with_capacity(self.ncols + cols.len() + 1);
        col_ptr.push(0usize);
        let split = self.col_ptr[at];
        row_idx.extend_from_slice(&self.row_idx[..split]);
        values.extend_from_slice(&self.values[..split]);
        col_ptr.extend_from_slice(&self.col_ptr[1..=at]);
        for col in cols {
            for &(r, v) in col {
                row_idx.push(r);
                values.push(v);
            }
            col_ptr.push(row_idx.len());
        }
        row_idx.extend_from_slice(&self.row_idx[split..]);
        values.extend_from_slice(&self.values[split..]);
        for j in at..self.ncols {
            col_ptr.push(self.col_ptr[j + 1] + added);
        }
        self.ncols += cols.len();
        self.col_ptr = col_ptr;
        self.row_idx = row_idx;
        self.values = values;
    }

    /// Grows the matrix by `k` rows at the bottom and scatters `triplets`
    /// — `(row, col, value)` with `nrows <= row < nrows + k` — into the
    /// existing columns. Because every new row index exceeds every existing
    /// one, each column's new entries land at the end of its segment and
    /// the strictly-increasing invariant is preserved without re-sorting
    /// existing data.
    ///
    /// # Panics
    /// Panics if a triplet's row is not in the new-row range, its column is
    /// out of range, or two triplets address the same `(row, col)` cell.
    pub fn append_rows(&mut self, k: usize, triplets: &[(u32, u32, f64)]) {
        let old_rows = self.nrows;
        self.nrows += k;
        if triplets.is_empty() {
            return;
        }
        for &(r, c, _) in triplets {
            assert!(
                (r as usize) >= old_rows && (r as usize) < self.nrows,
                "row index {r} outside the appended range"
            );
            assert!((c as usize) < self.ncols, "col index {c} out of range");
        }
        let mut extra: Vec<(u32, u32, f64)> = triplets.to_vec();
        extra.sort_unstable_by_key(|&(r, c, _)| (c, r));
        for w in extra.windows(2) {
            assert!(
                (w[0].1, w[0].0) != (w[1].1, w[1].0),
                "duplicate (row, col) entry in appended rows"
            );
        }
        let mut row_idx = Vec::with_capacity(self.nnz() + extra.len());
        let mut values = Vec::with_capacity(self.nnz() + extra.len());
        let mut col_ptr = Vec::with_capacity(self.ncols + 1);
        col_ptr.push(0usize);
        let mut it = extra.iter().peekable();
        for j in 0..self.ncols {
            let lo = self.col_ptr[j];
            let hi = self.col_ptr[j + 1];
            row_idx.extend_from_slice(&self.row_idx[lo..hi]);
            values.extend_from_slice(&self.values[lo..hi]);
            while let Some(&&(r, c, v)) = it.peek() {
                if c as usize != j {
                    break;
                }
                row_idx.push(r);
                values.push(v);
                it.next();
            }
            col_ptr.push(row_idx.len());
        }
        self.col_ptr = col_ptr;
        self.row_idx = row_idx;
        self.values = values;
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Number of stored entries in column `j`.
    #[inline]
    pub fn col_nnz(&self, j: usize) -> usize {
        self.col_ptr[j + 1] - self.col_ptr[j]
    }

    /// The `(row_indices, values)` slices of column `j`.
    #[inline]
    pub fn col(&self, j: usize) -> (&[u32], &[f64]) {
        let lo = self.col_ptr[j];
        let hi = self.col_ptr[j + 1];
        (&self.row_idx[lo..hi], &self.values[lo..hi])
    }

    /// Dot product of column `j` with a dense vector.
    #[inline]
    pub fn col_dot(&self, j: usize, dense: &[f64]) -> f64 {
        let (rows, vals) = self.col(j);
        let mut acc = 0.0;
        for (&r, &v) in rows.iter().zip(vals) {
            acc += v * dense[r as usize];
        }
        acc
    }

    /// `out += scale * column j` (scatter into a dense vector).
    #[inline]
    pub fn col_axpy(&self, j: usize, scale: f64, out: &mut [f64]) {
        let (rows, vals) = self.col(j);
        for (&r, &v) in rows.iter().zip(vals) {
            out[r as usize] += scale * v;
        }
    }

    /// The dense `nrows x ncols` representation (row-major): the unit
    /// tests' probe.
    #[cfg(test)]
    pub fn to_dense(&self) -> Vec<Vec<f64>> {
        let mut d = vec![vec![0.0; self.ncols]; self.nrows];
        #[expect(clippy::needless_range_loop, reason = "column index drives col()")]
        for j in 0..self.ncols {
            let (rows, vals) = self.col(j);
            for (&r, &v) in rows.iter().zip(vals) {
                d[r as usize][j] = v;
            }
        }
        d
    }
}

/// Sorts `list` ascending and removes duplicates, in place, without a
/// comparison sort: one bit per entry into `words` (bit `i & 63` of word
/// `i >> 6`), then a sweep of the word range between the smallest and the
/// largest entry that pops the bits back out lowest first.
///
/// `words` needs a bit for every possible entry. On entry it may hold set
/// bits only for entries of `list` (a caller de-duplicating at insertion
/// uses them as its marks); on exit it is all zero.
pub(crate) fn sort_dedup(list: &mut Vec<u32>, words: &mut [u64]) {
    let Some(&first) = list.first() else {
        return;
    };
    let (mut wlo, mut whi) = (first >> 6, first >> 6);
    for &i in list.iter() {
        let wi = i >> 6;
        wlo = wlo.min(wi);
        whi = whi.max(wi);
        words[wi as usize] |= 1u64 << (i & 63);
    }
    list.clear();
    for wi in wlo..=whi {
        let mut bits = std::mem::take(&mut words[wi as usize]);
        while bits != 0 {
            list.push((wi << 6) | bits.trailing_zeros());
            bits &= bits - 1;
        }
    }
}

/// Zeroed bit words for [`sort_dedup`] over entries `0..n`.
pub(crate) fn sort_words(n: usize) -> Vec<u64> {
    vec![0; n.div_ceil(64)]
}

/// A sparse work vector: dense values plus an explicit nonzero pattern, with
/// a density-based dense fallback.
///
/// Used by FTRAN/BTRAN results where the vector is usually sparse but must
/// be randomly addressable. `pattern` may over-approximate (contain indices
/// whose value has cancelled to ~0); consumers filter by magnitude. When a
/// kernel decides the result is too dense for pattern tracking to pay off it
/// calls [`make_dense`](Self::make_dense): the pattern is abandoned and
/// consumers iterate over all of `values` instead (checked via
/// [`is_dense`](Self::is_dense)). [`clear`](Self::clear) handles both modes
/// and returns the vector to sparse tracking.
#[derive(Debug, Clone, Default)]
pub struct WorkVec {
    /// Dense storage of values.
    pub values: Vec<f64>,
    /// Indices with (potentially) nonzero values. Meaningless while
    /// [`is_dense`](Self::is_dense).
    pub pattern: Vec<u32>,
    /// Scratch flags marking membership of `pattern`.
    marked: Vec<bool>,
    /// Zeroed bit words for [`sort_pattern`](Self::sort_pattern).
    sort_words: Vec<u64>,
    /// When set, `pattern` is not maintained; any entry of `values` may be
    /// nonzero.
    dense: bool,
}

impl WorkVec {
    /// Creates a zeroed work vector of dimension `n`. The pattern buffer is
    /// pre-sized to `n` so steady-state use never reallocates.
    pub fn new(n: usize) -> Self {
        WorkVec {
            values: vec![0.0; n],
            pattern: Vec::with_capacity(n),
            marked: vec![false; n],
            sort_words: sort_words(n),
            dense: false,
        }
    }

    /// Dimension of the vector.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the pattern has been abandoned and every entry of `values`
    /// must be assumed nonzero.
    #[inline]
    pub fn is_dense(&self) -> bool {
        self.dense
    }

    /// Abandons pattern tracking: drops the collected pattern (and its
    /// marks) but keeps `values` intact. Consumers must switch to dense
    /// iteration until the next [`clear`](Self::clear).
    pub fn make_dense(&mut self) {
        for &i in &self.pattern {
            self.marked[i as usize] = false;
        }
        self.pattern.clear();
        self.dense = true;
    }

    /// Resets the vector to all-zero sparse state: O(nnz) when the pattern
    /// is live, O(n) after a dense fallback.
    pub fn clear(&mut self) {
        if self.dense {
            self.values.fill(0.0);
            self.dense = false;
        } else {
            for &i in &self.pattern {
                self.values[i as usize] = 0.0;
                self.marked[i as usize] = false;
            }
            self.pattern.clear();
        }
    }

    /// Adds `v` at index `i`, tracking the pattern.
    #[inline]
    pub fn add(&mut self, i: u32, v: f64) {
        if !self.dense && !self.marked[i as usize] {
            self.marked[i as usize] = true;
            self.pattern.push(i);
        }
        self.values[i as usize] += v;
    }

    /// Sets index `i` to `v`, tracking the pattern.
    #[inline]
    pub fn set(&mut self, i: u32, v: f64) {
        if !self.dense && !self.marked[i as usize] {
            self.marked[i as usize] = true;
            self.pattern.push(i);
        }
        self.values[i as usize] = v;
    }

    /// True when index `i` is in the tracked pattern.
    #[inline]
    pub fn marked(&self, i: u32) -> bool {
        self.marked[i as usize]
    }

    /// Sorts the pattern ascending, so pattern iteration visits entries in
    /// the same order a dense `0..n` scan would.
    pub fn sort_pattern(&mut self) {
        sort_dedup(&mut self.pattern, &mut self.sort_words);
    }

    /// Number of tracked nonzeros — the full dimension after a dense
    /// fallback.
    pub fn nnz(&self) -> usize {
        if self.dense {
            self.values.len()
        } else {
            self.pattern.len()
        }
    }

    /// Loads a sparse column into this (cleared) vector.
    pub fn load(&mut self, rows: &[u32], vals: &[f64]) {
        self.clear();
        for (&r, &v) in rows.iter().zip(vals) {
            self.set(r, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triplets_roundtrip() {
        let m = CscMatrix::from_triplets(
            3,
            2,
            vec![(0, 0, 1.0), (2, 0, 3.0), (1, 1, -2.0), (2, 0, 1.0)],
        );
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 2);
        assert_eq!(m.nnz(), 3); // duplicate (2,0) summed
        let (rows, vals) = m.col(0);
        assert_eq!(rows, &[0, 2]);
        assert_eq!(vals, &[1.0, 4.0]);
        let d = m.to_dense();
        assert_eq!(d[2][0], 4.0);
        assert_eq!(d[1][1], -2.0);
    }

    /// The one-`Vec`-per-column builder [`CscMatrix::from_triplets`]
    /// replaced: the oracle it must match bit for bit.
    fn from_triplets_per_col(
        nrows: usize,
        ncols: usize,
        triplets: &[(u32, u32, f64)],
    ) -> CscMatrix {
        let mut per_col: Vec<Vec<(u32, f64)>> = vec![Vec::new(); ncols];
        for &(r, c, v) in triplets {
            per_col[c as usize].push((r, v));
        }
        let mut col_ptr = Vec::with_capacity(ncols + 1);
        let mut row_idx = Vec::new();
        let mut values = Vec::new();
        col_ptr.push(0);
        for col in &mut per_col {
            col.sort_unstable_by_key(|&(r, _)| r);
            let mut i = 0;
            while i < col.len() {
                let r = col[i].0;
                let mut v = col[i].1;
                let mut j = i + 1;
                while j < col.len() && col[j].0 == r {
                    v += col[j].1;
                    j += 1;
                }
                row_idx.push(r);
                values.push(v);
                i = j;
            }
            col_ptr.push(row_idx.len());
        }
        CscMatrix {
            nrows,
            ncols,
            col_ptr,
            row_idx,
            values,
        }
    }

    proptest::proptest! {
        /// Random shapes and fill, with many duplicate cells: the counting
        /// builder returns the per-column builder's matrix, values compared
        /// by bits. Half the sets draw exactly representable values, whose
        /// sums do not depend on the order duplicates are added in.
        #[test]
        fn from_triplets_matches_per_column_builder(seed in proptest::prelude::any::<u64>()) {
            use rand::{RngExt, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let nrows = rng.random_range(1..16usize);
            let ncols = rng.random_range(0..24usize);
            // Up to three entries a cell: most columns carry duplicates.
            let len = rng.random_range(0..3 * nrows * ncols + 1);
            let dyadic = seed % 2 == 0;
            let triplets: Vec<(u32, u32, f64)> = (0..len)
                .map(|_| {
                    let r = rng.random_range(0..nrows as u32);
                    let c = rng.random_range(0..ncols as u32);
                    let v = if dyadic {
                        f64::from(rng.random_range(-16..17i32)) / 4.0
                    } else {
                        rng.random_range(-1.0..1.0)
                    };
                    (r, c, v)
                })
                .collect();
            let want = from_triplets_per_col(nrows, ncols, &triplets);
            let got = CscMatrix::from_triplets(nrows, ncols, triplets.iter().copied());
            proptest::prop_assert_eq!(got.nrows, want.nrows);
            proptest::prop_assert_eq!(&got.col_ptr, &want.col_ptr);
            proptest::prop_assert_eq!(&got.row_idx, &want.row_idx);
            let bits = |m: &CscMatrix| m.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            proptest::prop_assert_eq!(bits(&got), bits(&want));
        }
    }

    #[test]
    fn push_col_and_dot() {
        let mut m = CscMatrix::from_triplets(4, 0, []);
        m.push_col(&[(0, 1.0), (3, 2.0)]);
        m.push_col(&[(1, 5.0)]);
        assert_eq!(m.ncols(), 2);
        let dense = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(m.col_dot(0, &dense), 1.0 + 8.0);
        assert_eq!(m.col_dot(1, &dense), 10.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn push_col_rejects_unsorted() {
        let mut m = CscMatrix::from_triplets(4, 0, []);
        m.push_col(&[(2, 1.0), (1, 2.0)]);
    }

    #[test]
    fn insert_cols_mid_matrix() {
        let mut m = CscMatrix::from_triplets(3, 2, vec![(0, 0, 1.0), (2, 1, 2.0)]);
        m.insert_cols(1, &[vec![(1, 5.0)], vec![(0, 6.0), (2, 7.0)]]);
        assert_eq!(m.ncols(), 4);
        assert_eq!(m.nnz(), 5);
        let want = CscMatrix::from_triplets(
            3,
            4,
            vec![
                (0, 0, 1.0),
                (1, 1, 5.0),
                (0, 2, 6.0),
                (2, 2, 7.0),
                (2, 3, 2.0),
            ],
        );
        assert_eq!(m, want);
    }

    #[test]
    fn insert_cols_at_ends() {
        let mut m = CscMatrix::from_triplets(2, 1, vec![(1, 0, 3.0)]);
        m.insert_cols(0, &[vec![(0, 1.0)]]);
        m.insert_cols(2, &[vec![], vec![(1, 4.0)]]);
        assert_eq!(m.ncols(), 4);
        let d = m.to_dense();
        assert_eq!(d[0][0], 1.0);
        assert_eq!(d[1][1], 3.0);
        assert_eq!(d[1][3], 4.0);
        assert_eq!(m.col_nnz(2), 0);
    }

    #[test]
    fn append_rows_extends_columns() {
        let mut m = CscMatrix::from_triplets(2, 3, vec![(0, 0, 1.0), (1, 1, 2.0)]);
        m.append_rows(2, &[(2, 0, 5.0), (3, 0, 6.0), (2, 2, 7.0)]);
        assert_eq!(m.nrows(), 4);
        assert_eq!(m.nnz(), 5);
        let (rows, vals) = m.col(0);
        assert_eq!(rows, &[0, 2, 3]);
        assert_eq!(vals, &[1.0, 5.0, 6.0]);
        let (rows, vals) = m.col(2);
        assert_eq!(rows, &[2]);
        assert_eq!(vals, &[7.0]);
    }

    #[test]
    fn append_rows_no_entries() {
        let mut m = CscMatrix::from_triplets(2, 1, vec![(0, 0, 1.0)]);
        m.append_rows(3, &[]);
        assert_eq!(m.nrows(), 5);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    #[should_panic(expected = "outside the appended range")]
    fn append_rows_rejects_existing_row() {
        let mut m = CscMatrix::from_triplets(2, 1, vec![(0, 0, 1.0)]);
        m.append_rows(1, &[(1, 0, 9.0)]);
    }

    #[test]
    #[should_panic(expected = "duplicate (row, col)")]
    fn append_rows_rejects_duplicates() {
        let mut m = CscMatrix::from_triplets(2, 1, vec![(0, 0, 1.0)]);
        m.append_rows(1, &[(2, 0, 9.0), (2, 0, 1.0)]);
    }

    #[test]
    fn workvec_tracks_pattern() {
        let mut w = WorkVec::new(5);
        w.add(3, 1.5);
        w.add(3, 0.5);
        w.set(1, -1.0);
        assert_eq!(w.values[3], 2.0);
        assert_eq!(w.pattern.len(), 2);
        w.clear();
        assert_eq!(w.values[3], 0.0);
        assert!(w.pattern.is_empty());
    }

    #[test]
    fn workvec_dense_fallback_roundtrip() {
        let mut w = WorkVec::new(4);
        w.set(1, 2.0);
        w.set(2, 3.0);
        assert!(!w.is_dense());
        assert_eq!(w.nnz(), 2);
        w.make_dense();
        assert!(w.is_dense());
        assert_eq!(w.nnz(), 4);
        // Values survive the fallback; writes keep working without pattern
        // maintenance.
        assert_eq!(w.values[1], 2.0);
        w.set(0, 5.0);
        w.add(3, 1.0);
        assert!(w.pattern.is_empty());
        // clear() recovers full sparse tracking.
        w.clear();
        assert!(!w.is_dense());
        assert_eq!(w.values, vec![0.0; 4]);
        w.set(3, 7.0);
        assert_eq!(w.pattern, vec![3]);
    }

    #[test]
    fn workvec_sort_pattern() {
        let mut w = WorkVec::new(5);
        w.set(4, 1.0);
        w.set(0, 2.0);
        w.set(2, 3.0);
        w.sort_pattern();
        assert_eq!(w.pattern, vec![0, 2, 4]);
    }

    proptest::proptest! {
        /// Whatever the shape of the list, the result is `sort_unstable` +
        /// `dedup` and the words come back zero — also when the caller
        /// marked entries at insertion and their bits arrive set.
        #[test]
        fn sort_dedup_matches_sort_unstable_dedup(seed in proptest::prelude::any::<u64>()) {
            use rand::{RngExt, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = rng.random_range(65..4000u32);
            let len = match seed % 5 {
                0 => 0,
                1 => 1,
                // Short against the range it spans, then long against it.
                2 | 3 => rng.random_range(2..3 + n as usize / 300),
                _ => rng.random_range(n as usize / 8..2 * n as usize),
            };
            let mut list: Vec<u32> = (0..len).map(|_| rng.random_range(0..n)).collect();
            if seed % 5 == 2 {
                let all = rng.random_range(0..n);
                list.fill(all);
            }
            if seed % 5 == 4 {
                // The word-boundary entries and both ends of the range.
                list.extend([0, 63, 64, n - 1]);
            }
            let mut words = sort_words(n as usize);
            if rng.random_range(0..2) == 0 {
                for &i in &list {
                    words[(i >> 6) as usize] |= 1u64 << (i & 63);
                }
            }
            let mut want = list.clone();
            want.sort_unstable();
            want.dedup();
            sort_dedup(&mut list, &mut words);
            proptest::prop_assert_eq!(list, want);
            proptest::prop_assert!(words.iter().all(|&w| w == 0));
        }
    }

    #[test]
    fn workvec_load() {
        let mut w = WorkVec::new(4);
        w.add(0, 9.0);
        w.load(&[1, 3], &[2.0, 4.0]);
        assert_eq!(w.values[0], 0.0);
        assert_eq!(w.values[1], 2.0);
        assert_eq!(w.values[3], 4.0);
    }
}
