//! The product-form eta file and its two passes.

use super::kernels::for_each_entry;
use crate::sparse::WorkVec;

/// The product-form eta file: `B_new = B_old * E_1 … E_k`, each `E` the
/// identity with column `pos` replaced by `w = B_old^{-1} a_q`.
///
/// Stored as a flat arena — every eta's entry list lives back-to-back in
/// one pair of buffers, its pivot in its header — so steady-state pivots
/// append without allocating once the buffers reach their working set, and
/// clearing at refactorization keeps the capacity.
///
/// Beside the arena sits the *pivotal table*: every eta's stored value at
/// every pivotal position (a position some eta pivots on). A unit BTRAN
/// reads only those: an eta writes nothing but its own pivotal position,
/// so the nonzeros of `e_pos` during the eta pass stay on `pos` and the
/// pivotal positions of the etas already applied.
#[derive(Debug, Clone)]
pub(super) struct EtaFile {
    heads: Vec<EtaHead>,
    /// The stored off-pivot entries of `w`, eta after eta, ascending by
    /// basis position within each — the BTRAN gather order depends on it:
    /// `at` holds the positions and `val` the values.
    at: Vec<u32>,
    val: Vec<f64>,
    /// Row-wise index over the arena: `pos_head[i]` is the most recent
    /// entry slot referencing basis position `i` (`ETA_NONE` if none), and
    /// `link` runs parallel to the entries, chaining each slot to the
    /// previous one for the same position. It yields one position's column
    /// of the file, for a unit BTRAN's `pos` and for a new pivotal
    /// position's column of the table.
    pos_head: Vec<u32>,
    link: Vec<u32>,
    /// The pivotal positions, each once, in order of first appearance:
    /// `pivotal[j]` is column `j` of `table`.
    pivotal: Vec<u32>,
    /// Per basis position, its column in `table` (`ETA_NONE` if none).
    col_of: Vec<u32>,
    /// Row-major, `len() × stride`: `table[k * stride + j]` is eta `k`'s
    /// stored value at `pivotal[j]`, and 0.0 where its arena list holds
    /// none (as at its own pivotal position). `stride` exceeds
    /// `pivotal.len()` while the file is not empty, so column
    /// `pivotal.len()` is spare: a unit BTRAN gathers a `pos` that no eta
    /// pivots on into it, and `spare_of` names that position (`ETA_NONE`
    /// when the column holds none), so the pivot on `pos` that follows
    /// the BTRAN finds its new column filled.
    table: Vec<f64>,
    spare_of: u32,
    stride: usize,
    /// The etas the table has room for, and the most it can need: the
    /// file's length cap (the refactorization interval).
    rows_cap: usize,
    max_len: usize,
    /// The table's nonzeros by bit: `nonzero[k * words ..]` holds bit `j`
    /// of row `k` set exactly when `table[k * stride + j]` is not 0.0,
    /// `words` (`stride / 64`, rounded up) words a row.
    nonzero: Vec<u64>,
    words: usize,
    /// Unit-BTRAN scratch: the positions that can hold a nonzero,
    /// ascending, each with its column in `table`, and those columns by
    /// bit (`words` words, zero between passes).
    live: Vec<(u32, u32)>,
    live_bits: Vec<u64>,
}

/// Chain terminator / "no entry" sentinel for the eta row index and the
/// pivotal columns.
const ETA_NONE: u32 = u32::MAX;

/// The room the table grows to once `need` etas outgrow it: double, at
/// least 16, and never past `bound` (the most it can need) — so a file
/// that runs to the refactorization cap holds a table of exactly its
/// size, not a power of two past it.
fn grown(need: usize, bound: usize) -> usize {
    need.saturating_mul(2).max(16).min(bound.max(need))
}

/// The arena's drop rule: an off-pivot `w` entry this small (or NaN) is
/// not stored. The table applies it too, so its nonzeros are the stored
/// entries.
#[inline]
fn stored(v: f64) -> bool {
    v.abs() > 1e-12
}

/// Header of one eta: its pivotal basis position, the offset of its entry
/// list in the arena, and the pivot element `w[pos]`.
#[derive(Debug, Clone, Copy)]
pub(super) struct EtaHead {
    pub(super) pos: u32,
    pub(super) start: usize,
    pub(super) pivot: f64,
}

impl EtaFile {
    /// An empty file that will hold at most `max_len` etas.
    pub(super) fn new(max_len: usize) -> Self {
        EtaFile {
            heads: Vec::new(),
            at: Vec::new(),
            val: Vec::new(),
            pos_head: Vec::new(),
            link: Vec::new(),
            pivotal: Vec::new(),
            col_of: Vec::new(),
            table: Vec::new(),
            spare_of: ETA_NONE,
            stride: 0,
            rows_cap: 0,
            max_len,
            nonzero: Vec::new(),
            words: 0,
            live: Vec::new(),
            live_bits: Vec::new(),
        }
    }

    pub(super) fn len(&self) -> usize {
        self.heads.len()
    }

    pub(super) fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// How many distinct basis positions the etas pivot on.
    pub(super) fn pivotal_len(&self) -> usize {
        self.pivotal.len()
    }

    /// Stored entries, pivots included: the cost model's measure of the
    /// file.
    pub(super) fn nnz(&self) -> usize {
        self.at.len() + self.heads.len()
    }

    /// Sizes the per-position chain heads and columns (idempotent;
    /// one-time cost at engine construction and structural growth).
    pub(super) fn ensure_rows(&mut self, m: usize) {
        if self.pos_head.len() < m {
            self.pos_head.resize(m, ETA_NONE);
            self.col_of.resize(m, ETA_NONE);
        }
    }

    /// Drops every eta but keeps the allocated buffers (and the table's
    /// shape). Chain heads and columns are reset by walking the entries
    /// and the pivotal positions (cheaper than refilling all `m`).
    pub(super) fn clear(&mut self) {
        for &i in &self.at {
            self.pos_head[i as usize] = ETA_NONE;
        }
        for &p in &self.pivotal {
            self.col_of[p as usize] = ETA_NONE;
        }
        self.heads.clear();
        self.at.clear();
        self.val.clear();
        self.link.clear();
        self.pivotal.clear();
        self.table.clear();
        self.nonzero.clear();
        self.spare_of = ETA_NONE;
    }

    /// Pre-grows every buffer for `heads` further etas of `entries` entries
    /// in all, the table no further than the file's cap (used by the
    /// allocation-free probe harness).
    pub(super) fn reserve(&mut self, heads: usize, entries: usize) {
        self.heads.reserve(heads);
        self.at.reserve(entries);
        self.val.reserve(entries);
        self.link.reserve(entries);
        self.make_room((self.len() + heads).min(self.max_len));
    }

    #[inline]
    pub(super) fn head(&self, k: usize) -> EtaHead {
        self.heads[k]
    }

    /// Eta `k`'s off-pivot entries: positions ascending, and values.
    #[inline]
    fn entries_of(&self, k: usize) -> (&[u32], &[f64]) {
        let lo = self.heads[k].start;
        let hi = self.heads.get(k + 1).map_or(self.at.len(), |h| h.start);
        (&self.at[lo..hi], &self.val[lo..hi])
    }

    /// Table value of eta `k` in column `j`.
    #[cfg(test)]
    fn table_at(&self, k: usize, j: usize) -> f64 {
        self.table[k * self.stride + j]
    }

    /// Appends the eta of a pivot on basis position `pos` with FTRAN result
    /// `w` (position-indexed, pattern ascending or flagged dense): the
    /// arena list of every stored off-pivot entry ascending, and the table
    /// row read off `w` at the pivotal positions. A `pos` no earlier eta
    /// pivots on first becomes a column, holding the older etas' values
    /// there.
    pub(super) fn push(&mut self, pos: u32, w: &WorkVec) {
        let k = self.len();
        self.make_room(k + 1);
        if self.col_of[pos as usize] == ETA_NONE {
            let j = self.pivotal.len();
            if self.spare_of != pos {
                self.gather_column(j, pos);
            }
            self.pivotal.push(pos);
            self.col_of[pos as usize] = j as u32;
        }
        // The new row has nothing in the spare column.
        self.spare_of = ETA_NONE;

        self.heads.push(EtaHead {
            pos,
            start: self.at.len(),
            pivot: w.values[pos as usize],
        });
        for_each_entry(w, |p, wp| {
            if stored(wp) && p != pos as usize {
                let slot = self.at.len() as u32;
                self.link.push(self.pos_head[p]);
                self.pos_head[p] = slot;
                self.at.push(p as u32);
                self.val.push(wp);
            }
        });

        let (s, nw) = (self.stride, self.words);
        self.table.resize((k + 1) * s, 0.0);
        self.nonzero.resize((k + 1) * nw, 0);
        let row = &mut self.table[k * s..];
        let bits = &mut self.nonzero[k * nw..];
        for (j, (v, &p)) in row.iter_mut().zip(&self.pivotal).enumerate() {
            let wp = w.values[p as usize];
            *v = if p != pos && stored(wp) { wp } else { 0.0 };
            bits[j >> 6] |= u64::from(*v != 0.0) << (j & 63);
        }
    }

    /// Makes room for `rows` etas in every buffer a pivot writes past the
    /// arena. The table stays square: an eta adds at most one pivotal
    /// position, so `stride = rows_cap + 1` holds every column and the
    /// spare. Room grows by doubling, never past the file's cap, and every
    /// row moves to its new offset in place (last row first, so no row
    /// overwrites one not yet moved). Columns past `pivotal.len()` are
    /// never read before they are written, so their stale contents may
    /// move along.
    fn make_room(&mut self, rows: usize) {
        if rows <= self.rows_cap {
            return;
        }
        let cap = grown(rows, self.max_len);
        let (old, new) = (self.stride, cap + 1);
        let (ow, nw) = (self.words, new.div_ceil(64));
        self.table.reserve_exact(cap * new - self.table.len());
        self.table.resize(self.len() * new, 0.0);
        self.nonzero.reserve_exact(cap * nw - self.nonzero.len());
        self.nonzero.resize(self.len() * nw, 0);
        for k in (0..self.len()).rev() {
            self.table.copy_within(k * old..(k + 1) * old, k * new);
            self.nonzero.copy_within(k * ow..(k + 1) * ow, k * nw);
            self.nonzero[k * nw + ow..(k + 1) * nw].fill(0);
        }
        (self.rows_cap, self.stride, self.words) = (cap, new, nw);
        self.live_bits.resize(nw, 0);
        self.pivotal.reserve_exact(cap - self.pivotal.len());
        self.live.clear();
        self.live.reserve_exact(new);
    }

    /// Fills column `j` of the table (and its bits) with every eta's stored
    /// value at basis position `p` (0.0 where it stores none), by walking
    /// `p`'s chain.
    fn gather_column(&mut self, j: usize, p: u32) {
        let (s, nw) = (self.stride, self.words);
        let (word, bit) = (j >> 6, 1u64 << (j & 63));
        for v in self.table[j..].iter_mut().step_by(s) {
            *v = 0.0;
        }
        for b in self.nonzero[word..].iter_mut().step_by(nw) {
            *b &= !bit;
        }
        // The chain runs down the slots, so down the etas: eta `k` holds
        // slot `e` when it is the last to start at or before it.
        let (mut e, mut k) = (self.pos_head[p as usize], self.len());
        while e != ETA_NONE {
            let e_ = e as usize;
            while self.heads[k - 1].start > e_ {
                k -= 1;
            }
            self.table[(k - 1) * s + j] = self.val[e_];
            self.nonzero[(k - 1) * nw + word] |= bit;
            e = self.link[e_];
        }
    }

    /// The eta inverses of a BTRAN, newest first, over a dense `c`
    /// (position-indexed): each eta gathers over its full entry list into
    /// its pivotal position. The dense kernels' pass, and with them the
    /// oracle the unit pass is held to.
    pub(super) fn btran(&self, c: &mut [f64]) {
        for k in (0..self.len()).rev() {
            let head = self.head(k);
            let r = head.pos as usize;
            let mut acc = c[r];
            let (at, val) = self.entries_of(k);
            for (&i, &wi) in at.iter().zip(val) {
                acc -= c[i as usize] * wi;
            }
            c[r] = acc / head.pivot;
        }
    }

    /// The eta inverses of a BTRAN of `e_pos`, newest first: `c` holds the
    /// unit vector (its one tracked entry) on entry.
    ///
    /// An eta writes only its own pivotal position, so a live position
    /// (one `c` may hold a nonzero at) is `pos` or the pivotal position of
    /// an eta already applied — the marked entries of `c`. Each eta sums
    /// its table terms at the live positions, ascending: the nonzero terms
    /// of [`Self::btran`]'s gather in its order, the rest being products
    /// with an exact zero. An eta with no such term (its bits miss the
    /// live columns) over an unmarked head would write an exact zero
    /// nowhere, and is skipped. So the result is [`Self::btran`]'s bit for
    /// bit, up to the sign of cancelled zeros.
    pub(super) fn btran_unit(&mut self, c: &mut WorkVec) {
        debug_assert!(!c.is_dense() && c.pattern.len() == 1);
        if self.is_empty() {
            return;
        }
        let pos = c.pattern[0];
        let j = match self.col_of[pos as usize] {
            ETA_NONE => {
                let spare = self.pivotal.len();
                if self.spare_of != pos {
                    self.gather_column(spare, pos);
                    self.spare_of = pos;
                }
                spare as u32
            }
            j => j,
        };
        let mut live = std::mem::take(&mut self.live);
        let mut live_bits = std::mem::take(&mut self.live_bits);
        live.clear();
        live.push((pos, j));
        live_bits[j as usize >> 6] |= 1u64 << (j & 63);
        let (s, nw) = (self.stride, self.words);
        for k in (0..self.len()).rev() {
            let head = self.heads[k];
            let r = head.pos;
            let held = c.marked(r);
            let bits = &self.nonzero[k * nw..(k + 1) * nw];
            let terms = bits.iter().zip(&live_bits).any(|(a, b)| a & b != 0);
            if !terms && !held {
                continue;
            }
            let mut acc = c.values[r as usize];
            if terms {
                let row = &self.table[k * s..(k + 1) * s];
                for &(i, j) in &live {
                    // The product with an absent term's 0.0 is masked to
                    // +0.0, and subtracting +0.0 changes nothing, zero signs
                    // included: the term is skipped without a branch.
                    let wi = row[j as usize];
                    let keep = u64::from(wi != 0.0).wrapping_neg();
                    acc -= f64::from_bits((c.values[i as usize] * wi).to_bits() & keep);
                }
            }
            let t = acc / head.pivot;
            if t != 0.0 {
                if !held {
                    let (at, j) = (
                        live.partition_point(|&(i, _)| i < r),
                        self.col_of[r as usize],
                    );
                    live.insert(at, (r, j));
                    live_bits[j as usize >> 6] |= 1u64 << (j & 63);
                }
                c.set(r, t);
            } else if held {
                c.values[r as usize] = t;
            }
        }
        live_bits.fill(0);
        self.live = live;
        self.live_bits = live_bits;
    }

    /// The eta passes of an FTRAN, oldest first: each is a scatter from
    /// its pivotal position. A tracked `w` marks what it scatters into in
    /// bits ([`WorkVec::marked_scatter`]) and leaves with its pattern
    /// ascending; a dense one is plain arithmetic. Either way the
    /// arithmetic is the dense pass's, in its order.
    pub(super) fn ftran(&self, w: &mut WorkVec) {
        if w.is_dense() {
            let v = &mut w.values;
            for k in 0..self.len() {
                let head = self.head(k);
                let r = head.pos as usize;
                let t = v[r] / head.pivot;
                if t != 0.0 {
                    let (at, val) = self.entries_of(k);
                    for (&i, &wi) in at.iter().zip(val) {
                        v[i as usize] -= wi * t;
                    }
                }
                v[r] = t;
            }
            return;
        }
        let mut w = w.marked_scatter();
        for k in 0..self.len() {
            let head = self.head(k);
            // An index not held is an exact +0.0: its eta scatters nothing
            // and writes nothing.
            if !w.holds(head.pos) {
                continue;
            }
            let t = w.value(head.pos) / head.pivot;
            if t != 0.0 {
                let (at, val) = self.entries_of(k);
                w.sub_scaled(at, val, t);
            }
            w.set(head.pos, t);
        }
        // Dropping `w` sweeps the pattern.
    }
}

#[cfg(test)]
mod tests;
