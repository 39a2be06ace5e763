//! The product-form eta file.

/// The product-form eta file: `B_new = B_old * E_1 … E_k`, each `E` the
/// identity with column `pos` replaced by `w = B_old^{-1} a_q`.
///
/// Stored as a flat arena — every eta's entry list lives back-to-back in
/// one buffer — so steady-state pivots append without allocating once the
/// buffers reach their working set, and clearing at refactorization keeps
/// the capacity.
#[derive(Debug, Clone, Default)]
pub(super) struct EtaFile {
    pub(super) heads: Vec<EtaHead>,
    /// `(basis position, w value)` entries, ascending by position within
    /// each eta — the BTRAN gather order depends on it.
    pub(super) entries: Vec<(u32, f64)>,
    /// Row-wise index over the arena: `pos_head[i]` is the most recent
    /// entry slot referencing basis position `i` (`ETA_NONE` if none), and
    /// `link`/`eta_of` run parallel to `entries`, chaining each slot to
    /// the previous one for the same position and naming its eta. Lets a
    /// sparse BTRAN visit only the etas that intersect its pattern.
    pub(super) pos_head: Vec<u32>,
    pub(super) link: Vec<u32>,
    pub(super) eta_of: Vec<u32>,
}

/// Chain terminator / "no entry" sentinel for the eta row index.
pub(super) const ETA_NONE: u32 = u32::MAX;

/// Header of one eta: its pivotal basis position, the offset of its entry
/// list in the arena, and the pivot element `w[pos]`.
#[derive(Debug, Clone, Copy)]
pub(super) struct EtaHead {
    pub(super) pos: u32,
    pub(super) start: usize,
    pub(super) pivot: f64,
}

impl EtaFile {
    pub(super) fn len(&self) -> usize {
        self.heads.len()
    }

    pub(super) fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Sizes the per-position chain heads (idempotent; one-time cost at
    /// engine construction).
    pub(super) fn ensure_rows(&mut self, m: usize) {
        if self.pos_head.len() < m {
            self.pos_head.resize(m, ETA_NONE);
        }
    }

    /// Drops every eta but keeps the allocated buffers. Chain heads are
    /// reset by walking the entries (cheaper than refilling all `m`).
    pub(super) fn clear(&mut self) {
        for &(i, _) in &self.entries {
            self.pos_head[i as usize] = ETA_NONE;
        }
        self.heads.clear();
        self.entries.clear();
        self.link.clear();
        self.eta_of.clear();
    }

    /// Pre-grows the arena (used by the allocation-free probe harness).
    pub(super) fn reserve(&mut self, heads: usize, entries: usize) {
        self.heads.reserve(heads);
        self.entries.reserve(entries);
        self.link.reserve(entries);
        self.eta_of.reserve(entries);
    }

    #[inline]
    pub(super) fn head(&self, k: usize) -> EtaHead {
        self.heads[k]
    }

    #[inline]
    pub(super) fn entries_of(&self, k: usize) -> &[(u32, f64)] {
        let lo = self.heads[k].start;
        let hi = self
            .heads
            .get(k + 1)
            .map_or(self.entries.len(), |h| h.start);
        &self.entries[lo..hi]
    }

    /// Opens a new eta; its entries follow via [`Self::push_entry`].
    pub(super) fn begin(&mut self, pos: u32, pivot: f64) {
        self.heads.push(EtaHead {
            pos,
            start: self.entries.len(),
            pivot,
        });
    }

    pub(super) fn push_entry(&mut self, i: u32, v: f64) {
        let slot = self.entries.len() as u32;
        self.link.push(self.pos_head[i as usize]);
        self.eta_of.push(self.heads.len() as u32 - 1);
        self.pos_head[i as usize] = slot;
        self.entries.push((i, v));
    }
}
