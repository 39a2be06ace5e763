//! Reusable LP-construction scratch, recycled across controller
//! invocations.
//!
//! Building the LP of an instance (once per instance: Stage 2 and the RET
//! probe are forms installed on it) needs a handful of
//! short-lived buffers: the column handles aligned with the instance's
//! `VarMap` and a coefficient buffer refilled once per LP row. Allocating
//! them fresh on every controller period is wasted work in a long-running
//! replay, so they live in a [`BuildArena`] owned by the caller — the
//! `Controller` holds one for its lifetime, one-shot entry points create a
//! throwaway — following the `WorkVec` pattern the simplex kernels use.
//!
//! Every reuse of a previously-grown buffer is counted on the
//! `mem.arena_reuse_hits` counter (visible in `--report` output), which is
//! how the streaming benches prove steady-state builds stop allocating.

use wavesched_lp::Col;
use wavesched_obs as obs;

/// Scratch buffers for LP construction; see the module docs.
///
/// Acquire the buffers through [`BuildArena::scratch`]; they come back
/// cleared but with their capacity intact.
#[derive(Debug, Default)]
pub(crate) struct BuildArena {
    cols: Vec<Col>,
    coeffs: Vec<(Col, f64)>,
}

impl BuildArena {
    /// An empty arena. Buffers grow on first use and are kept thereafter.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Clears and hands out the column and row-coefficient buffers.
    /// Records an `mem.arena_reuse_hits` counter tick when previously-grown
    /// capacity is being recycled.
    pub(crate) fn scratch(&mut self) -> (&mut Vec<Col>, &mut Vec<(Col, f64)>) {
        if self.cols.capacity() > 0 || self.coeffs.capacity() > 0 {
            obs::counter_add("mem.arena_reuse_hits", 1);
        }
        self.cols.clear();
        self.coeffs.clear();
        (&mut self.cols, &mut self.coeffs)
    }
}
