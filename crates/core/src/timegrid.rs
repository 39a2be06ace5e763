//! Time slices and the slice window of a request.
//!
//! The controller divides time into slices; wavelength assignments are
//! constant within a slice. Every slice is a unit: global slice `j` covers
//! `[j, j + 1)`, so the paper's `LEN(j)` is 1 everywhere and every
//! formulation writes a column's volume as its wavelength count. A grid is
//! just the range of slice indices it addresses — two integers, no
//! storage, the same cost at slice 100 000 as at slice 0.
//!
//! **Window convention.** The paper zeroes `x_i(p, j)` for `j <= I(S_i)` or
//! `j > I(E_i)`. When requested times fall on slice boundaries that equals
//! "slices fully contained in `[S_i, E_i]`", which is the rule implemented
//! here; for mid-slice times the contained-slices rule is the conservative
//! reading that actually guarantees "finish before the requested end time".

use std::ops::Range;
use wavesched_workload::Job;

/// The consecutive unit slices `first_slice()..num_slices()`, by global
/// index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeGrid {
    first: usize,
    end: usize,
}

impl TimeGrid {
    /// The grid the windows of `jobs` span: from the first slice any job
    /// may use through the last requested end time. Slices before the
    /// earliest start can carry no variable, so the clock at which the jobs
    /// are scheduled is not an input. Never empty (one slice when there are
    /// no jobs or no job's window holds a whole slice).
    pub(crate) fn covering(jobs: &[Job]) -> Self {
        let end = jobs.iter().map(|j| j.end).fold(1.0_f64, f64::max).ceil() as usize;
        let first = jobs
            .iter()
            .map(|j| j.start.ceil() as usize)
            .min()
            .unwrap_or(0)
            .min(end - 1);
        TimeGrid { first, end }
    }

    /// One past the last slice: valid global slice indices are
    /// `first_slice()..num_slices()`.
    pub fn num_slices(&self) -> usize {
        self.end
    }

    /// First global slice index of the grid.
    pub fn first_slice(&self) -> usize {
        self.first
    }

    /// End time of slice `j`.
    pub fn end_of(&self, j: usize) -> f64 {
        (j + 1) as f64
    }

    /// The slices on which a job with requested window `[start, end]` may be
    /// assigned wavelengths: slices fully contained in the window, clipped
    /// to the grid. May be empty.
    pub fn window_slices(&self, start: f64, end: f64) -> Range<usize> {
        assert!(start <= end, "window crossed");
        let clip = |t: f64| (t as usize).clamp(self.first, self.end);
        let first = clip(start.ceil());
        first..clip(end.floor()).max(first)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavesched_net::NodeId;
    use wavesched_workload::JobId;

    fn grid(first: usize, end: usize) -> TimeGrid {
        TimeGrid { first, end }
    }

    fn job(start: f64, end: f64) -> Job {
        Job::new(JobId(0), 0.0, NodeId(0), NodeId(1), 1.0, start, end)
    }

    #[test]
    fn unit_slices_by_global_index() {
        let g = grid(12, 20);
        assert_eq!(g.first_slice(), 12);
        assert_eq!(g.num_slices(), 20);
        assert_eq!(g.end_of(15), 16.0);
    }

    #[test]
    fn window_on_boundaries() {
        let g = grid(0, 10);
        assert_eq!(g.window_slices(2.0, 6.0), 2..6);
        assert_eq!(g.window_slices(0.0, 10.0), 0..10);
    }

    #[test]
    fn window_mid_slice_is_conservative() {
        let g = grid(0, 10);
        // Start mid-slice: first fully-contained slice is 3.
        assert_eq!(g.window_slices(2.5, 6.0), 3..6);
        // End mid-slice: slice 5 ([5,6)) not fully contained in [2, 5.5].
        assert_eq!(g.window_slices(2.0, 5.5), 2..5);
    }

    #[test]
    fn empty_window() {
        assert!(grid(0, 10).window_slices(2.5, 3.2).is_empty());
        assert!(grid(0, 10).window_slices(3.0, 3.0).is_empty());
    }

    #[test]
    fn window_clips_to_grid() {
        assert_eq!(grid(0, 5).window_slices(3.0, 50.0), 3..5);
        assert_eq!(grid(12, 20).window_slices(3.0, 16.0), 12..16);
        assert!(grid(12, 20).window_slices(3.0, 7.0).is_empty());
        assert!(grid(12, 20).window_slices(25.0, 30.0).is_empty());
    }

    #[test]
    fn covering_spans_the_windows_and_nothing_before_them() {
        let g = TimeGrid::covering(&[job(100_003.5, 100_010.0), job(100_002.0, 100_007.2)]);
        assert_eq!((g.first_slice(), g.num_slices()), (100_002, 100_010));
        assert_eq!(g.window_slices(100_003.5, 100_010.0), 100_004..100_010);
        assert_eq!(g.window_slices(100_002.0, 100_007.2), 100_002..100_007);
    }

    #[test]
    fn covering_is_never_empty() {
        let none = TimeGrid::covering(&[]);
        assert_eq!((none.first_slice(), none.num_slices()), (0, 1));
        // A window holding no whole slice still leaves a one-slice grid.
        let closed = TimeGrid::covering(&[job(3.0, 3.0)]);
        assert_eq!((closed.first_slice(), closed.num_slices()), (2, 3));
    }
}
