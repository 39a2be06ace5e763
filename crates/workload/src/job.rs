//! The bulk-transfer job request tuple.

use wavesched_net::NodeId;

/// Handle to a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u32);

impl JobId {
    /// Index of the job in its workload.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// A bulk-transfer request: the paper's 6-tuple
/// `(A_i, s_i, d_i, D_i, S_i, E_i)`.
///
/// All times are in *slice units*: the scheduling grid's slice length is the
/// time unit, so slice `j` covers `[j, j+1)` on the default uniform grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Job identity (`i`).
    pub id: JobId,
    /// Arrival time of the request (`A_i`).
    pub arrival: f64,
    /// Source node (`s_i`).
    pub src: NodeId,
    /// Destination node (`d_i`).
    pub dst: NodeId,
    /// Raw file size in gigabytes (`D_i` before normalization).
    pub size_gb: f64,
    /// Requested start time (`S_i >= A_i`).
    pub start: f64,
    /// Requested end time (`E_i >= S_i`).
    pub end: f64,
}

impl Job {
    /// Creates a job, validating the time ordering `A <= S <= E` and a
    /// positive size.
    ///
    /// # Panics
    /// Panics on violated invariants.
    pub fn new(
        id: JobId,
        arrival: f64,
        src: NodeId,
        dst: NodeId,
        size_gb: f64,
        start: f64,
        end: f64,
    ) -> Self {
        assert!(size_gb > 0.0, "job size must be positive");
        assert!(src != dst, "source and destination must differ");
        assert!(
            arrival <= start && start <= end,
            "job times must satisfy A <= S <= E (got {arrival}, {start}, {end})"
        );
        Job {
            id,
            arrival,
            src,
            dst,
            size_gb,
            start,
            end,
        }
    }

    /// Length of the requested transfer window, in slice units.
    pub fn window(&self) -> f64 {
        self.end - self.start
    }

    /// Returns a copy with the end time, measured from `origin`, extended by
    /// the factor `1 + b`: `E -> origin + (E - origin)(1 + b)` (the RET
    /// relaxation `I((1+b) E_i)` operates on this). The paper schedules once,
    /// at time 0; a periodic controller passes the scheduling instant, so a
    /// request is extended the same whenever it is scheduled.
    pub fn with_extended_end(&self, b: f64, origin: f64) -> Job {
        assert!(b >= 0.0, "extension factor must be nonnegative");
        let mut j = self.clone();
        j.end = origin + (self.end - origin) * (1.0 + b);
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk() -> Job {
        Job::new(JobId(0), 0.0, NodeId(0), NodeId(1), 50.0, 1.0, 9.0)
    }

    #[test]
    fn window_and_scaling() {
        let j = mk();
        assert_eq!(j.window(), 8.0);
        let e = j.with_extended_end(0.5, 0.0);
        assert_eq!(e.end.to_bits(), (j.end * 1.5).to_bits());
        assert_eq!(e.start, j.start);
        // Measured from the scheduling instant, the extension is the same
        // at any clock.
        assert_eq!(j.with_extended_end(0.5, 1.0).end, 13.0);
    }

    #[test]
    #[should_panic(expected = "A <= S <= E")]
    fn bad_times_panic() {
        Job::new(JobId(0), 5.0, NodeId(0), NodeId(1), 1.0, 1.0, 9.0);
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn same_endpoints_panic() {
        Job::new(JobId(0), 0.0, NodeId(0), NodeId(0), 1.0, 1.0, 9.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_size_panics() {
        Job::new(JobId(0), 0.0, NodeId(0), NodeId(1), 0.0, 1.0, 9.0);
    }
}
