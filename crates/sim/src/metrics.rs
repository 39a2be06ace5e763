//! Simulation outcome metrics.

use crate::stream::StreamReport;
use std::collections::BTreeMap;
use wavesched_workload::JobId;

/// What happened to one job by the end of the simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JobOutcome {
    /// Rejected at admission (only under the `Reject` policy).
    Rejected,
    /// Received its full demand at the given time. No policy completes a job
    /// at less: what is unmet when the window ends is [`JobOutcome::Expired`].
    Completed {
        /// Slice-unit time at which the cumulative transfer reached the
        /// demand.
        at: f64,
        /// Whether completion happened by the *originally requested* end.
        on_time: bool,
    },
    /// Its window elapsed before the demand was met.
    Expired,
    /// Still in flight when the simulation stopped.
    Unfinished,
}

/// Results of a simulation run over a preloaded trace: every job's outcome
/// beside the event loop's aggregate report.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Final outcome per job of the trace, dispatched or not.
    pub outcomes: BTreeMap<JobId, JobOutcome>,
    /// Counts, volumes and utilization over the jobs dispatched before the
    /// simulation stopped.
    pub totals: StreamReport,
}

impl SimReport {
    /// Fraction of all jobs that completed.
    pub fn completion_rate(&self) -> f64 {
        self.rate(|o| matches!(o, JobOutcome::Completed { .. }))
    }

    /// Fraction of all jobs that completed by their original deadline.
    pub fn on_time_rate(&self) -> f64 {
        self.rate(|o| matches!(o, JobOutcome::Completed { on_time: true, .. }))
    }

    /// Fraction of all jobs rejected at admission.
    pub fn rejection_rate(&self) -> f64 {
        self.rate(|o| matches!(o, JobOutcome::Rejected))
    }

    /// Fraction of all jobs that expired unfinished.
    pub fn expiry_rate(&self) -> f64 {
        self.rate(|o| matches!(o, JobOutcome::Expired))
    }

    /// Mean completion time of completed jobs, `None` when none completed.
    pub fn average_end_time(&self) -> Option<f64> {
        let times: Vec<f64> = self
            .outcomes
            .values()
            .filter_map(|o| match o {
                JobOutcome::Completed { at, .. } => Some(*at),
                _ => None,
            })
            .collect();
        if times.is_empty() {
            None
        } else {
            Some(times.iter().sum::<f64>() / times.len() as f64)
        }
    }

    fn rate(&self, pred: impl Fn(&JobOutcome) -> bool) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        let n = self.outcomes.values().filter(|o| pred(o)).count();
        n as f64 / self.outcomes.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        let mut outcomes = BTreeMap::new();
        outcomes.insert(
            JobId(0),
            JobOutcome::Completed {
                at: 4.0,
                on_time: true,
            },
        );
        outcomes.insert(
            JobId(1),
            JobOutcome::Completed {
                at: 8.0,
                on_time: false,
            },
        );
        outcomes.insert(JobId(2), JobOutcome::Rejected);
        outcomes.insert(JobId(3), JobOutcome::Expired);
        SimReport {
            outcomes,
            totals: StreamReport::default(),
        }
    }

    #[test]
    fn rates() {
        let r = report();
        assert!((r.completion_rate() - 0.5).abs() < 1e-12);
        assert!((r.on_time_rate() - 0.25).abs() < 1e-12);
        assert!((r.rejection_rate() - 0.25).abs() < 1e-12);
        assert!((r.expiry_rate() - 0.25).abs() < 1e-12);
        assert_eq!(r.average_end_time(), Some(6.0));
    }

    #[test]
    fn empty_report() {
        let r = SimReport {
            outcomes: BTreeMap::new(),
            totals: StreamReport::default(),
        };
        // Empty-report semantics: every rate is exactly 0.0 — never NaN
        // (the 0/0 family of bugs; `assert_eq!` would accept nothing else,
        // since NaN != NaN).
        assert_eq!(r.completion_rate(), 0.0);
        assert_eq!(r.on_time_rate(), 0.0);
        assert_eq!(r.rejection_rate(), 0.0);
        assert_eq!(r.expiry_rate(), 0.0);
        assert_eq!(r.totals.goodput(), 0.0);
        assert!(!r.completion_rate().is_nan());
        assert!(!r.on_time_rate().is_nan());
        assert!(!r.rejection_rate().is_nan());
        assert!(!r.expiry_rate().is_nan());
        assert_eq!(r.average_end_time(), None);
    }
}
