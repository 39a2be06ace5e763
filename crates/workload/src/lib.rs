//! # wavesched-workload — bulk-transfer job model and generators
//!
//! The paper models each request as a 6-tuple `(A_i, s_i, d_i, D_i, S_i,
//! E_i)`: arrival time, source, destination, size, requested start time and
//! requested end time. This crate provides:
//!
//! * [`Job`] — the request tuple, with times in *slice units* (the length of
//!   one scheduling time slice is the time unit).
//! * [`generator`] — seeded random workloads matching the paper's setup
//!   (sizes uniform on [1, 100] GB, random source/destination pairs,
//!   Poisson or batch arrivals).

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod generator;
pub mod job;
pub mod trace;

pub use generator::{ArrivalModel, JobStream, WorkloadConfig, WorkloadGenerator};
pub use job::{Job, JobId};
pub use trace::{parse_trace, write_trace, TraceError, TraceReader};
