//! # wavesched-sim — discrete-event simulation of the periodic controller
//!
//! The paper's framework runs admission control and scheduling every τ time
//! units while transfers execute on the slices in between. This crate
//! closes that loop:
//!
//! * [`stream`] — the one slice-by-slice event loop: feed arrivals to the
//!   [`Controller`](wavesched_core::Controller) at each invocation instant,
//!   execute the returned integral schedule one slice at a time, report
//!   actual progress back. It pulls jobs lazily and keeps nothing per job
//!   — the controller holds the one ledger of remaining demand — so
//!   replaying a million-job trace costs memory proportional to the
//!   controller's active set, not the trace.
//! * [`engine`] — [`SimConfig`], and [`run_simulation`]: the same loop over
//!   a preloaded trace, collecting every job's outcome.
//! * [`metrics`] — what came out per job: completion/on-time rates,
//!   rejections, expiries, average end times, beside the loop's aggregate
//!   [`StreamReport`] (volume moved, link utilization).

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod engine;
pub mod metrics;
pub mod stream;

pub use engine::{run_simulation, SimConfig};
pub use metrics::{JobOutcome, SimReport};
pub use stream::{run_simulation_streamed, MemProfile, StreamReport};
