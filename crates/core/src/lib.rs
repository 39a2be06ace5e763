//! # wavesched-core — the paper's scheduling algorithms
//!
//! Implements the admission-control and scheduling algorithms of *Wang,
//! Ranka, Xia — "Slotted Wavelength Scheduling for Bulk Transfers in
//! Research Networks"* (ICPP 2009):
//!
//! * [`timegrid`] — unit time slices and the slice-index map `I(·)`.
//! * [`instance`] — a scheduling instance: network + jobs + allowed paths +
//!   normalized demands, with the `(job, path, slice)` variable enumeration
//!   shared by every formulation.
//! * [`schedule`] — wavelength-assignment schedules and their metrics
//!   (per-job throughput `Z_i`, weighted throughput, completion times,
//!   capacity checks).
//! * [`stage1`] — the Stage-1 maximum concurrent throughput LP (eqs. 1–5).
//! * [`stage2`] — the Stage-2 weighted-throughput LP with the fairness
//!   constraint `Z_i >= (1-alpha) Z*` (eqs. 7–10, relaxed).
//! * [`lpdar`](crate::lpdar()) (module `lpdar`) — **LPD** (truncation) and
//!   **LPDAR** (truncation + the greedy bandwidth adjustment of
//!   Algorithm 1), the paper's key heuristic.
//! * [`ret`] — the Relaxing-End-Times problem: SUB-RET with the
//!   Quick-Finish objective and Algorithm 2's binary search + δ-growth.
//! * [`pipeline`] — the end-to-end "maximize throughput with end-time
//!   guarantee" pipeline with per-stage timings (Figs. 1–3).
//! * [`controller`] — the periodic network controller that re-optimizes
//!   every τ, carrying unfinished jobs forward, with the three overload
//!   actions: reject (footnote 1's binary search), shrink demands, extend
//!   deadlines.
//! * [`colgen`] — the work counters of the column-generated drivers, which
//!   answer the same LPs over the same Yen paths without materializing
//!   every column.
//!
//! Eight functions run the algorithms: [`solve_stage1`], [`solve_stage2`],
//! [`max_throughput_pipeline`], [`max_throughput_pipeline_colgen`],
//! [`solve_ret`], [`solve_ret_with_demands`], [`solve_ret_colgen`] and
//! [`Controller::invoke`]. The restricted master behind the two `_colgen`
//! drivers and the admission search behind [`OverloadPolicy::Reject`] are
//! the crate's internals.

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![cfg_attr(not(test), warn(clippy::float_cmp))]

pub(crate) mod admission;
pub(crate) mod builders;
pub mod colgen;
pub mod controller;
pub mod instance;
pub mod lpdar;
pub mod pipeline;
pub mod report;
pub mod ret;
pub mod schedule;
pub mod stage1;
pub mod stage2;
pub mod timegrid;

pub use colgen::{CgStats, ColGenConfig, PricerChoice};
pub use controller::{Controller, ControllerConfig, OverloadPolicy};
pub use instance::{Instance, InstanceConfig, VarMap};
pub use lpdar::{adjust_rates, adjust_rates_capped, lpdar, truncate, AdjustOrder};
pub use pipeline::{max_throughput_pipeline, max_throughput_pipeline_colgen, PipelineResult};
pub use ret::{solve_ret, solve_ret_colgen, solve_ret_with_demands, RetConfig, RetResult};
pub use schedule::Schedule;
pub use stage1::solve_stage1;
pub use stage2::solve_stage2;
pub use timegrid::TimeGrid;
