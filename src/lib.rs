//! # wavesched — slotted wavelength scheduling for bulk transfers
//!
//! Facade crate for the reproduction of *Wang, Ranka, Xia — "Slotted
//! Wavelength Scheduling for Bulk Transfers in Research Networks"*
//! (ICPP 2009). Re-exports the workspace crates under stable module names:
//!
//! * [`lp`] — from-scratch sparse revised simplex LP solver + branch-and-bound MILP
//! * [`net`] — directed graphs, Waxman generator, Abilene topology, k-shortest paths
//! * [`workload`] — bulk-transfer job model and seeded generators
//! * [`core`] — the paper's algorithms: Stage-1 MCF, Stage-2, LPD, LPDAR, RET,
//!   admission control, periodic controller
//! * [`sim`] — discrete-event simulation of the controller loop
//! * [`obs`] — zero-dependency observability: spans, counters, histograms,
//!   JSON-lines reports
//!
//! The algorithms run on the calling thread and spawn none. The figure
//! binaries' sweep pool lives in `crates/bench`.
//!
//! See the repository `README.md` for a quickstart and `DESIGN.md` for the
//! full system inventory and experiment index.

#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub use wavesched_core as core;
pub use wavesched_lp as lp;
pub use wavesched_net as net;
pub use wavesched_obs as obs;
pub use wavesched_sim as sim;
pub use wavesched_workload as workload;
