//! # wavesched-net — network substrate
//!
//! Directed graphs with per-link wavelength capacities, the topologies used
//! in the paper's evaluation, and path machinery:
//!
//! * [`Graph`] — compact directed graph; links carry a wavelength count.
//! * [`waxman`] — BRITE-style Waxman random topologies ("100 to 400 nodes,
//!   average node degree 4" in the paper).
//! * [`abilene`] — the Abilene (Internet2) backbone instances.
//! * [`dijkstra`] — shortest paths.
//! * [`yen`] — Yen's k-shortest loopless paths, used to build the per-job
//!   allowed path sets `P(s_i, d_i, j)` (the paper finds 4–8 paths per job
//!   sufficient).
//! * [`pathset`] — cached allowed-path collections per (source, destination).

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod abilene;
pub mod dijkstra;
pub mod dot;
pub mod esnet;
pub mod graph;
pub mod pathset;
pub mod waxman;
pub mod yen;

pub use abilene::{abilene14, abilene20};
pub use dijkstra::{shortest_path, shortest_path_weighted};
pub use dot::{to_dot, to_dot_with_load};
pub use esnet::esnet;
pub use graph::{EdgeId, Graph, NodeId, Path};
pub use pathset::PathSet;
pub use waxman::{waxman_network, WaxmanConfig};
pub use yen::k_shortest_paths;
