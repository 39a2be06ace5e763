//! Helpers shared by the integration tests of this crate.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use wavesched_net::Graph;

/// A random (not necessarily connected) digraph, parallel edges allowed.
pub fn random_graph(seed: u64, n: usize, m: usize) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new();
    let nodes = g.add_nodes(n);
    for _ in 0..m {
        let a = rng.random_range(0..n);
        let mut b = rng.random_range(0..n);
        if a == b {
            b = (b + 1) % n;
        }
        g.add_link(nodes[a], nodes[b], 1 + rng.random_range(0..4));
    }
    g
}
