//! Property-based tests for the network substrate: Waxman generation,
//! Dijkstra optimality, the fewest-hops BFS against the heap search, and
//! Yen's k-shortest-path invariants on random graphs.

mod common;

use common::random_graph;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::VecDeque;
use wavesched_net::dijkstra::shortest_path_filtered;
use wavesched_net::{
    k_shortest_paths, shortest_path, shortest_path_weighted, waxman_network, EdgeId, Graph, NodeId,
    WaxmanConfig,
};

/// BFS hop distance, as an independent oracle for Dijkstra on unit weights.
fn bfs_hops(g: &Graph, src: NodeId, dst: NodeId) -> Option<usize> {
    let mut dist = vec![usize::MAX; g.num_nodes()];
    let mut q = VecDeque::new();
    dist[src.index()] = 0;
    q.push_back(src);
    while let Some(v) = q.pop_front() {
        if v == dst {
            return Some(dist[v.index()]);
        }
        for &e in g.out_edges(v) {
            let w = g.dst(e);
            if dist[w.index()] == usize::MAX {
                dist[w.index()] = dist[v.index()] + 1;
                q.push_back(w);
            }
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn waxman_always_connected_and_exact(
        seed in any::<u64>(),
        n in 3usize..40,
        extra in 0usize..30,
    ) {
        let max_pairs = n * (n - 1) / 2;
        let pairs = (n - 1 + extra).min(max_pairs);
        let g = waxman_network(&WaxmanConfig {
            nodes: n,
            link_pairs: pairs,
            wavelengths: 4,
            alpha: 0.15,
            seed,
        });
        prop_assert_eq!(g.num_nodes(), n);
        prop_assert_eq!(g.num_edges(), 2 * pairs);
        prop_assert!(g.is_strongly_connected());
        // No duplicate directed links.
        let mut seen: Vec<(u32, u32)> = g.edge_ids().map(|e| (g.src(e).0, g.dst(e).0)).collect();
        seen.sort();
        let before = seen.len();
        seen.dedup();
        prop_assert_eq!(before, seen.len());
    }

    #[test]
    fn dijkstra_matches_bfs(seed in any::<u64>(), n in 2usize..25, m in 1usize..80) {
        let g = random_graph(seed, n, m);
        let src = NodeId(0);
        let dst = NodeId((n - 1) as u32);
        if src == dst { return Ok(()); }
        let d = shortest_path(&g, src, dst).map(|p| p.len());
        prop_assert_eq!(d, bfs_hops(&g, src, dst));
    }

    /// The level-ordered BFS and the unit-weight heap search pick the same
    /// path, edge for edge, under random edge and node bans; both give up
    /// on `src == dst` and on a `dst` nothing reaches.
    #[test]
    fn fewest_hops_bfs_equals_unit_weight_dijkstra(
        seed in any::<u64>(),
        n in 2usize..25,
        m in 0usize..80,
        ban_seed in any::<u64>(),
    ) {
        let mut g = random_graph(seed, n, m);
        let isolated = g.add_nodes(1)[0];
        let mut rng = StdRng::seed_from_u64(ban_seed);
        let edge_banned: Vec<bool> =
            (0..g.num_edges()).map(|_| rng.random_range(0..4) == 0).collect();
        let node_banned: Vec<bool> =
            (0..g.num_nodes()).map(|_| rng.random_range(0..6) == 0).collect();
        let edge_ok = |e: EdgeId| !edge_banned[e.index()];
        let node_ok = |v: NodeId| !node_banned[v.index()];
        let v = NodeId(rng.random_range(0..n) as u32);
        let mut pairs = vec![(NodeId(0), isolated), (v, v)];
        for _ in 0..6 {
            pairs.push((
                NodeId(rng.random_range(0..n) as u32),
                NodeId(rng.random_range(0..n) as u32),
            ));
        }
        for (i, (s, d)) in pairs.into_iter().enumerate() {
            let bfs = shortest_path_filtered(&g, s, d, edge_ok, node_ok);
            let heap = shortest_path_weighted(&g, s, d, |_| 1.0, edge_ok, node_ok);
            prop_assert_eq!(
                bfs.as_ref().map(|p| p.edges()),
                heap.as_ref().map(|(_, p)| p.edges()),
                "({}, {})", s, d
            );
            if i < 2 {
                prop_assert!(bfs.is_none());
            }
        }
    }

    #[test]
    fn yen_paths_invariants(seed in any::<u64>(), n in 3usize..15, m in 4usize..50, k in 1usize..8) {
        let g = random_graph(seed, n, m);
        let src = NodeId(0);
        let dst = NodeId((n - 1) as u32);
        let paths = k_shortest_paths(&g, src, dst, k);
        prop_assert!(paths.len() <= k);
        // Sorted by hops, simple, correct endpoints, pairwise distinct.
        for w in paths.windows(2) {
            prop_assert!(w[0].len() <= w[1].len());
            prop_assert!(w[0].edges() != w[1].edges());
        }
        for p in &paths {
            prop_assert_eq!(p.source(&g), src);
            prop_assert_eq!(p.target(&g), dst);
            let nodes = p.nodes(&g);
            let mut d = nodes.clone();
            d.sort();
            d.dedup();
            prop_assert_eq!(d.len(), nodes.len(), "loop in path");
        }
        // First path is THE shortest (matches Dijkstra).
        if let Some(first) = paths.first() {
            let d = shortest_path(&g, src, dst).unwrap().len();
            prop_assert_eq!(first.len(), d);
        } else {
            prop_assert!(shortest_path(&g, src, dst).is_none());
        }
    }
}
