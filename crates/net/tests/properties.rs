//! Property-based tests for the network substrate: Waxman generation,
//! Dijkstra optimality, and Yen's k-shortest-path invariants on random
//! graphs.

mod common;

use common::random_graph;
use proptest::prelude::*;
use std::collections::VecDeque;
use wavesched_net::{k_shortest_paths, shortest_path, waxman_network, Graph, NodeId, WaxmanConfig};

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
