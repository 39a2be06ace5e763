//! Differential oracle for `yen::k_shortest_paths`: the textbook Yen loop
//! over the unit-weight Dijkstra — the implementation the crate shipped
//! before the BFS kernel, the deviation index and the goal bound — must
//! return the same `Vec<Path>`, edge for edge, on every input. It calls
//! `shortest_path_weighted`, the heap search, not the fewest-hops BFS, so
//! it shares no search code with what it checks. Downstream schedules
//! are pinned to the bit, so "a shortest path" is not enough: it has to be
//! *the* path the reference picks among equal-length ones.

mod common;

use common::random_graph;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeSet;
use wavesched_net::dijkstra::shortest_path_weighted;
use wavesched_net::{
    abilene14, k_shortest_paths, waxman_network, EdgeId, Graph, NodeId, Path, PathSet, WaxmanConfig,
};

/// Fewest hops by Dijkstra under unit weights, through the given filters.
fn unit_dijkstra(
    g: &Graph,
    src: NodeId,
    dst: NodeId,
    edge_ok: impl Fn(EdgeId) -> bool,
    node_ok: impl Fn(NodeId) -> bool,
) -> Option<Path> {
    shortest_path_weighted(g, src, dst, |_| 1.0, edge_ok, node_ok).map(|(_, p)| p)
}

/// The reference: a from-scratch Dijkstra per spur, spurring every accepted
/// path from index 0, `BTreeSet` filters and dedup.
fn reference_yen(g: &Graph, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
    if k == 0 {
        return Vec::new();
    }
    let Some(first) = unit_dijkstra(g, src, dst, |_| true, |_| true) else {
        return Vec::new();
    };

    let path_weight = |p: &Path| -> f64 { p.len() as f64 };

    let mut accepted: Vec<Path> = vec![first];
    // Candidate pool: (weight, path). Deduplicated by edge sequence.
    let mut candidates: Vec<(f64, Path)> = Vec::new();
    let mut seen: BTreeSet<Vec<u32>> = BTreeSet::new();
    seen.insert(accepted[0].edges().iter().map(|e| e.0).collect());

    while accepted.len() < k {
        let Some(prev) = accepted.last().cloned() else {
            break; // unreachable: `accepted` starts non-empty and only grows
        };
        let prev_nodes = prev.nodes(g);

        // Spur from every node of the previous path except the destination.
        for i in 0..prev.len() {
            let spur_node = prev_nodes[i];
            let root_edges = &prev.edges()[..i];

            // Edges banned: the (i+1)-th edge of any accepted path sharing
            // the same root.
            let mut banned_edges = BTreeSet::new();
            for p in &accepted {
                if p.len() > i && p.edges()[..i] == *root_edges {
                    banned_edges.insert(p.edges()[i]);
                }
            }
            // Nodes banned: everything on the root before the spur node
            // (keeps the total path simple).
            let banned_nodes: BTreeSet<NodeId> = prev_nodes[..i].iter().copied().collect();

            let Some(spur) = unit_dijkstra(
                g,
                spur_node,
                dst,
                |e| !banned_edges.contains(&e),
                |v| !banned_nodes.contains(&v),
            ) else {
                continue;
            };

            let mut edges = root_edges.to_vec();
            edges.extend_from_slice(spur.edges());
            let key: Vec<u32> = edges.iter().map(|e| e.0).collect();
            if seen.insert(key) {
                // `Path::new` re-validates continuity and simplicity.
                let p = Path::new(g, edges);
                let w = path_weight(&p);
                candidates.push((w, p));
            }
        }

        // Pop the lightest candidate (deterministic tie-break on edges);
        // `min_by` is `None` exactly when the pool is exhausted.
        let Some(best) = candidates
            .iter()
            .enumerate()
            .min_by(|(_, (wa, pa)), (_, (wb, pb))| {
                wa.total_cmp(wb).then_with(|| pa.edges().cmp(pb.edges()))
            })
            .map(|(i, _)| i)
        else {
            break;
        };
        let (_, p) = candidates.swap_remove(best);
        accepted.push(p);
    }
    accepted
}

/// `count` distinct ordered pairs `src != dst`, drawn deterministically.
fn random_pairs(g: &Graph, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let n = g.num_nodes();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pairs = BTreeSet::new();
    while pairs.len() < count {
        let s = rng.random_range(0..n);
        let d = rng.random_range(0..n);
        if s != d {
            pairs.insert((NodeId(s as u32), NodeId(d as u32)));
        }
    }
    pairs.into_iter().collect()
}

fn edge_lists(paths: &[Path]) -> Vec<&[EdgeId]> {
    paths.iter().map(|p| p.edges()).collect()
}

/// Both entry points — the free function on a fresh workspace and a
/// `PathSet` carrying one workspace across all pairs — against the oracle.
fn assert_matches_reference(what: &str, g: &Graph, pairs: &[(NodeId, NodeId)], k: usize) {
    let mut ps = PathSet::new(k);
    for &(s, d) in pairs {
        let want = reference_yen(g, s, d, k);
        assert_eq!(
            edge_lists(&k_shortest_paths(g, s, d, k)),
            edge_lists(&want),
            "{what}: k_shortest_paths({s}, {d}, k={k})"
        );
        assert_eq!(
            edge_lists(ps.paths(g, s, d)),
            edge_lists(&want),
            "{what}: PathSet::paths({s}, {d}, k={k})"
        );
    }
}

#[test]
fn waxman100_matches_reference() {
    let g = waxman_network(&WaxmanConfig::paper_default(42));
    let pairs = random_pairs(&g, 400, 1);
    for k in [1, 4, 8, 16] {
        assert_matches_reference("waxman100", &g, &pairs, k);
    }
}

#[test]
fn waxman1000_k16_matches_reference() {
    // The `cg_waxman1000` benchmark network.
    let g = waxman_network(&WaxmanConfig {
        nodes: 1000,
        link_pairs: 2000,
        wavelengths: 2,
        alpha: 0.15,
        seed: 42,
    });
    assert_matches_reference("waxman1000", &g, &random_pairs(&g, 150, 2), 16);
}

#[test]
fn random_digraphs_match_reference() {
    // Sparse ones are disconnected (unreachable `dst`), dense ones carry
    // parallel edges; k = 40 exceeds the number of simple paths in most.
    let mut rng = StdRng::seed_from_u64(3);
    for case in 0..300u64 {
        let n = rng.random_range(2..15usize);
        let m = rng.random_range(1..50usize);
        let g = random_graph(case, n, m);
        let mut pairs = vec![
            (NodeId(0), NodeId((n - 1) as u32)),
            (NodeId((n - 1) as u32), NodeId(0)),
            (NodeId(0), NodeId(0)),
        ];
        pairs.push((
            NodeId(rng.random_range(0..n) as u32),
            NodeId(rng.random_range(0..n) as u32),
        ));
        for k in [1, 3, 40] {
            assert_matches_reference(&format!("case {case}"), &g, &pairs, k);
        }
    }
}

/// A `PathSet` extended rank by rank, one asked for all `k` and then for
/// one, and one visited in two scans that stop at different ranks, hold the
/// oracle's list at `k`, edge for edge: resuming a paused search cannot
/// change a path. Each pair is asked on every set before the next pair, so
/// every resumption follows searches of other pairs on the shared
/// workspace.
fn assert_resumption_matches_reference(
    what: &str,
    g: &Graph,
    pairs: &[(NodeId, NodeId)],
    k: usize,
) {
    let (mut stepped, mut whole, mut scanned) = (PathSet::new(k), PathSet::new(k), PathSet::new(k));
    for (at, &(s, d)) in pairs.iter().enumerate() {
        let want = reference_yen(g, s, d, k);
        // The first scan stops after rank `stop`, the second after the last.
        let stop = at % k;
        for upto in [stop, k - 1] {
            let mut seen = Vec::new();
            scanned.visit_while(g, s, d, |rank, p| {
                assert_eq!(rank, seen.len());
                seen.push(p.edges().to_vec());
                rank < upto
            });
            let n = (upto + 1).min(want.len());
            assert_eq!(
                seen.iter().map(Vec::as_slice).collect::<Vec<_>>(),
                edge_lists(&want[..n]),
                "{what}: visit_while({s}, {d}) to rank {upto} of k={k}"
            );
        }
        for n in 1..=k {
            assert_eq!(
                edge_lists(stepped.paths_upto(g, s, d, n)),
                edge_lists(&want[..n.min(want.len())]),
                "{what}: paths_upto({s}, {d}, {n}) of k={k}, asked rank by rank"
            );
        }
        assert_eq!(
            edge_lists(whole.paths_upto(g, s, d, k)),
            edge_lists(&want),
            "{what}: paths_upto({s}, {d}, {k})"
        );
        assert_eq!(
            edge_lists(whole.paths_upto(g, s, d, 1)),
            edge_lists(&want[..want.len().min(1)]),
            "{what}: paths_upto({s}, {d}, 1) after k={k}"
        );
        assert_eq!(edge_lists(stepped.paths(g, s, d)), edge_lists(&want));
    }
    // Every search ran to the end of the oracle's list and no further.
    let distinct: BTreeSet<(NodeId, NodeId)> = pairs.iter().copied().collect();
    let total: usize = distinct
        .iter()
        .map(|&(s, d)| reference_yen(g, s, d, k).len())
        .sum();
    assert_eq!(stepped.paths_found(), total, "{what}");
    assert_eq!(whole.paths_found(), total, "{what}");
    assert_eq!(scanned.paths_found(), total, "{what}");
}

#[test]
fn resumed_searches_match_reference_on_waxman_and_abilene() {
    let waxman100 = waxman_network(&WaxmanConfig::paper_default(42));
    assert_resumption_matches_reference(
        "waxman100",
        &waxman100,
        &random_pairs(&waxman100, 100, 4),
        16,
    );
    let waxman1000 = waxman_network(&WaxmanConfig {
        nodes: 1000,
        link_pairs: 2000,
        wavelengths: 2,
        alpha: 0.15,
        seed: 42,
    });
    assert_resumption_matches_reference(
        "waxman1000",
        &waxman1000,
        &random_pairs(&waxman1000, 40, 5),
        16,
    );
    let (abilene, nodes) = abilene14(4);
    let all: Vec<(NodeId, NodeId)> = nodes
        .iter()
        .flat_map(|&s| nodes.iter().map(move |&d| (s, d)))
        .collect();
    assert_resumption_matches_reference("abilene", &abilene, &all, 16);
}

/// The same on small random digraphs, which hold unreachable pairs,
/// `src == dst` and pairs with fewer than `k` simple paths.
#[test]
fn resumed_searches_match_reference_on_random_digraphs() {
    let mut rng = StdRng::seed_from_u64(6);
    let (mut short, mut unreachable) = (0, 0);
    for case in 0..200u64 {
        let n = rng.random_range(2..12usize);
        let m = rng.random_range(1..40usize);
        let g = random_graph(1000 + case, n, m);
        let mut pairs = vec![(NodeId(0), NodeId((n - 1) as u32)), (NodeId(0), NodeId(0))];
        pairs.push((
            NodeId(rng.random_range(0..n) as u32),
            NodeId(rng.random_range(0..n) as u32),
        ));
        for &(s, d) in &pairs {
            match reference_yen(&g, s, d, 6).len() {
                0 => unreachable += 1,
                1..6 => short += 1,
                _ => {}
            }
        }
        assert_resumption_matches_reference(&format!("case {case}"), &g, &pairs, 6);
    }
    assert!(
        short > 50 && unreachable > 200,
        "{short} short, {unreachable} unreachable"
    );
}

/// One `PathSet` carried from a small graph to a large one and back must
/// answer as a fresh one: whatever the earlier searches left in the
/// workspace (stamps, predecessors, distances indexed by another graph's
/// ids) may not leak into a later search.
#[test]
fn pathset_reused_across_graphs_of_different_sizes() {
    let big = waxman_network(&WaxmanConfig::paper_default(42));
    let small = random_graph(11, 12, 40);
    let mid = waxman_network(&WaxmanConfig {
        nodes: 30,
        link_pairs: 60,
        wavelengths: 4,
        alpha: 0.15,
        seed: 5,
    });
    let k = 8;
    let mut shared = PathSet::new(k);
    // The cache is keyed by pair alone, so each graph gets pairs no other
    // graph has asked for: every query below is a cache miss.
    let mut asked = BTreeSet::new();
    for (round, g) in [&small, &big, &mid, &small, &big].into_iter().enumerate() {
        let mut fresh_pairs = Vec::new();
        for pair in random_pairs(g, 40, 100 + round as u64) {
            if asked.insert(pair) {
                fresh_pairs.push(pair);
            }
        }
        assert!(fresh_pairs.len() >= 10, "round {round}: too few new pairs");
        for (s, d) in fresh_pairs {
            assert_eq!(
                edge_lists(shared.paths(g, s, d)),
                edge_lists(PathSet::new(k).paths(g, s, d)),
                "round {round}: shared workspace diverged on ({s}, {d})"
            );
        }
    }
}
