//! Differential oracle for `waxman::waxman_network`: the generator the crate
//! shipped before the Fenwick sampler — every extra link found by a linear
//! scan over the remaining candidate pairs — must build the same graph, edge
//! for edge. Every figure, benchmark digest and answer pin downstream is a
//! function of the topology, so "a Waxman network of that size" is not
//! enough: it has to be *the* network the scan draws from the same seed.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use wavesched_net::{waxman_network, Graph, NodeId, WaxmanConfig};

/// The reference: the O(links · n²) scan generator.
fn reference_waxman(cfg: &WaxmanConfig) -> Graph {
    let n = cfg.nodes;
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let pos: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)))
        .collect();
    let dist = |a: usize, b: usize| -> f64 {
        let dx = pos[a].0 - pos[b].0;
        let dy = pos[a].1 - pos[b].1;
        (dx * dx + dy * dy).sqrt()
    };
    let mut max_d: f64 = 0.0;
    for a in 0..n {
        for b in (a + 1)..n {
            max_d = max_d.max(dist(a, b));
        }
    }
    let scale = cfg.alpha * max_d;
    let weight = |a: usize, b: usize| (-dist(a, b) / scale).exp();

    let mut g = Graph::new();
    let nodes = g.add_nodes(n);

    // `chosen[a][b]` over a < b.
    let mut chosen = vec![false; n * n];
    let mark = |chosen: &mut Vec<bool>, a: usize, b: usize| {
        let (a, b) = if a < b { (a, b) } else { (b, a) };
        chosen[a * n + b] = true;
    };
    let is_marked = |chosen: &[bool], a: usize, b: usize| chosen[a.min(b) * n + a.max(b)];

    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        order.swap(i, j);
    }
    let mut attached = vec![order[0]];
    let mut pairs_used = 0usize;
    for &v in &order[1..] {
        let total: f64 = attached.iter().map(|&u| weight(u, v)).sum();
        let mut draw = rng.random_range(0.0..total);
        let mut pick = attached[attached.len() - 1];
        for &u in &attached {
            let w = weight(u, v);
            if draw < w {
                pick = u;
                break;
            }
            draw -= w;
        }
        g.add_link_pair(nodes[pick], nodes[v], cfg.wavelengths);
        mark(&mut chosen, pick, v);
        pairs_used += 1;
        attached.push(v);
    }

    let mut cand: Vec<(usize, usize, f64)> = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            if !is_marked(&chosen, a, b) {
                cand.push((a, b, weight(a, b)));
            }
        }
    }
    let mut total: f64 = cand.iter().map(|c| c.2).sum();
    while pairs_used < cfg.link_pairs {
        let mut draw = rng.random_range(0.0..total);
        let mut idx = cand.len() - 1;
        for (i, c) in cand.iter().enumerate() {
            if draw < c.2 {
                idx = i;
                break;
            }
            draw -= c.2;
        }
        let (a, b, w) = cand.swap_remove(idx);
        total -= w;
        g.add_link_pair(nodes[a], nodes[b], cfg.wavelengths);
        pairs_used += 1;
    }

    g
}

fn edge_list(g: &Graph) -> Vec<(NodeId, NodeId, u32)> {
    g.edge_ids()
        .map(|e| (g.src(e), g.dst(e), g.wavelengths(e)))
        .collect()
}

fn assert_matches_reference(cfg: &WaxmanConfig) {
    assert_eq!(
        edge_list(&waxman_network(cfg)),
        edge_list(&reference_waxman(cfg)),
        "{cfg:?}"
    );
}

fn cfg(nodes: usize, link_pairs: usize, alpha: f64, seed: u64) -> WaxmanConfig {
    WaxmanConfig {
        nodes,
        link_pairs,
        wavelengths: 4,
        alpha,
        seed,
    }
}

/// Every pair count from a bare tree to average degree 4, on every small
/// node count, under a short, the default and a long distance decay.
#[test]
fn small_networks_match_reference() {
    for n in 2..=40 {
        for pairs in (n - 1)..=(2 * n).min(n * (n - 1) / 2) {
            for (alpha, seed) in [(0.15, 0), (0.15, 1), (0.05, 2), (1.0, 3)] {
                assert_matches_reference(&cfg(n, pairs, alpha, seed + n as u64));
            }
        }
    }
}

/// Sampling until no candidate is left: the last draws run the running
/// total down to the final weight, where rounding is largest.
#[test]
fn complete_graphs_match_reference() {
    for n in 2..=30 {
        for seed in 0..3 {
            assert_matches_reference(&cfg(n, n * (n - 1) / 2, 0.15, seed));
        }
    }
}

/// The figures' network, `paper_default(42 + s)`, over 200 seeds.
#[test]
fn paper_networks_match_reference() {
    for seed in 0..200 {
        assert_matches_reference(&WaxmanConfig::paper_default(seed));
    }
}

/// The smoke runs' 30-node network.
#[test]
fn smoke_networks_match_reference() {
    for seed in 0..50 {
        assert_matches_reference(&cfg(30, 60, 0.15, seed));
    }
}

/// The `cg_waxman1000` benchmark network and two neighbours.
#[test]
fn waxman1000_matches_reference() {
    for seed in [0, 1, 42] {
        assert_matches_reference(&cfg(1000, 2000, 0.15, seed));
    }
}
