//! Shortest paths: the fewest-hops search with optional edge/node
//! exclusion, and Dijkstra under arbitrary per-link weight closures (the
//! search the textbook Yen loop runs, kept as the oracle the fast paths
//! are tested against).
//!
//! ## Determinism
//!
//! Every search in this module is a pure function of the graph's
//! construction order, independent of thread count or platform:
//!
//! * frontier nodes with **equal distance settle in ascending node-id
//!   order** (the heap tie-breaks on node id — lowest wins; the fewest-hops
//!   search sorts each BFS level);
//! * among **equal-cost predecessors** the first relaxation is kept
//!   (strict `<` improvement test; the first discoverer in the BFS), so
//!   ties resolve to the edge relaxed from the earliest-settled tail, in
//!   `out_edges` order.
//!
//! Under unit weights the two rules make [`shortest_path_weighted`] and the
//! level-ordered BFS of [`shortest_path_filtered`] pick the same path, edge
//! for edge; `tests/properties.rs` holds them to it. Reduced-cost pricing
//! relies on the rules too: two runs over the same master must propose
//! byte-identical columns.

use crate::graph::{EdgeId, Graph, NodeId, Path};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A min-heap entry ordered by total weight.
struct HeapItem {
    dist: f64,
    node: NodeId,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.dist == other.dist && self.node == other.node
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap; tie-break on node id for determinism.
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// Computes a path of fewest hops from `src` to `dst`, or `None` if
/// unreachable.
pub fn shortest_path(g: &Graph, src: NodeId, dst: NodeId) -> Option<Path> {
    shortest_path_filtered(g, src, dst, |_| true, |_| true)
}

/// Fewest-hops path with filters: only edges passing `edge_ok` and nodes
/// passing `node_ok` participate (the source and destination must pass
/// `node_ok`). Every link costs 1: the paper's formulations care about path
/// diversity, and no topology here gives its links a length.
///
/// A level-ordered BFS: each level is expanded in ascending node id,
/// `out_edges` in order, a node keeps the first edge that discovers it, and
/// the search stops the moment `dst` is discovered. That is the path
/// [`shortest_path_weighted`] settles on under unit weights (see the module
/// docs), without a heap.
pub fn shortest_path_filtered(
    g: &Graph,
    src: NodeId,
    dst: NodeId,
    edge_ok: impl Fn(EdgeId) -> bool,
    node_ok: impl Fn(NodeId) -> bool,
) -> Option<Path> {
    if src == dst || !node_ok(src) || !node_ok(dst) {
        return None;
    }
    let n = g.num_nodes();
    let mut seen = vec![false; n];
    // Edge that discovered each node (valid where `seen`).
    let mut pred = vec![EdgeId(0); n];
    seen[src.index()] = true;
    let mut frontier = vec![src];
    let mut next = Vec::new();
    'levels: while !frontier.is_empty() {
        next.clear();
        for &v in &frontier {
            for &e in g.out_edges(v) {
                if !edge_ok(e) {
                    continue;
                }
                let w = g.dst(e);
                if seen[w.index()] || !node_ok(w) {
                    continue;
                }
                seen[w.index()] = true;
                pred[w.index()] = e;
                if w == dst {
                    break 'levels;
                }
                next.push(w);
            }
        }
        next.sort_unstable();
        std::mem::swap(&mut frontier, &mut next);
    }
    if !seen[dst.index()] {
        return None;
    }
    let mut edges = Vec::new();
    let mut cur = dst;
    while cur != src {
        let e = pred[cur.index()];
        edges.push(e);
        cur = g.src(e);
    }
    edges.reverse();
    Some(Path::from_edges_unchecked(&edges))
}

/// Dijkstra under an arbitrary non-negative per-link weight closure,
/// returning the total weight alongside the path. Under unit weights it is
/// the search of the textbook Yen loop in `tests/yen_differential.rs` and
/// the oracle `tests/properties.rs` holds [`shortest_path`] to.
///
/// Ties are broken deterministically — see the module docs: equal-distance
/// nodes settle lowest-id first, equal-cost predecessors resolve to the
/// first relaxation. Weights must be non-negative and finite; negative
/// weights break Dijkstra's invariant (debug builds assert).
pub fn shortest_path_weighted(
    g: &Graph,
    src: NodeId,
    dst: NodeId,
    weight: impl Fn(EdgeId) -> f64,
    edge_ok: impl Fn(EdgeId) -> bool,
    node_ok: impl Fn(NodeId) -> bool,
) -> Option<(f64, Path)> {
    if src == dst || !node_ok(src) || !node_ok(dst) {
        return None;
    }
    let n = g.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut pred: Vec<Option<EdgeId>> = vec![None; n];
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[src.index()] = 0.0;
    heap.push(HeapItem {
        dist: 0.0,
        node: src,
    });
    while let Some(HeapItem { dist: d, node: v }) = heap.pop() {
        if done[v.index()] {
            continue;
        }
        done[v.index()] = true;
        if v == dst {
            break;
        }
        for &e in g.out_edges(v) {
            if !edge_ok(e) {
                continue;
            }
            let w = g.dst(e);
            if done[w.index()] || !node_ok(w) {
                continue;
            }
            let we = weight(e);
            debug_assert!(we >= 0.0 && we.is_finite(), "edge weight must be >= 0");
            let nd = d + we;
            if nd < dist[w.index()] {
                dist[w.index()] = nd;
                pred[w.index()] = Some(e);
                heap.push(HeapItem { dist: nd, node: w });
            }
        }
    }
    if !dist[dst.index()].is_finite() {
        return None;
    }
    // Reconstruct.
    let mut edges = Vec::new();
    let mut cur = dst;
    while cur != src {
        #[expect(
            clippy::expect_used,
            reason = "invariant: dst has finite distance, so every node on the chain back to src was relaxed and has a predecessor"
        )]
        let e = pred[cur.index()].expect("invariant: predecessor chain intact");
        edges.push(e);
        cur = g.src(e);
    }
    edges.reverse();
    Some((dist[dst.index()], Path::from_edges_unchecked(&edges)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 4-node diamond: 0 -> {1,2} -> 3 plus a direct 0 -> 3, the long one
    /// under `length`.
    fn diamond() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new();
        let ns = g.add_nodes(4);
        g.add_link(ns[0], ns[1], 1); // e0
        g.add_link(ns[1], ns[3], 1); // e1
        g.add_link(ns[0], ns[2], 1); // e2
        g.add_link(ns[2], ns[3], 1); // e3
        g.add_link(ns[0], ns[3], 1); // e4 direct
        (g, ns)
    }

    fn length(e: EdgeId) -> f64 {
        if e == EdgeId(4) {
            10.0
        } else {
            1.0
        }
    }

    #[test]
    fn finds_shortest_by_hops() {
        let (g, ns) = diamond();
        let p = shortest_path(&g, ns[0], ns[3]).unwrap();
        assert_eq!(p.len(), 1); // direct edge wins on hop count
        assert_eq!(p.source(&g), ns[0]);
        assert_eq!(p.target(&g), ns[3]);
    }

    #[test]
    fn weighted_avoids_long_edge() {
        let (g, ns) = diamond();
        let (_, p) = shortest_path_weighted(&g, ns[0], ns[3], length, |_| true, |_| true).unwrap();
        assert_eq!(p.len(), 2); // 2 hops of length 1 beat the length-10 edge
    }

    #[test]
    fn respects_edge_filter() {
        let (g, ns) = diamond();
        // Ban the direct edge (e4): shortest becomes 2 hops.
        let p = shortest_path_filtered(&g, ns[0], ns[3], |e| e != EdgeId(4), |_| true).unwrap();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn respects_node_filter() {
        let (g, ns) = diamond();
        // Ban node 1 and the direct edge: must route via node 2.
        let p =
            shortest_path_filtered(&g, ns[0], ns[3], |e| e != EdgeId(4), |v| v != ns[1]).unwrap();
        assert_eq!(p.nodes(&g), vec![ns[0], ns[2], ns[3]]);
    }

    #[test]
    fn weighted_closure_returns_distance() {
        let (g, ns) = diamond();
        let (d, p) = shortest_path_weighted(&g, ns[0], ns[3], length, |_| true, |_| true).unwrap();
        assert_eq!(p.len(), 2);
        assert!((d - 2.0).abs() < 1e-12);
        // Zero-weight closures are legal (all-slack duals).
        let (d0, p0) =
            shortest_path_weighted(&g, ns[0], ns[3], |_| 0.0, |_| true, |_| true).unwrap();
        assert_eq!(d0, 0.0);
        assert_eq!(p0.source(&g), ns[0]);
        assert_eq!(p0.target(&g), ns[3]);
    }

    /// Two equal-cost routes 0->1->3 and 0->2->3: the tie must always
    /// resolve through node 1 (lowest node id settles first), regardless
    /// of edge insertion order.
    #[test]
    fn tie_breaks_toward_lowest_node_id() {
        // Insertion order A: via-1 edges first.
        let mut ga = Graph::new();
        let na = ga.add_nodes(4);
        ga.add_link(na[0], na[1], 1);
        ga.add_link(na[1], na[3], 1);
        ga.add_link(na[0], na[2], 1);
        ga.add_link(na[2], na[3], 1);
        // Insertion order B: via-2 edges first.
        let mut gb = Graph::new();
        let nb = gb.add_nodes(4);
        gb.add_link(nb[0], nb[2], 1);
        gb.add_link(nb[2], nb[3], 1);
        gb.add_link(nb[0], nb[1], 1);
        gb.add_link(nb[1], nb[3], 1);
        for (g, ns) in [(&ga, &na), (&gb, &nb)] {
            let p = shortest_path(g, ns[0], ns[3]).unwrap();
            assert_eq!(
                p.nodes(g),
                vec![ns[0], ns[1], ns[3]],
                "equal-cost tie must settle through the lowest node id"
            );
            let (_, pw) =
                shortest_path_weighted(g, ns[0], ns[3], |_| 1.0, |_| true, |_| true).unwrap();
            assert_eq!(pw.nodes(g), vec![ns[0], ns[1], ns[3]]);
        }
    }

    #[test]
    fn unreachable_is_none() {
        let mut g = Graph::new();
        let ns = g.add_nodes(2);
        assert!(shortest_path(&g, ns[0], ns[1]).is_none());
    }

    #[test]
    fn same_node_is_none() {
        let (g, ns) = diamond();
        assert!(shortest_path(&g, ns[0], ns[0]).is_none());
    }
}
