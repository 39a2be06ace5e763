//! Yen's algorithm for the k shortest loopless paths.
//!
//! Builds the per-job allowed path sets of the paper's formulations. The
//! paper reports that 4–8 paths per job capture most of the attainable
//! throughput; `ablation_paths` in the bench crate sweeps this.
//!
//! Paths are ranked by hop count, so every spur search is a breadth-first
//! search — but one that must return *exactly* the path
//! [`dijkstra::shortest_path_weighted`](crate::dijkstra::shortest_path_weighted)
//! returns under unit weights, because every pinned schedule downstream
//! depends on which of several equal-length paths is picked. That
//! tie-break is: equal-distance nodes settle in ascending node id, and a
//! node keeps the first edge that reached it. The search here honours it
//! by expanding each BFS level in ascending node id, scanning `out_edges`
//! in order, and keeping the first discoverer as predecessor.
//! `tests/yen_differential.rs` holds the textbook loop over the filtered
//! Dijkstra as the oracle; DESIGN.md ("Path generation") has the argument
//! for why neither shortcut below can change a path.

use crate::graph::{EdgeId, Graph, NodeId, Path};

/// Hop distance of a node that cannot reach the destination.
const UNREACHED: u32 = u32::MAX;

/// Outcome of one bounded search pass.
enum Pass {
    /// The destination was discovered; `pred` holds the path.
    Found,
    /// Nothing was discovered and nothing was held back by the bound: the
    /// destination is unreachable under the current bans.
    Exhausted,
    /// The destination was not discovered; this is the smallest bound
    /// that admits a node this pass held back.
    Retry(u32),
}

/// Reusable search state for [`k_shortest_paths`], owned by
/// [`PathSet`](crate::PathSet) so a warm cache fill allocates per emitted
/// path only.
///
/// Membership in the visited set and in the two ban sets is a stamp
/// comparison: a fresh set is a fresh stamp, never a clear. Stamps only
/// grow, so entries left behind by an earlier search — on this graph or on
/// a larger one — can never equal a current stamp.
#[derive(Debug, Clone, Default)]
pub(crate) struct Workspace {
    /// Last stamp handed out.
    stamp: u64,
    /// `seen[v]` is the stamp of the last search pass that discovered `v`.
    seen: Vec<u64>,
    /// Edge that discovered each node (valid where `seen` is current).
    pred: Vec<EdgeId>,
    /// `banned_node[v] == node_ban` ⇔ `v` lies on the root before the spur.
    node_ban: u64,
    banned_node: Vec<u64>,
    /// `banned_edge[e] == edge_ban` ⇔ an accepted path with the current
    /// root continues over `e`.
    edge_ban: u64,
    banned_edge: Vec<u64>,
    /// Unfiltered hop distance from every node to the current destination.
    rdist: Vec<u32>,
    frontier: Vec<NodeId>,
    next: Vec<NodeId>,
    /// Root plus spur edges of the path being assembled.
    edges: Vec<EdgeId>,
}

impl Workspace {
    fn next_stamp(&mut self) -> u64 {
        self.stamp += 1;
        self.stamp
    }

    /// Sizes the arrays for `g`, empties both ban sets, and fills `rdist`
    /// with one reverse BFS from `dst` over the whole graph.
    fn begin(&mut self, g: &Graph, dst: NodeId) {
        let (n, m) = (g.num_nodes(), g.num_edges());
        if self.seen.len() < n {
            self.seen.resize(n, 0);
            self.pred.resize(n, EdgeId(0));
            self.banned_node.resize(n, 0);
        }
        if self.banned_edge.len() < m {
            self.banned_edge.resize(m, 0);
        }
        self.node_ban = self.next_stamp();
        self.edge_ban = self.next_stamp();

        self.rdist.clear();
        self.rdist.resize(n, UNREACHED);
        self.rdist[dst.index()] = 0;
        self.frontier.clear();
        self.frontier.push(dst);
        let mut level = 0;
        while !self.frontier.is_empty() {
            level += 1;
            self.next.clear();
            for &v in &self.frontier {
                for &e in g.in_edges(v) {
                    let u = g.src(e);
                    if self.rdist[u.index()] == UNREACHED {
                        self.rdist[u.index()] = level;
                        self.next.push(u);
                    }
                }
            }
            std::mem::swap(&mut self.frontier, &mut self.next);
        }
    }

    /// One level-ordered BFS from `from` over unbanned edges and nodes,
    /// stopping the moment `dst` is discovered. A node first reached at
    /// level `l` is expanded only if `l + rdist[node] <= bound`, i.e. only
    /// if it can still lie on a path of at most `bound` hops.
    fn search(&mut self, g: &Graph, from: NodeId, dst: NodeId, bound: u32) -> Pass {
        let pass = self.next_stamp();
        let Workspace {
            seen,
            pred,
            node_ban,
            banned_node,
            edge_ban,
            banned_edge,
            rdist,
            frontier,
            next,
            ..
        } = self;
        seen[from.index()] = pass;
        frontier.clear();
        frontier.push(from);
        let mut level = 0u32;
        let mut retry = UNREACHED;
        while !frontier.is_empty() {
            level += 1;
            next.clear();
            for &v in frontier.iter() {
                for &e in g.out_edges(v) {
                    if banned_edge[e.index()] == *edge_ban {
                        continue;
                    }
                    let w = g.dst(e);
                    if seen[w.index()] == pass || banned_node[w.index()] == *node_ban {
                        continue;
                    }
                    // Held-back nodes are marked too: a later, deeper
                    // discovery could only need a larger bound.
                    seen[w.index()] = pass;
                    let to_go = rdist[w.index()];
                    if to_go == UNREACHED {
                        continue;
                    }
                    if level + to_go > bound {
                        retry = retry.min(level + to_go);
                        continue;
                    }
                    pred[w.index()] = e;
                    if w == dst {
                        return Pass::Found;
                    }
                    next.push(w);
                }
            }
            next.sort_unstable();
            std::mem::swap(frontier, next);
        }
        if retry == UNREACHED {
            Pass::Exhausted
        } else {
            Pass::Retry(retry)
        }
    }

    /// Appends to `edges` the hop-shortest path from `from` to `dst` under
    /// the current bans — the path the filtered Dijkstra returns. False
    /// (and `edges` untouched) when `dst` is unreachable.
    ///
    /// The bound starts at the unfiltered distance and rises only as far
    /// as needed, so the search stays inside the cone of nodes that can
    /// still finish in time instead of flooding the graph.
    fn spur(&mut self, g: &Graph, from: NodeId, dst: NodeId) -> bool {
        let mut bound = self.rdist[from.index()];
        loop {
            match self.search(g, from, dst, bound) {
                Pass::Found => break,
                Pass::Exhausted => return false,
                Pass::Retry(b) => bound = b,
            }
        }
        let at = self.edges.len();
        let mut cur = dst;
        while cur != from {
            let e = self.pred[cur.index()];
            self.edges.push(e);
            cur = g.src(e);
        }
        self.edges[at..].reverse();
        true
    }
}

/// A generated path waiting in the pool, with the spur index that produced
/// it (Lawler's deviation index).
struct Candidate {
    dev: usize,
    path: Path,
}

/// Computes up to `k` shortest simple paths from `src` to `dst`, ordered by
/// increasing hop count (ties broken deterministically). Returns fewer than
/// `k` when the graph does not contain that many simple paths.
pub fn k_shortest_paths(g: &Graph, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
    k_shortest_paths_in(&mut Workspace::default(), g, src, dst, k)
}

/// [`k_shortest_paths`] on a caller-held workspace.
pub(crate) fn k_shortest_paths_in(
    ws: &mut Workspace,
    g: &Graph,
    src: NodeId,
    dst: NodeId,
    k: usize,
) -> Vec<Path> {
    if k == 0 || src == dst {
        return Vec::new();
    }
    ws.begin(g, dst);
    ws.edges.clear();
    if ws.rdist[src.index()] == UNREACHED || !ws.spur(g, src, dst) {
        return Vec::new();
    }
    let mut accepted = vec![Path::from_edges_unchecked(ws.edges.clone())];
    // Candidate pool; together with `accepted` it holds every path
    // generated so far, which is what deduplicates new ones.
    let mut candidates: Vec<Candidate> = Vec::new();
    // Deviation index of the last accepted path. Spurring it below that
    // index would rerun a search whose root and bans are unchanged since
    // it last ran, and regenerate a path already generated.
    let mut dev = 0;

    while accepted.len() < k {
        let prev = &accepted[accepted.len() - 1];
        // Nodes banned: everything on the root before the spur node
        // (keeps the total path simple).
        ws.node_ban = ws.next_stamp();
        for &e in &prev.edges()[..dev] {
            ws.banned_node[g.src(e).index()] = ws.node_ban;
        }
        for i in dev..prev.len() {
            let root = &prev.edges()[..i];
            let spur_node = g.src(prev.edges()[i]);
            // Edges banned: the (i+1)-th edge of any accepted path sharing
            // the same root.
            ws.edge_ban = ws.next_stamp();
            for p in &accepted {
                if p.len() > i && p.edges()[..i] == *root {
                    ws.banned_edge[p.edges()[i].index()] = ws.edge_ban;
                }
            }
            ws.edges.clear();
            ws.edges.extend_from_slice(root);
            if ws.spur(g, spur_node, dst) {
                let known = accepted
                    .iter()
                    .chain(candidates.iter().map(|c| &c.path))
                    .any(|p| p.edges() == ws.edges);
                if !known {
                    candidates.push(Candidate {
                        dev: i,
                        path: Path::from_edges_unchecked(ws.edges.clone()),
                    });
                }
            }
            ws.banned_node[spur_node.index()] = ws.node_ban;
        }

        // Pop the shortest candidate (deterministic tie-break on edges);
        // `min_by` is `None` exactly when the pool is exhausted.
        let Some(best) = candidates
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                let by_len = a.path.len().cmp(&b.path.len());
                by_len.then_with(|| a.path.edges().cmp(b.path.edges()))
            })
            .map(|(i, _)| i)
        else {
            break;
        };
        let next = candidates.swap_remove(best);
        dev = next.dev;
        accepted.push(next.path);
    }
    accepted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    /// 0 -> 3 through a braided 5-node mesh with many alternatives.
    fn mesh() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new();
        let ns = g.add_nodes(5);
        for (a, b) in [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 4), (4, 3)] {
            g.add_link_pair(ns[a], ns[b], 4);
        }
        (g, ns)
    }

    #[test]
    fn first_path_is_shortest() {
        let (g, ns) = mesh();
        let ps = k_shortest_paths(&g, ns[0], ns[3], 4);
        assert!(!ps.is_empty());
        assert_eq!(ps[0].len(), 2); // 0-1-3 or 0-2-3
    }

    #[test]
    fn paths_are_sorted_and_distinct() {
        let (g, ns) = mesh();
        let ps = k_shortest_paths(&g, ns[0], ns[3], 8);
        for w in ps.windows(2) {
            assert!(w[0].len() <= w[1].len(), "not sorted by hop count");
            assert_ne!(w[0].edges(), w[1].edges(), "duplicate path");
        }
        // All start/end correctly and are simple.
        for p in &ps {
            assert_eq!(p.source(&g), ns[0]);
            assert_eq!(p.target(&g), ns[3]);
            let nodes = p.nodes(&g);
            let mut dedup = nodes.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), nodes.len(), "path has a loop: {nodes:?}");
        }
    }

    #[test]
    fn exhausts_small_graphs() {
        // Line graph: exactly one simple path.
        let mut g = Graph::new();
        let ns = g.add_nodes(3);
        g.add_link(ns[0], ns[1], 1);
        g.add_link(ns[1], ns[2], 1);
        let ps = k_shortest_paths(&g, ns[0], ns[2], 10);
        assert_eq!(ps.len(), 1);
    }

    #[test]
    fn disconnected_returns_empty() {
        let mut g = Graph::new();
        let ns = g.add_nodes(2);
        assert!(k_shortest_paths(&g, ns[0], ns[1], 3).is_empty());
    }

    #[test]
    fn k_zero() {
        let (g, ns) = mesh();
        assert!(k_shortest_paths(&g, ns[0], ns[3], 0).is_empty());
    }

    #[test]
    fn src_equals_dst_returns_empty() {
        // A zero-hop "transfer" has no path representation; asking for
        // paths from a node to itself must yield none, for any k.
        let (g, ns) = mesh();
        for k in [0, 1, 5] {
            assert!(
                k_shortest_paths(&g, ns[1], ns[1], k).is_empty(),
                "src == dst must return no paths (k = {k})"
            );
        }
    }

    #[test]
    fn counts_simple_paths_in_diamond() {
        // 0->1->3, 0->2->3, 0->1->2->3, 0->2->1->3 ... depends on edges.
        let mut g = Graph::new();
        let ns = g.add_nodes(4);
        g.add_link(ns[0], ns[1], 1);
        g.add_link(ns[0], ns[2], 1);
        g.add_link(ns[1], ns[3], 1);
        g.add_link(ns[2], ns[3], 1);
        g.add_link(ns[1], ns[2], 1);
        let ps = k_shortest_paths(&g, ns[0], ns[3], 10);
        // Simple paths: 013, 023, 0123. Exactly three.
        assert_eq!(ps.len(), 3);
        assert_eq!(ps[0].len(), 2);
        assert_eq!(ps[1].len(), 2);
        assert_eq!(ps[2].len(), 3);
    }
}
