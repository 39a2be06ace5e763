//! Yen's algorithm for the k shortest loopless paths.
//!
//! Builds the per-job allowed path sets of the paper's formulations. The
//! paper reports that 4–8 paths per job capture most of the attainable
//! throughput; `ablation_paths` in the bench crate sweeps this.
//!
//! Paths are ranked by hop count, so every spur search is a breadth-first
//! search — but one that must return *exactly* the path
//! [`dijkstra::shortest_path_filtered`](crate::dijkstra::shortest_path_filtered)
//! returns, because every pinned schedule downstream depends on which of
//! several equal-length paths is picked. That tie-break is: each BFS level
//! is expanded in ascending node id, `out_edges` are scanned in order, and
//! a node keeps the first edge that discovered it. Two shortcuts keep the
//! searches few and small: each accepted path is spurred only from its
//! deviation index on, and before a spur search one A\* pass over `level +
//! rdist` finds the spur's hop distance, so the search only expands nodes
//! that can still finish within it. `tests/yen_differential.rs` holds the
//! textbook loop over the unit-weight Dijkstra as the oracle; DESIGN.md
//! ("Path generation") has the argument for why neither shortcut can change
//! a path.
//!
//! The loop is a `Search` that can pause after any accepted path and
//! resume later, so [`PathSet`](crate::PathSet) computes a pair's ranks
//! only as far as they are asked for; [`k_shortest_paths`] runs one
//! search to `k` in one step.

use crate::graph::{EdgeId, Graph, NodeId, Path};

/// Hop distance of a node that cannot reach the destination.
const UNREACHED: u32 = u32::MAX;

/// End of a bucket's stack in the A\* queue.
const NO_ENTRY: u32 = u32::MAX;

/// Reusable search state for every [`Search`], owned by
/// [`PathSet`](crate::PathSet) so a cache fill allocates per emitted path
/// only.
///
/// Membership in the visited set and in the two ban sets is a stamp
/// comparison: a fresh set is a fresh stamp, never a clear. Stamps only
/// grow, so entries left behind by an earlier search — on this graph or on
/// a larger one — can never equal a current stamp.
#[derive(Debug, Clone, Default)]
pub(crate) struct Workspace {
    /// Last stamp handed out.
    stamp: u64,
    /// `seen[v]` is the stamp of the last pass (A\* or search) that
    /// discovered `v`.
    seen: Vec<u64>,
    /// Edge that discovered each node (valid where `seen` is current).
    pred: Vec<EdgeId>,
    /// Best level the A\* pass has found for each node (valid where `seen`
    /// is current).
    level: Vec<u32>,
    /// The A\* bucket queue, one stack per bucket threaded through
    /// `queue`: `heads[b]` is the entry last queued at `level + rdist =
    /// rdist[spur] + b`, and each entry names its node and the entry queued
    /// before it in the same bucket. Every pass queues at most one entry per
    /// edge plus the spur node, so `queue` never outgrows the capacity
    /// `begin` reserves. All heads are [`NO_ENTRY`] between passes.
    heads: Vec<u32>,
    queue: Vec<(NodeId, u32)>,
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
    /// Spur searches the deepening oracle checked: `[found, unreachable]`.
    #[cfg(test)]
    checked: [usize; 2],
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
            self.level.resize(n, 0);
            // `level + rdist − rdist[spur]` is at most `2(n − 1)`.
            self.heads.resize(2 * n, NO_ENTRY);
            self.banned_node.resize(n, 0);
        }
        if self.banned_edge.len() < m {
            self.banned_edge.resize(m, 0);
            self.queue.reserve_exact(m + 1);
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

    /// Hop distance from `from` to `dst` over unbanned edges and nodes, or
    /// [`UNREACHED`]. One A\* pass over `f = level + rdist`: bans only
    /// delete edges, so `rdist` stays a consistent estimate, `f` never
    /// falls along an edge, and a node leaves its bucket at its true level.
    fn distance(&mut self, g: &Graph, from: NodeId, dst: NodeId) -> u32 {
        // A `dst` whose every in-link is banned or leaves a banned node is
        // cut off; say so before the pass floods the graph to learn it.
        let open = |e: EdgeId| {
            self.banned_edge[e.index()] != self.edge_ban
                && self.banned_node[g.src(e).index()] != self.node_ban
        };
        if !g.in_edges(dst).iter().any(|&e| open(e)) {
            return UNREACHED;
        }
        let pass = self.next_stamp();
        let Workspace {
            seen,
            level,
            heads,
            queue,
            node_ban,
            banned_node,
            edge_ban,
            banned_edge,
            rdist,
            ..
        } = self;
        let base = rdist[from.index()];
        seen[from.index()] = pass;
        level[from.index()] = 0;
        queue.push((from, NO_ENTRY));
        heads[0] = 0;
        let mut found = UNREACHED;
        // Highest bucket anything was queued in.
        let mut top = 0;
        let mut b = 0;
        'drain: while b <= top {
            while heads[b] != NO_ENTRY {
                let (v, below) = queue[heads[b] as usize];
                heads[b] = below;
                let lv = level[v.index()];
                // An entry left behind when `v` was requeued lower.
                if (lv + rdist[v.index()] - base) as usize != b {
                    continue;
                }
                if v == dst {
                    found = lv;
                    break 'drain;
                }
                for &e in g.out_edges(v) {
                    if banned_edge[e.index()] == *edge_ban {
                        continue;
                    }
                    let w = g.dst(e);
                    let to_go = rdist[w.index()];
                    if banned_node[w.index()] == *node_ban || to_go == UNREACHED {
                        continue;
                    }
                    if seen[w.index()] == pass && level[w.index()] <= lv + 1 {
                        continue;
                    }
                    seen[w.index()] = pass;
                    level[w.index()] = lv + 1;
                    let bw = (lv + 1 + to_go - base) as usize;
                    debug_assert!(queue.len() < queue.capacity(), "queue outgrew its edges");
                    queue.push((w, heads[bw]));
                    heads[bw] = (queue.len() - 1) as u32;
                    top = top.max(bw);
                }
            }
            b += 1;
        }
        for head in &mut heads[b.min(top)..=top] {
            *head = NO_ENTRY;
        }
        queue.clear();
        found
    }

    /// One level-ordered BFS from `from` over unbanned edges and nodes,
    /// stopping the moment `dst` is discovered; true if it was. A node
    /// first reached at level `l` is expanded only if `l + rdist[node] <=
    /// bound`, i.e. only if it can still lie on a path of at most `bound`
    /// hops.
    fn search(&mut self, g: &Graph, from: NodeId, dst: NodeId, bound: u32) -> bool {
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
                    // discovery would be held back as well.
                    seen[w.index()] = pass;
                    let to_go = rdist[w.index()];
                    if to_go == UNREACHED || level + to_go > bound {
                        continue;
                    }
                    pred[w.index()] = e;
                    if w == dst {
                        return true;
                    }
                    next.push(w);
                }
            }
            next.sort_unstable();
            std::mem::swap(frontier, next);
        }
        false
    }

    /// Appends to `edges` the hop-shortest path from `from` to `dst` under
    /// the current bans — the path the filtered fewest-hops search
    /// returns. False (and `edges` untouched) when `dst` is unreachable.
    ///
    /// The search runs at the bound the A\* pass found, so it stays inside
    /// the cone of nodes that can still finish in time instead of flooding
    /// the graph.
    fn spur(&mut self, g: &Graph, from: NodeId, dst: NodeId) -> bool {
        let bound = self.distance(g, from, dst);
        #[cfg(test)]
        let oracle = self.spur_by_deepening(g, from, dst);
        if bound == UNREACHED || !self.search(g, from, dst, bound) {
            #[cfg(test)]
            self.check(oracle, None);
            return false;
        }
        let at = self.edges.len();
        let mut cur = dst;
        while cur != from {
            let e = self.pred[cur.index()];
            self.edges.push(e);
            cur = g.src(e);
        }
        self.edges[at..].reverse();
        #[cfg(test)]
        self.check(oracle, Some((bound, self.edges[at..].to_vec())));
        true
    }
}

/// A generated path waiting in the pool, with the spur index that produced
/// it (Lawler's deviation index).
#[derive(Debug, Clone)]
struct Candidate {
    dev: usize,
    path: Path,
}

/// One endpoint pair's Yen loop, paused between accepted paths. The
/// loop's whole state is the accepted list, the candidate pool and `dev`;
/// everything else lives in the [`Workspace`], which
/// [`advance`](Self::advance) re-aims at this pair's destination before it
/// spurs. So a search extended to `n` paths in any number of steps holds
/// the list one uninterrupted run to `n` returns.
#[derive(Debug, Clone, Default)]
pub(crate) struct Search {
    /// The paths found so far, in rank order.
    accepted: Vec<Path>,
    /// Candidate pool; together with `accepted` it holds every path
    /// generated so far, which is what deduplicates new ones. Freed once
    /// the search is done.
    candidates: Vec<Candidate>,
    /// Deviation index of the last accepted path. Spurring it below that
    /// index would rerun a search whose root and bans are unchanged since
    /// it last ran, and regenerate a path already generated.
    dev: usize,
    /// No further path will be asked for: the search holds its `k` paths,
    /// or the pair has no more simple paths.
    done: bool,
}

impl Search {
    /// The paths found so far, in rank order.
    pub(crate) fn paths(&self) -> &[Path] {
        &self.accepted
    }

    /// Runs the loop from `src` to `dst` until it holds `min(n, k)` paths
    /// or the pair has no more.
    pub(crate) fn extend(
        &mut self,
        ws: &mut Workspace,
        g: &Graph,
        pair: (NodeId, NodeId),
        n: usize,
        k: usize,
    ) {
        let mut begun = false;
        while self.accepted.len() < n.min(k) && self.advance(ws, g, pair, k, &mut begun) {}
    }

    /// Accepts the pair's next path; false when there is none to accept.
    /// A search that holds `k` paths or has run out is done and frees its
    /// pool. `begun` says whether `ws` already holds this pair's `rdist`:
    /// the first call of a run sets it, so one caller's consecutive calls
    /// on one pair pay one reverse BFS.
    pub(crate) fn advance(
        &mut self,
        ws: &mut Workspace,
        g: &Graph,
        (src, dst): (NodeId, NodeId),
        k: usize,
        begun: &mut bool,
    ) -> bool {
        if self.done {
            return false;
        }
        if src == dst {
            self.finish();
            return false;
        }
        if !std::mem::replace(begun, true) {
            ws.begin(g, dst);
        }
        let found = if self.accepted.is_empty() {
            ws.edges.clear();
            let found = ws.rdist[src.index()] != UNREACHED && ws.spur(g, src, dst);
            if found {
                self.accepted.push(Path::from_edges_unchecked(&ws.edges));
            }
            found
        } else {
            self.step(ws, g, dst)
        };
        if !found || self.accepted.len() == k {
            self.finish();
        }
        found
    }

    /// Marks the search done and frees its pool.
    fn finish(&mut self) {
        self.done = true;
        self.candidates = Vec::new();
    }

    /// One round of the loop: spurs the last accepted path from its
    /// deviation index on, then accepts the shortest candidate (ties
    /// broken on edges). False when the pool is exhausted.
    fn step(&mut self, ws: &mut Workspace, g: &Graph, dst: NodeId) -> bool {
        let Search {
            accepted,
            candidates,
            dev,
            ..
        } = self;
        let prev = &accepted[accepted.len() - 1];
        // Nodes banned: everything on the root before the spur node
        // (keeps the total path simple).
        ws.node_ban = ws.next_stamp();
        for &e in &prev.edges()[..*dev] {
            ws.banned_node[g.src(e).index()] = ws.node_ban;
        }
        for i in *dev..prev.len() {
            let root = &prev.edges()[..i];
            let spur_node = g.src(prev.edges()[i]);
            // Edges banned: the (i+1)-th edge of any accepted path sharing
            // the same root.
            ws.edge_ban = ws.next_stamp();
            for p in accepted.iter() {
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
                        path: Path::from_edges_unchecked(&ws.edges),
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
            return false;
        };
        let next = candidates.swap_remove(best);
        *dev = next.dev;
        accepted.push(next.path);
        true
    }
}

/// Computes up to `k` shortest simple paths from `src` to `dst`, ordered by
/// increasing hop count (ties broken deterministically). Returns fewer than
/// `k` when the graph does not contain that many simple paths.
pub fn k_shortest_paths(g: &Graph, src: NodeId, dst: NodeId, k: usize) -> Vec<Path> {
    k_shortest_paths_in(&mut Workspace::default(), g, src, dst, k)
}

/// [`k_shortest_paths`] on a caller-held workspace: one [`Search`] run to
/// `k` paths in one step.
pub(crate) fn k_shortest_paths_in(
    ws: &mut Workspace,
    g: &Graph,
    src: NodeId,
    dst: NodeId,
    k: usize,
) -> Vec<Path> {
    let mut search = Search::default();
    search.extend(ws, g, (src, dst), k, k);
    search.accepted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::waxman::{waxman_network, WaxmanConfig};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The spur search as it ran before the A\* pass, kept as its oracle:
    /// start at `L = rdist[from]` and, while a pass misses `dst`, rerun it
    /// at the smallest bound that admits a node it held back.
    impl Workspace {
        /// The final bound and the path of the deepening loop, or `None`
        /// when a pass holds nothing back (`dst` unreachable).
        pub(super) fn spur_by_deepening(
            &mut self,
            g: &Graph,
            from: NodeId,
            dst: NodeId,
        ) -> Option<(u32, Vec<EdgeId>)> {
            let mut bound = self.rdist[from.index()];
            loop {
                match self.deepening_pass(g, from, dst, bound) {
                    Ok(()) => break,
                    Err(UNREACHED) => return None,
                    Err(higher) => bound = higher,
                }
            }
            let mut edges = Vec::new();
            let mut cur = dst;
            while cur != from {
                let e = self.pred[cur.index()];
                edges.push(e);
                cur = g.src(e);
            }
            edges.reverse();
            Some((bound, edges))
        }

        /// One bounded pass of the deepening loop: `Ok` when `dst` was
        /// discovered, else the smallest bound that admits a node the pass
        /// held back ([`UNREACHED`] if none was).
        fn deepening_pass(
            &mut self,
            g: &Graph,
            from: NodeId,
            dst: NodeId,
            bound: u32,
        ) -> Result<(), u32> {
            let pass = self.next_stamp();
            self.seen[from.index()] = pass;
            let mut frontier = vec![from];
            let mut level = 0u32;
            let mut higher = UNREACHED;
            while !frontier.is_empty() {
                level += 1;
                let mut next = Vec::new();
                for &v in &frontier {
                    for &e in g.out_edges(v) {
                        if self.banned_edge[e.index()] == self.edge_ban {
                            continue;
                        }
                        let w = g.dst(e);
                        if self.seen[w.index()] == pass
                            || self.banned_node[w.index()] == self.node_ban
                        {
                            continue;
                        }
                        self.seen[w.index()] = pass;
                        let to_go = self.rdist[w.index()];
                        if to_go == UNREACHED {
                            continue;
                        }
                        if level + to_go > bound {
                            higher = higher.min(level + to_go);
                            continue;
                        }
                        self.pred[w.index()] = e;
                        if w == dst {
                            return Ok(());
                        }
                        next.push(w);
                    }
                }
                next.sort_unstable();
                frontier = next;
            }
            Err(higher)
        }

        /// Asserts that the spur search found what the deepening loop
        /// found — the same bound and path, or neither — and counts it.
        pub(super) fn check(
            &mut self,
            oracle: Option<(u32, Vec<EdgeId>)>,
            got: Option<(u32, Vec<EdgeId>)>,
        ) {
            assert_eq!(got, oracle, "A* bound and spur path vs the deepening loop");
            self.checked[usize::from(got.is_none())] += 1;
        }
    }

    /// A random digraph on `n` nodes with `m` links, parallel ones allowed.
    fn random_graph(rng: &mut StdRng, n: usize, m: usize) -> Graph {
        let mut g = Graph::new();
        let ns = g.add_nodes(n);
        for _ in 0..m {
            let a = rng.random_range(0..n);
            let b = (a + rng.random_range(1..n)) % n;
            g.add_link(ns[a], ns[b], 1);
        }
        g
    }

    /// Every spur search of these Yen runs is checked against the
    /// deepening loop inside `spur`: the A\* distance is the loop's final
    /// bound, and the search at it returns the loop's path.
    #[test]
    fn astar_bound_is_the_deepening_loops_last_bound_on_waxman1000() {
        let g = waxman_network(&WaxmanConfig {
            nodes: 1000,
            link_pairs: 2000,
            wavelengths: 2,
            alpha: 0.15,
            seed: 42,
        });
        let mut rng = StdRng::seed_from_u64(2);
        let mut ws = Workspace::default();
        for _ in 0..40 {
            let s = NodeId(rng.random_range(0..1000));
            let d = NodeId(rng.random_range(0..1000));
            k_shortest_paths_in(&mut ws, &g, s, d, 16);
        }
        assert!(ws.checked[0] > 500, "{:?}", ws.checked);
    }

    /// The same on small random digraphs, where bans often cut `dst` off:
    /// there both searches must give up.
    #[test]
    fn astar_bound_is_the_deepening_loops_last_bound_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut ws = Workspace::default();
        for _ in 0..300 {
            let n = rng.random_range(2..15usize);
            let m = rng.random_range(1..50usize);
            let g = random_graph(&mut rng, n, m);
            for _ in 0..4 {
                let s = NodeId(rng.random_range(0..n) as u32);
                let d = NodeId(rng.random_range(0..n) as u32);
                for k in [3, 40] {
                    k_shortest_paths_in(&mut ws, &g, s, d, k);
                }
            }
        }
        assert!(ws.checked.iter().all(|&c| c > 100), "{:?}", ws.checked);
    }

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
