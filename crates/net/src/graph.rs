//! Directed graphs with wavelength-capacitated links, and simple paths.

use std::fmt;
use std::sync::Arc;

/// Handle to a node of a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Handle to a directed edge (link) of a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// Index of the node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// Index of the edge.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

#[derive(Debug, Clone)]
struct EdgeData {
    src: NodeId,
    dst: NodeId,
    /// Number of wavelengths on this link (the paper's `C_e`).
    wavelengths: u32,
}

/// A directed graph whose edges are optical links carrying a number of
/// wavelengths.
///
/// Research-network topologies are bidirectional at the fiber level; use
/// [`Graph::add_link_pair`] to add both directions at once — the paper's
/// "pairs of links".
#[derive(Debug, Clone, Default)]
pub struct Graph {
    names: Vec<String>,
    edges: Vec<EdgeData>,
    out_adj: Vec<Vec<EdgeId>>,
    in_adj: Vec<Vec<EdgeId>>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Adds a node with a display name; returns its handle.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.names.len() as u32);
        self.names.push(name.into());
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        id
    }

    /// Adds `n` anonymously-named nodes; returns their handles.
    pub fn add_nodes(&mut self, n: usize) -> Vec<NodeId> {
        (0..n).map(|i| self.add_node(format!("v{i}"))).collect()
    }

    /// Adds a directed link from `src` to `dst` with the given number of
    /// wavelengths; returns its handle.
    pub fn add_link(&mut self, src: NodeId, dst: NodeId, wavelengths: u32) -> EdgeId {
        assert!(src.index() < self.names.len(), "src out of range");
        assert!(dst.index() < self.names.len(), "dst out of range");
        assert_ne!(src, dst, "self-loops are not valid optical links");
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(EdgeData {
            src,
            dst,
            wavelengths,
        });
        self.out_adj[src.index()].push(id);
        self.in_adj[dst.index()].push(id);
        id
    }

    /// Adds a bidirectional fiber (two directed links); returns both handles.
    pub fn add_link_pair(&mut self, a: NodeId, b: NodeId, wavelengths: u32) -> (EdgeId, EdgeId) {
        (
            self.add_link(a, b, wavelengths),
            self.add_link(b, a, wavelengths),
        )
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.names.len()
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Display name of `n`.
    pub fn node_name(&self, n: NodeId) -> &str {
        &self.names[n.index()]
    }

    /// Source node of `e`.
    #[inline]
    pub fn src(&self, e: EdgeId) -> NodeId {
        self.edges[e.index()].src
    }

    /// Destination node of `e`.
    #[inline]
    pub fn dst(&self, e: EdgeId) -> NodeId {
        self.edges[e.index()].dst
    }

    /// Wavelength count of `e` (the paper's `C_e`).
    #[inline]
    pub fn wavelengths(&self, e: EdgeId) -> u32 {
        self.edges[e.index()].wavelengths
    }

    /// Outgoing edges of `n`.
    #[inline]
    pub fn out_edges(&self, n: NodeId) -> &[EdgeId] {
        &self.out_adj[n.index()]
    }

    /// Incoming edges of `n`.
    #[inline]
    pub fn in_edges(&self, n: NodeId) -> &[EdgeId] {
        &self.in_adj[n.index()]
    }

    /// Iterator over all node handles.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.names.len() as u32).map(NodeId)
    }

    /// Iterator over all edge handles.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// True if every node can reach every other node (strong connectivity).
    pub fn is_strongly_connected(&self) -> bool {
        let n = self.num_nodes();
        if n <= 1 {
            return true;
        }
        let reach = |start: NodeId, forward: bool| -> usize {
            let mut seen = vec![false; n];
            let mut stack = vec![start];
            seen[start.index()] = true;
            let mut count = 1;
            while let Some(v) = stack.pop() {
                let adj = if forward {
                    self.out_edges(v)
                } else {
                    self.in_edges(v)
                };
                for &e in adj {
                    let w = if forward { self.dst(e) } else { self.src(e) };
                    if !seen[w.index()] {
                        seen[w.index()] = true;
                        count += 1;
                        stack.push(w);
                    }
                }
            }
            count
        };
        reach(NodeId(0), true) == n && reach(NodeId(0), false) == n
    }
}

/// A simple (loop-free) directed path through a [`Graph`]. Clones share
/// one edge list: an instance allowing a path holds its path search's own.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Path {
    edges: Arc<[EdgeId]>,
}

impl Path {
    /// Builds a path from consecutive edges, validating continuity and
    /// simplicity against `g`.
    ///
    /// # Panics
    /// Panics if the edges do not form a simple connected path.
    pub fn new(g: &Graph, edges: Vec<EdgeId>) -> Self {
        assert!(!edges.is_empty(), "empty path");
        let mut seen_nodes = vec![g.src(edges[0])];
        for win in edges.windows(2) {
            assert_eq!(
                g.dst(win[0]),
                g.src(win[1]),
                "path edges are not consecutive"
            );
        }
        for &e in &edges {
            let d = g.dst(e);
            assert!(!seen_nodes.contains(&d), "path revisits node {d}");
            seen_nodes.push(d);
        }
        Self::from_edges_unchecked(&edges)
    }

    /// Builds a path without validation (for internal use by search
    /// algorithms that guarantee the invariants).
    pub(crate) fn from_edges_unchecked(edges: &[EdgeId]) -> Self {
        let edges = edges.into();
        Path { edges }
    }

    /// The edges of this path, in order.
    #[inline]
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// Number of hops.
    #[inline]
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True if the path has no edges (never constructed by this crate).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// First node of the path.
    pub fn source(&self, g: &Graph) -> NodeId {
        g.src(self.edges[0])
    }

    /// Last node of the path.
    pub fn target(&self, g: &Graph) -> NodeId {
        #[expect(
            clippy::expect_used,
            reason = "invariant: this crate never constructs an empty path (see is_empty docs)"
        )]
        g.dst(*self.edges.last().expect("invariant: non-empty path"))
    }

    /// The node sequence, source first.
    pub fn nodes(&self, g: &Graph) -> Vec<NodeId> {
        let mut v = Vec::with_capacity(self.edges.len() + 1);
        v.push(self.source(g));
        for &e in self.edges() {
            v.push(g.dst(e));
        }
        v
    }

    /// The bottleneck wavelength count along the path.
    pub fn bottleneck_wavelengths(&self, g: &Graph) -> u32 {
        self.edges
            .iter()
            .map(|&e| g.wavelengths(e))
            .min()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new();
        let ns = g.add_nodes(3);
        g.add_link_pair(ns[0], ns[1], 4);
        g.add_link_pair(ns[1], ns[2], 4);
        g.add_link_pair(ns[2], ns[0], 4);
        (g, ns)
    }

    #[test]
    fn build_and_adjacency() {
        let (g, ns) = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.out_edges(ns[0]).len(), 2);
        assert_eq!(g.in_edges(ns[0]).len(), 2);
        for e in g.edge_ids() {
            assert_eq!(g.wavelengths(e), 4);
            assert_ne!(g.src(e), g.dst(e));
        }
    }

    #[test]
    fn strong_connectivity() {
        let (g, _) = triangle();
        assert!(g.is_strongly_connected());

        let mut g2 = Graph::new();
        let ns = g2.add_nodes(3);
        g2.add_link(ns[0], ns[1], 1);
        g2.add_link(ns[1], ns[2], 1);
        assert!(!g2.is_strongly_connected());
    }

    #[test]
    fn path_construction_and_queries() {
        let (g, ns) = triangle();
        // edges: 0:(0->1) 1:(1->0) 2:(1->2) 3:(2->1) 4:(2->0) 5:(0->2)
        let p = Path::new(&g, vec![EdgeId(0), EdgeId(2)]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.source(&g), ns[0]);
        assert_eq!(p.target(&g), ns[2]);
        assert_eq!(p.nodes(&g), vec![ns[0], ns[1], ns[2]]);
        assert_eq!(p.bottleneck_wavelengths(&g), 4);
    }

    #[test]
    #[should_panic(expected = "not consecutive")]
    fn path_rejects_disconnected() {
        let (g, _) = triangle();
        // 0->1 then 2->1 is not consecutive.
        Path::new(&g, vec![EdgeId(0), EdgeId(3)]);
    }

    #[test]
    #[should_panic(expected = "revisits")]
    fn path_rejects_loops() {
        let (g, _) = triangle();
        // 0->1, 1->0 revisits node 0... wait source is 0; dst of second edge is 0.
        Path::new(&g, vec![EdgeId(0), EdgeId(1)]);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn no_self_loops() {
        let mut g = Graph::new();
        let n = g.add_node("a");
        g.add_link(n, n, 1);
    }
}
