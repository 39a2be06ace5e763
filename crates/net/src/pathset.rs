//! Cached allowed-path collections per (source, destination) pair.
//!
//! The paper's formulations reserve bandwidth only on an explicitly defined
//! set of allowed paths `P(s_i, d_i, j)` per job. This module computes and
//! caches the k shortest loopless paths per node pair, the policy used
//! throughout the paper's evaluation (4–8 paths per job).
//!
//! A pair's paths are computed on demand: [`PathSet::paths_upto`] and
//! [`PathSet::visit_while`] run the pair's Yen loop only as far as the
//! ranks asked for, and a later call resumes it where it paused. Column
//! generation's pricing visits ranks in order and stops where no later one
//! can win.

use crate::graph::{Graph, NodeId, Path};
use crate::yen::{Search, Workspace};
use std::collections::BTreeMap;

/// A lazily-built cache of k-shortest paths per (source, destination),
/// holding each pair's paused Yen search.
///
/// Backed by a `BTreeMap` so that iterating the cache (debug dumps, future
/// serialization) visits pairs in a stable order — part of the workspace's
/// bit-identical-output guarantee (`clippy.toml` disallows `HashMap` and
/// `HashSet` workspace-wide).
///
/// Also owns the Yen search workspace, so filling the cache for many pairs
/// reuses one set of per-node and per-edge arrays.
#[derive(Debug, Clone)]
pub struct PathSet {
    k: usize,
    cache: BTreeMap<(NodeId, NodeId), Search>,
    workspace: Workspace,
    /// Paths the searches have accepted so far, over every pair.
    found: usize,
}

impl PathSet {
    /// Creates an empty cache that will compute up to `k` paths per pair.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        PathSet {
            k,
            cache: BTreeMap::new(),
            workspace: Workspace::default(),
            found: 0,
        }
    }

    /// Returns the allowed paths for `(src, dst)`, all `k` of them (fewer
    /// when the graph has fewer simple paths), computing and caching them
    /// on first use. Empty when `dst` is unreachable from `src`.
    pub fn paths(&mut self, g: &Graph, src: NodeId, dst: NodeId) -> &[Path] {
        self.paths_upto(g, src, dst, self.k)
    }

    /// The first `min(n, k)` allowed paths for `(src, dst)` (fewer when the
    /// graph has fewer simple paths), extending the pair's cached search
    /// only as far as that. The paths are the first ones of
    /// [`paths`](Self::paths) whatever the order of calls.
    pub fn paths_upto(&mut self, g: &Graph, src: NodeId, dst: NodeId, n: usize) -> &[Path] {
        let search = self.cache.entry((src, dst)).or_default();
        let before = search.paths().len();
        search.extend(&mut self.workspace, g, (src, dst), n, self.k);
        let paths = search.paths();
        self.found += paths.len() - before;
        &paths[..n.min(paths.len())]
    }

    /// Calls `visit(rank, path)` on the allowed paths for `(src, dst)` in
    /// rank order, computing each only when `visit` is about to see it,
    /// until `visit` returns false or the pair has no more of its `k`.
    /// The ranks one call computes share one search set-up, which
    /// [`paths_upto`](Self::paths_upto) asked rank by rank would repeat.
    pub fn visit_while(
        &mut self,
        g: &Graph,
        src: NodeId,
        dst: NodeId,
        mut visit: impl FnMut(usize, &Path) -> bool,
    ) {
        let search = self.cache.entry((src, dst)).or_default();
        let before = search.paths().len();
        let mut begun = false;
        for rank in 0.. {
            let ready = rank < search.paths().len()
                || search.advance(&mut self.workspace, g, (src, dst), self.k, &mut begun);
            if !ready || !visit(rank, &search.paths()[rank]) {
                break;
            }
        }
        self.found += search.paths().len() - before;
    }

    /// Precomputes the paths for every pair in `pairs`.
    pub fn warm(&mut self, g: &Graph, pairs: impl IntoIterator<Item = (NodeId, NodeId)>) {
        for (s, d) in pairs {
            self.paths(g, s, d);
        }
    }

    /// Number of cached pairs.
    pub fn cached_pairs(&self) -> usize {
        self.cache.len()
    }

    /// Paths computed so far, over every pair: what the searches cost,
    /// which on-demand use keeps below `k` per pair.
    pub fn paths_found(&self) -> usize {
        self.found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abilene::abilene14;

    #[test]
    fn caches_and_returns_k() {
        let (g, nodes) = abilene14(4);
        let mut ps = PathSet::new(4);
        let paths = ps.paths(&g, nodes[0], nodes[10]).to_vec();
        assert!(!paths.is_empty());
        assert!(paths.len() <= 4);
        assert_eq!(ps.cached_pairs(), 1);
        // Second call hits the cache (same content).
        let again = ps.paths(&g, nodes[0], nodes[10]).to_vec();
        assert_eq!(paths.len(), again.len());
        assert_eq!(ps.cached_pairs(), 1);
    }

    #[test]
    fn warm_precomputes() {
        let (g, nodes) = abilene14(4);
        let mut ps = PathSet::new(2);
        ps.warm(&g, vec![(nodes[0], nodes[5]), (nodes[1], nodes[9])]);
        assert_eq!(ps.cached_pairs(), 2);
    }

    /// Asking rank by rank computes only the ranks asked for, and the
    /// count says so.
    #[test]
    fn paths_upto_computes_only_what_it_is_asked() {
        let (g, nodes) = abilene14(4);
        let (s, d) = (nodes[0], nodes[10]);
        let mut ps = PathSet::new(4);
        assert_eq!(ps.paths_upto(&g, s, d, 1).len(), 1);
        assert_eq!(ps.paths_found(), 1);
        assert_eq!(ps.paths_upto(&g, s, d, 0).len(), 0);
        assert_eq!(ps.paths_upto(&g, s, d, 2).len(), 2);
        assert_eq!(ps.paths_found(), 2);
        assert_eq!(ps.paths_upto(&g, s, d, 99).len(), 4);
        assert_eq!(ps.paths(&g, s, d).len(), 4);
        assert_eq!(ps.paths_found(), 4);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        PathSet::new(0);
    }
}
