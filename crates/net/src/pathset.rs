//! Cached allowed-path collections per (source, destination) pair.
//!
//! The paper's formulations reserve bandwidth only on an explicitly defined
//! set of allowed paths `P(s_i, d_i, j)` per job. This module computes and
//! caches the k shortest loopless paths per node pair, the policy used
//! throughout the paper's evaluation (4–8 paths per job).

use crate::graph::{Graph, NodeId, Path};
use crate::yen::{k_shortest_paths_in, Workspace};
use std::collections::BTreeMap;

/// A lazily-built cache of k-shortest paths per (source, destination).
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
    cache: BTreeMap<(NodeId, NodeId), Vec<Path>>,
    workspace: Workspace,
}

impl PathSet {
    /// Creates an empty cache that will compute up to `k` paths per pair.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        PathSet {
            k,
            cache: BTreeMap::new(),
            workspace: Workspace::default(),
        }
    }

    /// Returns the allowed paths for `(src, dst)`, computing and caching
    /// them on first use. Empty when `dst` is unreachable from `src`.
    pub fn paths(&mut self, g: &Graph, src: NodeId, dst: NodeId) -> &[Path] {
        self.cache
            .entry((src, dst))
            .or_insert_with(|| k_shortest_paths_in(&mut self.workspace, g, src, dst, self.k))
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

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        PathSet::new(0);
    }
}
