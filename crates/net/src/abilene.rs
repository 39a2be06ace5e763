//! The Abilene (Internet2) backbone topologies used by the paper's Fig. 2.
//!
//! The canonical Abilene backbone has 11 PoPs and 14 bidirectional links
//! ([`abilene14`]). The paper describes its instance as "11 nodes and 20
//! pairs of links" without listing the 6 extra links; [`abilene20`] extends
//! the canonical topology with 6 deterministic augmenting chords so the
//! evaluation can run at the paper's stated size (see DESIGN.md,
//! "Substitutions").

use crate::graph::{Graph, NodeId};

/// The 11 Abilene PoPs, in the node order used by both topologies.
pub const POPS: [&str; 11] = [
    "Seattle",
    "Sunnyvale",
    "Los Angeles",
    "Denver",
    "Kansas City",
    "Houston",
    "Chicago",
    "Indianapolis",
    "Atlanta",
    "Washington DC",
    "New York",
];

/// Canonical link pairs of the Abilene backbone (indices into [`POPS`]).
const CORE_LINKS: [(usize, usize); 14] = [
    (0, 1),  // Seattle - Sunnyvale
    (0, 3),  // Seattle - Denver
    (1, 2),  // Sunnyvale - Los Angeles
    (1, 3),  // Sunnyvale - Denver
    (2, 5),  // Los Angeles - Houston
    (3, 4),  // Denver - Kansas City
    (4, 5),  // Kansas City - Houston
    (4, 7),  // Kansas City - Indianapolis
    (5, 8),  // Houston - Atlanta
    (6, 7),  // Chicago - Indianapolis
    (7, 8),  // Indianapolis - Atlanta
    (6, 10), // Chicago - New York
    (8, 9),  // Atlanta - Washington DC
    (9, 10), // Washington DC - New York
];

/// Six deterministic augmenting chords bringing the pair count to the
/// paper's stated 20. Chosen to shorten the longest shortest-paths without
/// duplicating core links.
const EXTRA_LINKS: [(usize, usize); 6] = [
    (0, 6),  // Seattle - Chicago
    (1, 4),  // Sunnyvale - Kansas City
    (2, 8),  // Los Angeles - Atlanta
    (3, 6),  // Denver - Chicago
    (5, 7),  // Houston - Indianapolis
    (8, 10), // Atlanta - New York
];

fn build(links: &[(usize, usize)], wavelengths: u32) -> (Graph, Vec<NodeId>) {
    let mut g = Graph::new();
    let nodes: Vec<NodeId> = POPS.iter().map(|&p| g.add_node(p)).collect();
    for &(a, b) in links {
        g.add_link_pair(nodes[a], nodes[b], wavelengths);
    }
    (g, nodes)
}

/// The canonical 11-node, 14-link-pair Abilene backbone.
pub fn abilene14(wavelengths: u32) -> (Graph, Vec<NodeId>) {
    build(&CORE_LINKS, wavelengths)
}

/// The paper-sized 11-node, 20-link-pair Abilene variant (canonical links
/// plus six deterministic augmenting chords).
pub fn abilene20(wavelengths: u32) -> (Graph, Vec<NodeId>) {
    let all: Vec<(usize, usize)> = CORE_LINKS
        .iter()
        .chain(EXTRA_LINKS.iter())
        .copied()
        .collect();
    build(&all, wavelengths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::shortest_path;

    #[test]
    fn abilene14_shape() {
        let (g, nodes) = abilene14(4);
        assert_eq!(g.num_nodes(), 11);
        assert_eq!(g.num_edges(), 28);
        assert!(g.is_strongly_connected());
        assert_eq!(g.node_name(nodes[0]), "Seattle");
        assert_eq!(g.node_name(nodes[10]), "New York");
    }

    #[test]
    fn abilene20_shape() {
        let (g, _) = abilene20(4);
        assert_eq!(g.num_nodes(), 11);
        assert_eq!(g.num_edges(), 40); // 20 pairs, the paper's size
        assert!(g.is_strongly_connected());
    }

    #[test]
    fn no_duplicate_links() {
        let (g, _) = abilene20(4);
        let mut pairs: Vec<(u32, u32)> = g.edge_ids().map(|e| (g.src(e).0, g.dst(e).0)).collect();
        pairs.sort();
        let before = pairs.len();
        pairs.dedup();
        assert_eq!(before, pairs.len(), "duplicate directed link");
    }

    #[test]
    fn coast_to_coast_paths_exist() {
        let (g, nodes) = abilene14(4);
        let p = shortest_path(&g, nodes[0], nodes[10]).expect("Seattle -> New York");
        assert!(p.len() <= 5, "Abilene diameter too large: {}", p.len());
        let (g20, nodes20) = abilene20(4);
        let p20 = shortest_path(&g20, nodes20[0], nodes20[10]).unwrap();
        assert!(p20.len() <= p.len(), "chords should not lengthen paths");
    }
}
