//! Waxman random topologies, BRITE-style.
//!
//! The paper generates its random networks with BRITE using Waxman's model:
//! nodes are placed on a plane and the probability of interconnecting two
//! nodes decays exponentially with their Euclidean distance
//! (`P(u,v) = beta * exp(-d(u,v) / (alpha * L))`, `L` the maximum distance).
//!
//! This implementation produces a *connected* network with an exact number
//! of bidirectional link pairs (the paper speaks of "100 nodes and 200 pairs
//! of links", i.e. average node degree 4): a Waxman-weighted random spanning
//! tree guarantees connectivity, then the remaining pairs are drawn without
//! replacement with probability proportional to their Waxman weight.
//!
//! A draw of the second phase finds its pair by a descent of a Fenwick tree
//! over the candidate weights, O(log n) a link instead of a scan of all
//! O(n²) candidates, and lands on the pair the sequential scan would pick:
//! a draw within rounding distance of a pair's boundary is re-resolved by
//! that scan (see `PairSampler`).

use crate::graph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Parameters for [`waxman_network`].
#[derive(Debug, Clone)]
pub struct WaxmanConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of bidirectional link pairs (must be at least `nodes - 1`).
    pub link_pairs: usize,
    /// Wavelengths provisioned on every link.
    pub wavelengths: u32,
    /// Waxman `alpha` (distance decay scale); BRITE's default is 0.15.
    pub alpha: f64,
    /// RNG seed for reproducible topologies.
    pub seed: u64,
}

impl WaxmanConfig {
    /// The paper's headline random network: 100 nodes, 200 link pairs
    /// (average node degree 4).
    pub fn paper_default(seed: u64) -> Self {
        WaxmanConfig {
            nodes: 100,
            link_pairs: 200,
            wavelengths: 4,
            alpha: 0.15,
            seed,
        }
    }

    /// Checks that [`waxman_network`] can build this network: at least two
    /// nodes, enough link pairs to connect them and no more than there are
    /// node pairs, and a finite positive `alpha`.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.nodes;
        if n < 2 {
            return Err(format!(
                "a Waxman network needs at least two nodes, got {n}"
            ));
        }
        if self.link_pairs < n - 1 {
            return Err(format!(
                "{} link pairs cannot connect {n} nodes: connectivity needs at least {}",
                self.link_pairs,
                n - 1
            ));
        }
        let node_pairs = n as u128 * (n as u128 - 1) / 2;
        if self.link_pairs as u128 > node_pairs {
            return Err(format!(
                "{} link pairs exceed the {node_pairs} node pairs of {n} nodes",
                self.link_pairs
            ));
        }
        if !(self.alpha.is_finite() && self.alpha > 0.0) {
            return Err(format!(
                "Waxman alpha must be finite and > 0, got {}",
                self.alpha
            ));
        }
        Ok(())
    }
}

/// Generates a connected Waxman network per `cfg`.
///
/// # Panics
/// Panics if [`WaxmanConfig::validate`] rejects `cfg`: fewer than two nodes,
/// `link_pairs < nodes - 1` (cannot be connected) or beyond the complete
/// graph size, or an `alpha` that is not finite and positive. Also panics if
/// `alpha` is so small that every weight of a draw underflows to zero.
pub fn waxman_network(cfg: &WaxmanConfig) -> Graph {
    let valid = cfg.validate();
    assert!(valid.is_ok(), "{}", valid.err().unwrap_or_default());
    let n = cfg.nodes;
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Node placement on the unit square.
    let pos: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)))
        .collect();
    let dist2 = |a: usize, b: usize| -> f64 {
        let dx = pos[a].0 - pos[b].0;
        let dy = pos[a].1 - pos[b].1;
        dx * dx + dy * dy
    };
    // The largest distance is the root of the largest square: the square
    // root is monotone and correctly rounded.
    let mut max_d2: f64 = 0.0;
    for a in 0..n {
        for b in (a + 1)..n {
            max_d2 = max_d2.max(dist2(a, b));
        }
    }
    let scale = cfg.alpha * max_d2.sqrt();

    // Every pair's weight, once, at its slot in (lower, higher) order. The
    // distance is symmetric to the bit, so `slots[slot(u, v)].weight` is the
    // weight of `u` to `v` whichever is lower. The pair and the Fenwick node
    // of each slot are filled in for the second phase, in the same records.
    let mut slots = Vec::with_capacity(n * (n - 1) / 2);
    for a in 0..n {
        for b in (a + 1)..n {
            slots.push(Slot {
                weight: (-dist2(a, b).sqrt() / scale).exp(),
                tree: 0.0,
                pair: (NodeId(0), NodeId(0)),
            });
        }
    }
    let slot = |u: usize, v: usize| {
        let (a, b) = (u.min(v), u.max(v));
        a * (2 * n - a - 1) / 2 + b - a - 1
    };

    let mut g = Graph::new();
    let nodes = g.add_nodes(n);

    // Waxman-weighted random spanning tree: attach each node (in random
    // order) to an already-attached node drawn by weight.
    let mut order: Vec<usize> = (0..n).collect();
    // Fisher-Yates shuffle.
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        order.swap(i, j);
    }
    let mut attached = vec![order[0]];
    let mut tree_slots = Vec::with_capacity(n - 1);
    let mut w = Vec::with_capacity(n);
    for &v in &order[1..] {
        w.clear();
        w.extend(attached.iter().map(|&u| slots[slot(u, v)].weight));
        let total: f64 = w.iter().sum();
        let pick = attached[scan(w.iter().copied(), draw(&mut rng, total, cfg.alpha))];
        g.add_link_pair(nodes[pick], nodes[v], cfg.wavelengths);
        tree_slots.push(slot(pick, v));
        attached.push(v);
    }
    tree_slots.sort_unstable();

    // Remaining pairs: weighted sampling without replacement, over the
    // pairs the tree left, in slot order, packed to the front of the table.
    let mut left = 0;
    let mut in_tree = tree_slots.iter().peekable();
    let mut i = 0;
    for a in 0..n {
        for b in (a + 1)..n {
            if in_tree.next_if_eq(&&i).is_none() {
                slots[left].weight = slots[i].weight;
                slots[left].pair = (nodes[a], nodes[b]);
                left += 1;
            }
            i += 1;
        }
    }
    slots.truncate(left);
    let mut sampler = PairSampler::new(slots, cfg.link_pairs - (n - 1));
    for _ in (n - 1)..cfg.link_pairs {
        let (a, b) = sampler.take(&mut rng, cfg.alpha);
        g.add_link_pair(a, b, cfg.wavelengths);
    }

    g
}

/// A uniform draw below the weight `total` of the candidates it picks from.
fn draw(rng: &mut StdRng, total: f64, alpha: f64) -> f64 {
    assert!(
        total > 0.0,
        "Waxman alpha {alpha} underflows every candidate weight of a draw to zero"
    );
    rng.random_range(0.0..total)
}

/// The slot `draw` lands on when `weights` are laid end to end, found by
/// subtracting them one at a time; the last slot when rounding leaves the
/// draw past them all.
fn scan(weights: impl IntoIterator<Item = f64>, mut draw: f64) -> usize {
    let mut last = 0;
    for (i, w) in weights.into_iter().enumerate() {
        if draw < w {
            return i;
        }
        draw -= w;
        last = i;
    }
    last
}

/// One candidate slot of the second phase: 24 bytes, so the slot table,
/// the pairs and the Fenwick tree are one allocation.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Waxman weight of `pair`.
    weight: f64,
    /// Fenwick node `k + 1` of the slot at index `k`: the tree stays
    /// positional while the candidates move.
    tree: f64,
    /// The candidate link pair.
    pair: (NodeId, NodeId),
}

/// The candidate pairs of the second phase, drawn by weight without
/// replacement.
///
/// A removal moves the last candidate into the vacated slot (`swap_remove`),
/// and the running total loses the removed weight, so the candidate order
/// and every draw's bound are those of a plain scan over a `Vec`. The
/// Fenwick tree only finds the slot a draw lands on faster. Its partial sums
/// round differently from the scan's running difference, so a draw within
/// [`band`](Self::band) of either boundary of the slot the descent found is
/// re-resolved by [`scan`]: outside the band both computations agree with
/// exact arithmetic, hence with each other.
struct PairSampler {
    /// Candidates in slot order, each with its Fenwick node: `slots[k].tree`
    /// is 1-based node `k + 1`, which sums slots `k + 1 - lowbit(k + 1) ..=
    /// k`.
    slots: Vec<Slot>,
    /// Weight of the candidates left, lowered by each removed weight.
    total: f64,
    /// Worst-case rounding of the scan's running difference plus that of a
    /// tree partial sum (build, one update a node per removal, the descent's
    /// additions), with a factor 4 to spare: `4ε · (candidates + 2 · draws ·
    /// log₂ candidates) · total`.
    band: f64,
}

impl PairSampler {
    /// A sampler over the pairs and weights of `slots` (whose tree fields
    /// it overwrites), for `draws` draws.
    fn new(mut slots: Vec<Slot>, draws: usize) -> Self {
        let len = slots.len();
        // One pass: node `k` starts from its own weight and adds its
        // children `k − lowbit(k)/2, …, k − 2, k − 1` in ascending order —
        // the additions, in their order, of adding every node to its
        // parent after seeding each with its weight.
        let mut total = 0.0;
        for k in 1..=len {
            let weight = slots[k - 1].weight;
            total += weight;
            let mut sum = weight;
            let mut half = lowbit(k) / 2;
            while half > 0 {
                sum += slots[k - half - 1].tree;
                half /= 2;
            }
            slots[k - 1].tree = sum;
        }
        let depth = f64::from(usize::BITS - len.leading_zeros());
        let band = 4.0 * f64::EPSILON * (len as f64 + 2.0 * draws as f64 * depth) * total;
        PairSampler { slots, total, band }
    }

    /// The candidate weights, in slot order.
    fn weights(&self) -> impl Iterator<Item = f64> + '_ {
        self.slots.iter().map(|s| s.weight)
    }

    /// Draws one pair by weight and removes it.
    fn take(&mut self, rng: &mut StdRng, alpha: f64) -> (NodeId, NodeId) {
        let i = self.pick(draw(rng, self.total, alpha));
        let last = self.slots.len() - 1;
        let delta = self.slots[last].weight - self.slots[i].weight;
        // Slot `last` leaves the tree with node `last + 1`; the nodes below
        // it that cover slot `i` take the moved weight in place of the old.
        let mut k = i + 1;
        while k <= last {
            self.slots[k - 1].tree += delta;
            k += lowbit(k);
        }
        // The last candidate moves into slot `i`; slot `i`'s tree node
        // stays where it is.
        let Slot { weight, pair, .. } = self.slots[i];
        let moved = self.slots[last];
        self.slots[i].weight = moved.weight;
        self.slots[i].pair = moved.pair;
        self.slots.pop();
        self.total -= weight;
        pair
    }

    /// The slot [`scan`] picks for `draw`.
    fn pick(&self, draw: f64) -> usize {
        let (slot, lo) = self.descend(draw);
        let clear = slot < self.slots.len()
            && draw - lo > self.band
            && lo + self.slots[slot].weight - draw > self.band;
        let i = if clear {
            slot
        } else {
            scan(self.weights(), draw)
        };
        #[cfg(test)]
        assert_eq!(
            i,
            scan(self.weights(), draw),
            "descent left the scan at {draw}"
        );
        i
    }

    /// The number of slots whose tree-summed prefix is at most `draw` — the
    /// slot `draw` lands on, or the slot count past the end — and that prefix.
    fn descend(&self, draw: f64) -> (usize, f64) {
        let len = self.slots.len();
        let (mut slot, mut lo) = (0, 0.0);
        let mut step = if len == 0 { 0 } else { 1 << len.ilog2() };
        while step > 0 {
            if slot + step <= len {
                let hi = lo + self.slots[slot + step - 1].tree;
                if hi <= draw {
                    slot += step;
                    lo = hi;
                }
            }
            step >>= 1;
        }
        (slot, lo)
    }
}

/// The lowest set bit of `k`: the number of slots Fenwick node `k` sums.
fn lowbit(k: usize) -> usize {
    k & k.wrapping_neg()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_size_and_connected() {
        let cfg = WaxmanConfig {
            nodes: 40,
            link_pairs: 80,
            wavelengths: 8,
            alpha: 0.15,
            seed: 42,
        };
        let g = waxman_network(&cfg);
        assert_eq!(g.num_nodes(), 40);
        assert_eq!(g.num_edges(), 160); // 80 pairs = 160 directed edges
        assert!(g.is_strongly_connected());
        assert!(g.edge_ids().all(|e| g.wavelengths(e) == 8));
    }

    #[test]
    fn deterministic_by_seed() {
        let cfg = WaxmanConfig::paper_default(7);
        let g1 = waxman_network(&cfg);
        let g2 = waxman_network(&cfg);
        assert_eq!(g1.num_edges(), g2.num_edges());
        for e in g1.edge_ids() {
            assert_eq!(g1.src(e), g2.src(e));
            assert_eq!(g1.dst(e), g2.dst(e));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let g1 = waxman_network(&WaxmanConfig::paper_default(1));
        let g2 = waxman_network(&WaxmanConfig::paper_default(2));
        let same = g1
            .edge_ids()
            .zip(g2.edge_ids())
            .all(|(a, b)| g1.src(a) == g2.src(b) && g1.dst(a) == g2.dst(b));
        assert!(!same, "seeds 1 and 2 produced identical topologies");
    }

    #[test]
    fn paper_default_shape() {
        let g = waxman_network(&WaxmanConfig::paper_default(3));
        assert_eq!(g.num_nodes(), 100);
        assert_eq!(g.num_edges(), 400); // 200 pairs; average degree 4
        assert!(g.is_strongly_connected());
    }

    #[test]
    fn minimum_tree_case() {
        let cfg = WaxmanConfig {
            nodes: 10,
            link_pairs: 9,
            wavelengths: 2,
            alpha: 0.15,
            seed: 5,
        };
        let g = waxman_network(&cfg);
        assert_eq!(g.num_edges(), 18);
        assert!(g.is_strongly_connected());
    }

    #[test]
    #[should_panic(expected = "connectivity")]
    fn too_few_links_panics() {
        let cfg = WaxmanConfig {
            nodes: 10,
            link_pairs: 5,
            wavelengths: 2,
            alpha: 0.15,
            seed: 5,
        };
        waxman_network(&cfg);
    }

    #[test]
    fn validate_names_what_is_wrong() {
        let ok = WaxmanConfig::paper_default(0);
        assert_eq!(ok.validate(), Ok(()));
        for (nodes, link_pairs, alpha, want) in [
            (1, 0, 0.15, "two nodes"),
            (10, 5, 0.15, "connectivity"),
            (10, 46, 0.15, "45 node pairs"),
            (100, 200, 0.0, "alpha"),
            (100, 200, f64::NAN, "alpha"),
            (100, 200, f64::INFINITY, "alpha"),
        ] {
            let cfg = WaxmanConfig {
                nodes,
                link_pairs,
                alpha,
                ..ok.clone()
            };
            let err = cfg.validate().expect_err("must be rejected");
            assert!(err.contains(want), "{cfg:?}: {err}");
        }
    }

    /// A one-draw sampler over `weights`.
    fn sampler(weights: &[f64]) -> PairSampler {
        let slots = weights.iter().map(|&weight| Slot {
            weight,
            tree: 0.0,
            pair: (NodeId(0), NodeId(1)),
        });
        PairSampler::new(slots.collect(), 1)
    }

    /// The one-pass build adds what seeding every node with its weight and
    /// then adding each to its parent adds, in the same order: the same
    /// bits.
    #[test]
    fn tree_build_adds_in_the_order_of_the_parent_pushes() {
        let mut rng = StdRng::seed_from_u64(1);
        for len in [1, 2, 3, 7, 8, 9, 100, 1023, 1024, 1025] {
            let weights: Vec<f64> = (0..len).map(|_| rng.random_range(0.0..1.0)).collect();
            let mut pushed = weights.clone();
            for k in 1..=len {
                let parent = k + lowbit(k);
                if parent <= len {
                    pushed[parent - 1] += pushed[k - 1];
                }
            }
            let s = sampler(&weights);
            let built: Vec<u64> = s.slots.iter().map(|s| s.tree.to_bits()).collect();
            let want: Vec<u64> = pushed.iter().map(|t| t.to_bits()).collect();
            assert_eq!(built, want, "{len} slots");
            assert_eq!(s.total.to_bits(), weights.iter().sum::<f64>().to_bits());
        }
    }

    /// Two draws the descent alone would place in another slot than the
    /// scan. On a boundary: `0.9 + 0.1` rounds to exactly `1.0`, so the tree
    /// ends slot 1 at the draw and the descent lands on slot 2, while the
    /// scan's `1.0 - 0.9` rounds below `0.1` and picks slot 1. Inside a
    /// rounding gap: the tree ends slot 2 at `0.8 + 0.9 =
    /// 1.7000000000000002`, above the draw `1.7`, while the scan's `1.7 -
    /// 0.2 - 0.6` is exactly `0.9`, not below it, and picks slot 3. Both lie
    /// within the band and are re-resolved by the scan.
    #[test]
    fn draws_within_the_band_are_resolved_by_the_scan() {
        for (weights, draw, descent, want) in [
            (vec![0.9, 0.1, 0.5], 1.0, (2, 1.0), 1),
            (vec![0.2, 0.6, 0.9, 0.3], 1.7, (2, 0.8), 3),
        ] {
            let s = sampler(&weights);
            assert_eq!(s.descend(draw), descent, "{weights:?}");
            assert_eq!(scan(weights.iter().copied(), draw), want, "{weights:?}");
            assert_eq!(s.pick(draw), want, "{weights:?}");
        }
        // Clear of both boundaries the descent answers alone.
        let s = sampler(&[0.2, 0.6, 0.9, 0.3]);
        assert_eq!(s.descend(1.2), (2, 0.8));
        assert_eq!(s.pick(1.2), 2);
    }

    #[test]
    #[should_panic(expected = "alpha 0.000000001 underflows")]
    fn an_alpha_that_underflows_every_weight_is_named() {
        waxman_network(&WaxmanConfig {
            alpha: 1e-9,
            ..WaxmanConfig::paper_default(0)
        });
    }
}
