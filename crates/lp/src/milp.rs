//! Branch-and-bound mixed-integer programming.
//!
//! The paper reports that solving the Stage-2 integer program exactly is
//! "prohibitively long" with standard solvers; LPDAR exists because of that.
//! This module provides a small exact solver anyway — practical only for
//! tiny instances — so the reproduction can do something the paper could
//! not: measure LPDAR's true optimality gap (see the `ablation_exact`
//! bench).
//!
//! One serial depth-first loop over LP relaxations solved by the sparse
//! revised simplex, on the calling thread. Branching variable: most
//! fractional; the "down" child is explored first. No cuts, no presolve;
//! exactness over speed. A candidate replaces the incumbent only if its
//! objective is strictly better, or equal with a lexicographically smaller
//! point — a total order on candidates, so the returned point is a function
//! of the problem and not of which tied candidate the search met first.

use crate::model::{Col, Objective, Problem};
use crate::revised::solve;
use crate::solution::Status;
use crate::SolveError;
use wavesched_obs as obs;

/// A relaxation value within this of an integer counts as integral.
const INT_TOL: f64 = 1e-6;

/// A node is fathomed when its LP bound beats the incumbent by less than
/// this, relative to the incumbent.
const REL_GAP: f64 = 1e-9;

/// The one knob of [`solve_milp`].
#[derive(Debug, Clone)]
pub struct MilpConfig {
    /// Maximum branch-and-bound nodes explored before giving up.
    pub max_nodes: u64,
}

impl Default for MilpConfig {
    fn default() -> Self {
        MilpConfig { max_nodes: 100_000 }
    }
}

/// Outcome of a branch-and-bound run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MilpStatus {
    /// Incumbent proven optimal (all nodes fathomed).
    Optimal,
    /// No feasible integer point exists.
    Infeasible,
    /// The LP relaxation is unbounded.
    Unbounded,
    /// Node limit hit: the incumbent, if any, has no optimality proof.
    NodeLimit,
}

/// Result of [`solve_milp`].
#[derive(Debug, Clone)]
pub struct MilpSolution {
    /// Outcome of the search.
    pub status: MilpStatus,
    /// Objective of the incumbent (NaN when none exists).
    pub objective: f64,
    /// Incumbent point, one value per column (empty when none exists).
    pub x: Vec<f64>,
    /// Nodes explored.
    pub nodes: u64,
}

/// A node: the bounds of every integer column, in `int_cols` order.
type Node = Vec<(f64, f64)>;

/// Best integer point so far: its objective and the point.
type Incumbent = Option<(f64, Vec<f64>)>;

/// The incumbent replacement rule: a candidate wins iff its objective is
/// strictly better, or exactly equal with a lexicographically smaller
/// point.
#[expect(
    clippy::float_cmp,
    reason = "exact-tie incumbent order: the rule above breaks only a bit-equal objective by the lexicographic order of the points"
)]
fn should_replace(maximize: bool, obj: f64, x: &[f64], incumbent: &Incumbent) -> bool {
    let Some((inc, ix)) = incumbent else {
        return true;
    };
    let strictly_better = if maximize { obj > *inc } else { obj < *inc };
    strictly_better || (obj == *inc && lex_less(x, ix))
}

/// `a` strictly before `b` lexicographically (first differing coordinate
/// smaller): the slice order, on NaN-free points of one column space.
fn lex_less(a: &[f64], b: &[f64]) -> bool {
    a < b
}

/// The pruning rule: fathom a fractional node whose LP bound cannot beat
/// the incumbent, or beats it by less than [`REL_GAP`].
fn prune(maximize: bool, bound: f64, incumbent: &Incumbent) -> bool {
    incumbent.as_ref().is_some_and(|&(inc, _)| {
        let better = if maximize { bound > inc } else { bound < inc };
        !better || (bound - inc).abs() / inc.abs().max(1.0) < REL_GAP
    })
}

/// Position in `int_cols` of the column of `x` farthest from an integer, if
/// any is farther than [`INT_TOL`] (the first such column on ties).
fn most_fractional(x: &[f64], int_cols: &[usize]) -> Option<usize> {
    let mut best = None;
    let mut dist = INT_TOL;
    for (k, &j) in int_cols.iter().enumerate() {
        let d = (x[j] - x[j].round()).abs();
        if d > dist {
            dist = d;
            best = Some(k);
        }
    }
    best
}

/// Solves `p`, honoring the integrality marks set with
/// [`Problem::add_int_col`].
pub fn solve_milp(p: &Problem, cfg: &MilpConfig) -> Result<MilpSolution, SolveError> {
    let _span = obs::span("milp");
    let int_cols: Vec<usize> = (0..p.num_cols()).filter(|&j| p.cols[j].integer).collect();
    let maximize = p.objective() == Objective::Maximize;
    let col = Col::from_index;
    let mut work = p.clone();
    let root: Node = int_cols.iter().map(|&j| p.col_bounds(col(j))).collect();
    let mut stack = vec![root]; // LIFO: the search is depth-first
    let mut incumbent: Incumbent = None;
    let mut nodes = 0u64;
    // Why the search ended with nodes still open: `NodeLimit` or `Unbounded`.
    let mut stopped = None;
    while let Some(node) = stack.pop() {
        if nodes >= cfg.max_nodes {
            stopped = Some(MilpStatus::NodeLimit);
            break;
        }
        nodes += 1;
        if node.iter().any(|&(l, u)| l > u) {
            continue; // branching emptied a domain
        }
        for (&j, &(l, u)) in int_cols.iter().zip(&node) {
            work.set_col_bounds(col(j), l, u);
        }
        let sol = solve(&work)?;
        match sol.status {
            Status::Optimal => {}
            Status::Unbounded => {
                // Reported as an infinite objective with no point.
                let sign = if maximize { 1.0 } else { -1.0 };
                incumbent = Some((sign * f64::INFINITY, Vec::new()));
                stopped = Some(MilpStatus::Unbounded);
                break;
            }
            _ => continue, // infeasible or iteration-limited
        }
        let Some(k) = most_fractional(&sol.x, &int_cols) else {
            // A candidate, its objective re-evaluated on the rounded point.
            // Not prune()d: the gap rule would drop a candidate that ties
            // the incumbent before the lexicographic tie-break saw it.
            let mut x = sol.x;
            for &j in &int_cols {
                x[j] = x[j].round();
            }
            let obj = p.eval_objective(&x);
            if should_replace(maximize, obj, &x, &incumbent) {
                incumbent = Some((obj, x));
            }
            continue;
        };
        if prune(maximize, sol.objective, &incumbent) {
            continue;
        }
        // "Up" is pushed first so the "down" child (rounding toward zero
        // usage) is explored first.
        let v = sol.x[int_cols[k]];
        let (l, u) = node[k];
        let mut up = node.clone();
        up[k] = (v.ceil(), u);
        let mut down = node;
        down[k] = (l, v.floor());
        stack.push(up);
        stack.push(down);
    }

    obs::counter_add("milp.nodes", nodes);
    let (proven, objective, x) = match incumbent {
        Some((obj, x)) => (MilpStatus::Optimal, obj, x),
        None => (MilpStatus::Infeasible, f64::NAN, Vec::new()),
    };
    Ok(MilpSolution {
        status: stopped.unwrap_or(proven),
        objective,
        x,
        nodes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn near(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "expected {b}, got {a}");
    }

    #[test]
    fn knapsack() {
        // max 10a + 13b + 7c, 3a + 4b + 2c <= 6, binary.
        let mut p = Problem::new(Objective::Maximize);
        let a = p.add_int_col(0.0, 1.0, 10.0);
        let b = p.add_int_col(0.0, 1.0, 13.0);
        let c = p.add_int_col(0.0, 1.0, 7.0);
        p.add_row(f64::NEG_INFINITY, 6.0, &[(a, 3.0), (b, 4.0), (c, 2.0)]);
        let s = solve_milp(&p, &MilpConfig::default()).unwrap();
        assert_eq!(s.status, MilpStatus::Optimal);
        near(s.objective, 20.0); // b + c = 13 + 7
        near(s.x[1], 1.0);
        near(s.x[2], 1.0);
    }

    #[test]
    fn integer_rounding_matters() {
        // max x + y s.t. 2x + 2y <= 5, integers: LP gives 2.5, ILP 2.
        let mut p = Problem::new(Objective::Maximize);
        let x = p.add_int_col(0.0, f64::INFINITY, 1.0);
        let y = p.add_int_col(0.0, f64::INFINITY, 1.0);
        p.add_row(f64::NEG_INFINITY, 5.0, &[(x, 2.0), (y, 2.0)]);
        let s = solve_milp(&p, &MilpConfig::default()).unwrap();
        assert_eq!(s.status, MilpStatus::Optimal);
        near(s.objective, 2.0);
    }

    #[test]
    fn infeasible_milp() {
        // 2x == 1 with x integer.
        let mut p = Problem::new(Objective::Minimize);
        let x = p.add_int_col(0.0, 10.0, 1.0);
        p.add_row(1.0, 1.0, &[(x, 2.0)]);
        let s = solve_milp(&p, &MilpConfig::default()).unwrap();
        assert_eq!(s.status, MilpStatus::Infeasible);
    }

    #[test]
    fn mixed_continuous_integer() {
        // max 2x + y, x integer, y continuous; x + y <= 3.5, x <= 2.2.
        let mut p = Problem::new(Objective::Maximize);
        let x = p.add_int_col(0.0, 2.2, 2.0);
        let y = p.add_col(0.0, f64::INFINITY, 1.0);
        p.add_row(f64::NEG_INFINITY, 3.5, &[(x, 1.0), (y, 1.0)]);
        let s = solve_milp(&p, &MilpConfig::default()).unwrap();
        assert_eq!(s.status, MilpStatus::Optimal);
        // x = 2, y = 1.5 -> 5.5
        near(s.objective, 5.5);
        near(s.x[0], 2.0);
    }

    #[test]
    fn minimization_direction() {
        // min x, x integer >= 1.3  => x = 2.
        let mut p = Problem::new(Objective::Minimize);
        let x = p.add_int_col(0.0, 10.0, 1.0);
        p.add_row(1.3, f64::INFINITY, &[(x, 1.0)]);
        let s = solve_milp(&p, &MilpConfig::default()).unwrap();
        assert_eq!(s.status, MilpStatus::Optimal);
        near(s.objective, 2.0);
    }

    #[test]
    fn pure_lp_passthrough() {
        // No integer columns: single relaxation solve.
        let mut p = Problem::new(Objective::Maximize);
        p.add_col(0.0, 7.0, 1.0);
        let s = solve_milp(&p, &MilpConfig::default()).unwrap();
        assert_eq!(s.status, MilpStatus::Optimal);
        near(s.objective, 7.0);
        assert_eq!(s.nodes, 1);
    }

    #[test]
    fn node_limit_reported() {
        let mut p = Problem::new(Objective::Maximize);
        let cols: Vec<_> = (0..12).map(|_| p.add_int_col(0.0, 1.0, 1.0)).collect();
        let coeffs: Vec<_> = cols.iter().map(|&c| (c, 2.0)).collect();
        p.add_row(f64::NEG_INFINITY, 11.0, &coeffs);
        let s = solve_milp(&p, &MilpConfig { max_nodes: 2 }).unwrap();
        assert_eq!(s.status, MilpStatus::NodeLimit);
    }

    /// A knapsack family with many near-ties, held to what the shared-stack
    /// search this loop replaced returned at `threads = 1` (recorded at
    /// commit 771898a, before the rewrite): objective bits, the columns at
    /// 1 and the node count — the same traversal, not just the same optimum.
    #[test]
    fn knapsack_family_matches_the_recorded_serial_search() {
        const PINS: [(f64, &[usize], u64); 6] = [
            (530.0, &[2, 4, 5, 7, 8, 9, 11, 12], 43),
            (531.0, &[1, 2, 3, 5, 6, 7, 8, 10, 13], 29),
            (563.0, &[0, 2, 3, 4, 5, 6, 7, 13], 57),
            (454.0, &[0, 1, 2, 7, 8, 12], 17),
            (516.0, &[0, 1, 2, 3, 8, 11, 12], 57),
            (485.0, &[2, 3, 7, 9, 10, 11, 13], 67),
        ];
        for (seed, &(objective, ones, nodes)) in (0u64..).zip(&PINS) {
            let mut p = Problem::new(Objective::Maximize);
            let n = 14;
            let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
            let mut rand = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 97) as f64 + 1.0
            };
            let cols: Vec<_> = (0..n).map(|_| p.add_int_col(0.0, 1.0, rand())).collect();
            let weights: Vec<f64> = (0..n).map(|_| rand()).collect();
            let coeffs: Vec<_> = cols.iter().zip(&weights).map(|(&c, &w)| (c, w)).collect();
            let budget = weights.iter().sum::<f64>() * 0.4;
            p.add_row(f64::NEG_INFINITY, budget, &coeffs);

            let s = solve_milp(&p, &MilpConfig::default()).unwrap();
            assert_eq!(s.status, MilpStatus::Optimal, "seed {seed}");
            assert_eq!(s.objective.to_bits(), objective.to_bits(), "seed {seed}");
            let x: Vec<f64> = (0..n).map(|j| f64::from(ones.contains(&j))).collect();
            assert_eq!(s.x, x, "seed {seed}: incumbent point");
            assert_eq!(s.nodes, nodes, "seed {seed}: nodes explored");
        }
    }

    /// The incumbent rule is a total order on candidates: equal objectives
    /// break toward the lexicographically smaller point, so the winner does
    /// not depend on which of two tied candidates was met first.
    #[test]
    fn equal_objective_ties_break_lexicographically() {
        let a = vec![0.0, 0.0, 1.0];
        let b = vec![0.0, 1.0, 0.0];
        for maximize in [true, false] {
            // Empty incumbent always loses.
            assert!(should_replace(maximize, 1.0, &a, &None));
            // Equal objective: the lexicographically smaller point wins…
            let inc_b = Some((1.0, b.clone()));
            assert!(should_replace(maximize, 1.0, &a, &inc_b));
            // …and order of arrival does not matter.
            let inc_a = Some((1.0, a.clone()));
            assert!(!should_replace(maximize, 1.0, &b, &inc_a));
            // An identical candidate never replaces (no churn).
            assert!(!should_replace(maximize, 1.0, &a, &inc_a));
        }
        // Strictly better objective wins regardless of lex order.
        assert!(should_replace(true, 2.0, &b, &Some((1.0, a.clone()))));
        assert!(!should_replace(true, 0.5, &a, &Some((1.0, b.clone()))));
        assert!(should_replace(false, 0.5, &b, &Some((1.0, a.clone()))));
        assert!(!should_replace(false, 2.0, &a, &Some((1.0, b.clone()))));
    }

    #[test]
    fn lex_less_orders_points() {
        assert!(lex_less(&[0.0, 1.0], &[1.0, 0.0]));
        assert!(!lex_less(&[1.0, 0.0], &[0.0, 1.0]));
        assert!(!lex_less(&[1.0, 1.0], &[1.0, 1.0]));
        assert!(lex_less(&[1.0, 0.0, 5.0], &[1.0, 0.0, 6.0]));
    }
}
