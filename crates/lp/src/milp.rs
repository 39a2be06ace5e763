//! Branch-and-bound mixed-integer programming.
//!
//! The paper reports that solving the Stage-2 integer program exactly is
//! "prohibitively long" with standard solvers; LPDAR exists because of that.
//! This module provides a small exact solver anyway — practical only for
//! tiny instances — so the reproduction can do something the paper could
//! not: measure LPDAR's true optimality gap (see the `ablation_exact`
//! bench).
//!
//! Depth-first branch-and-bound on LP relaxations solved by the sparse
//! revised simplex. Branching variable: most fractional. No cuts, no
//! presolve; exactness over speed.
//!
//! ## Parallel search
//!
//! The node stack is shared: [`MilpConfig::threads`] workers (via
//! `wavesched-par`, the `WS_THREADS` knob) pop nodes, solve the LP
//! relaxations concurrently, and push children back. With one worker the
//! traversal is exactly the serial depth-first order, on the calling
//! thread. With more workers the *exploration order* (and therefore the
//! explored node count) depends on scheduling, but the **returned
//! incumbent is reproducible**: a candidate replaces the incumbent only if
//! its objective is strictly better, or equal with a lexicographically
//! smaller solution vector — a total order on candidates, so the winner
//! does not depend on discovery order. Every incumbent update happens
//! under one mutex, and each worker re-solves on its own clone of the
//! problem, so LP answers are pure functions of the node.

use crate::model::{Objective, Problem};
use crate::revised::solve;
use crate::solution::Status;
use crate::SolveError;
use std::sync::{Condvar, Mutex};
use wavesched_obs as obs;

/// Knobs for [`solve_milp`].
#[derive(Debug, Clone)]
pub struct MilpConfig {
    /// Maximum branch-and-bound nodes explored before giving up.
    pub max_nodes: u64,
    /// A relaxation value within this of an integer counts as integral.
    pub int_tol: f64,
    /// Stop when the relative gap between incumbent and best bound drops
    /// below this.
    pub rel_gap: f64,
    /// Workers exploring the node stack. `0` (the default) resolves to the
    /// `WS_THREADS` environment knob; `1` is the exact serial depth-first
    /// search, run inline on the calling thread.
    pub threads: usize,
}

impl Default for MilpConfig {
    fn default() -> Self {
        MilpConfig {
            max_nodes: 100_000,
            int_tol: 1e-6,
            rel_gap: 1e-9,
            threads: 0,
        }
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
    /// Node limit hit; `best` (if any) is a feasible incumbent without an
    /// optimality proof.
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
    /// Nodes explored (scheduling-dependent when `threads > 1`).
    pub nodes: u64,
}

/// Bound overrides of one node relative to the root problem.
type Changes = Vec<(usize, f64, f64)>;

/// Search state shared by the workers, guarded by one mutex.
struct Shared {
    /// LIFO node stack (depth-first when explored by one worker).
    stack: Vec<Changes>,
    /// Best integer point so far, under the better-objective-then-
    /// lexicographic order.
    incumbent: Option<(f64, Vec<f64>)>,
    nodes: u64,
    /// Nodes popped but not yet classified; the search is over only when
    /// the stack is empty AND nothing is in flight.
    in_flight: usize,
    limit_hit: bool,
    unbounded: bool,
    error: Option<SolveError>,
}

/// What one node's (unlocked) LP solve concluded.
enum NodeOutcome {
    Unbounded,
    /// Infeasible, iteration-limited, or empty-domain node.
    Fathomed,
    /// Relaxation integral: a candidate incumbent (`obj` re-evaluated on
    /// the rounded point).
    Integral {
        obj: f64,
        x: Vec<f64>,
    },
    /// Relaxation fractional: children to push unless pruned.
    Fractional {
        bound: f64,
        up: Changes,
        down: Changes,
    },
}

/// The incumbent replacement rule: a candidate wins iff its objective is
/// strictly better, or exactly equal with a lexicographically smaller
/// point. This is a total order on candidates, so the surviving incumbent
/// is independent of the order in which parallel workers discover them —
/// the property the determinism tests pin down.
fn should_replace(
    maximize: bool,
    obj: f64,
    x: &[f64],
    incumbent: &Option<(f64, Vec<f64>)>,
) -> bool {
    match incumbent {
        None => true,
        Some((inc, ix)) => {
            let strictly_better = if maximize { obj > *inc } else { obj < *inc };
            strictly_better || (obj == *inc && lex_less(x, ix))
        }
    }
}

/// `a` strictly before `b` lexicographically (first differing coordinate
/// smaller). Both points come from the same column space.
fn lex_less(a: &[f64], b: &[f64]) -> bool {
    for (x, y) in a.iter().zip(b) {
        if x < y {
            return true;
        }
        if x > y {
            return false;
        }
    }
    false
}

/// Immutable context shared by every worker.
struct Ctx<'a> {
    p: &'a Problem,
    cfg: &'a MilpConfig,
    int_cols: &'a [usize],
    maximize: bool,
    shared: &'a Mutex<Shared>,
    cv: &'a Condvar,
}

impl Ctx<'_> {
    /// Is objective `a` better than `b` in the problem sense?
    fn better(&self, a: f64, b: f64) -> bool {
        if self.maximize {
            a > b
        } else {
            a < b
        }
    }

    /// The serial pruning rule: fathom a node whose LP bound cannot beat
    /// the incumbent (or beats it by less than the relative gap).
    fn prune(&self, bound: f64, incumbent: Option<f64>) -> bool {
        incumbent.is_some_and(|inc| {
            let gap_ok = !self.better(bound, inc);
            let rel = (bound - inc).abs() / inc.abs().max(1.0);
            gap_ok || rel < self.cfg.rel_gap
        })
    }

    /// Solves one node on this worker's problem clone. Pure: touches no
    /// shared state, so it runs unlocked and concurrently.
    fn process(&self, work: &mut Problem, changes: &Changes) -> Result<NodeOutcome, SolveError> {
        // Apply overrides, remembering what to restore.
        let saved: Changes = changes
            .iter()
            .map(|&(j, _, _)| {
                let (l, u) = work.col_bounds(crate::Col(j as u32));
                (j, l, u)
            })
            .collect();
        let mut valid = true;
        for &(j, l, u) in changes {
            if l > u {
                valid = false;
            }
            work.set_col_bounds(crate::Col(j as u32), l, u);
        }

        let outcome = if !valid {
            Ok(NodeOutcome::Fathomed)
        } else {
            match solve(work) {
                Err(e) => Err(e),
                Ok(sol) if sol.status == Status::Unbounded => Ok(NodeOutcome::Unbounded),
                Ok(sol) if sol.status == Status::Optimal => {
                    // Find the most fractional integer column.
                    let mut frac_col = None;
                    let mut frac_dist = self.cfg.int_tol;
                    for &j in self.int_cols {
                        let v = sol.x[j];
                        let d = (v - v.round()).abs();
                        if d > frac_dist {
                            frac_dist = d;
                            frac_col = Some(j);
                        }
                    }
                    match frac_col {
                        None => {
                            let mut x = sol.x.clone();
                            for &j in self.int_cols {
                                x[j] = x[j].round();
                            }
                            let obj = self.p.eval_objective(&x);
                            Ok(NodeOutcome::Integral { obj, x })
                        }
                        Some(j) => {
                            let v = sol.x[j];
                            let (l, u) = work.col_bounds(crate::Col(j as u32));
                            // Branch down then up; "up" is pushed first so
                            // the "down" child (rounding toward zero usage)
                            // is explored first by a depth-first worker.
                            let mut up = changes.clone();
                            up.push((j, v.ceil(), u));
                            let mut down = changes.clone();
                            down.push((j, l, v.floor()));
                            Ok(NodeOutcome::Fractional {
                                bound: sol.objective,
                                up,
                                down,
                            })
                        }
                    }
                }
                Ok(_) => Ok(NodeOutcome::Fathomed), // infeasible / iteration limit
            }
        };

        // Restore bounds for the next node on this worker.
        for &(j, l, u) in saved.iter().rev() {
            work.set_col_bounds(crate::Col(j as u32), l, u);
        }
        outcome
    }

    /// One worker: pop nodes, solve unlocked, classify under the lock.
    fn worker(&self) {
        let mut work = self.p.clone();
        loop {
            // Acquire a node (or detect termination).
            let changes = {
                let mut st = self.shared.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if st.error.is_some() || st.unbounded {
                        self.cv.notify_all();
                        return;
                    }
                    if let Some(c) = st.stack.pop() {
                        if st.nodes >= self.cfg.max_nodes {
                            // Same accounting as the serial search: the
                            // node past the limit is dropped unexplored.
                            st.limit_hit = true;
                            st.stack.clear();
                            continue;
                        }
                        st.nodes += 1;
                        st.in_flight += 1;
                        break c;
                    }
                    if st.in_flight == 0 {
                        self.cv.notify_all();
                        return;
                    }
                    st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                }
            };

            let outcome = self.process(&mut work, &changes);

            // Classify under the lock, against the freshest incumbent.
            let mut st = self.shared.lock().unwrap_or_else(|e| e.into_inner());
            st.in_flight -= 1;
            match outcome {
                Err(e) => {
                    if st.error.is_none() {
                        st.error = Some(e);
                    }
                }
                Ok(NodeOutcome::Unbounded) => st.unbounded = true,
                Ok(NodeOutcome::Fathomed) => {}
                Ok(NodeOutcome::Integral { obj, x }) => {
                    // No prune() here: the gap-based prune would discard a
                    // candidate that *ties* the incumbent objective (rel
                    // gap 0) before the lexicographic tie-break ever saw
                    // it, making the surviving point depend on discovery
                    // order. `should_replace` alone is the total order the
                    // module contract promises — strictly worse candidates
                    // lose there anyway.
                    if should_replace(self.maximize, obj, &x, &st.incumbent) {
                        st.incumbent = Some((obj, x));
                    }
                }
                Ok(NodeOutcome::Fractional { bound, up, down }) => {
                    let inc_obj = st.incumbent.as_ref().map(|(o, _)| *o);
                    if !self.prune(bound, inc_obj) {
                        st.stack.push(up);
                        st.stack.push(down);
                    }
                }
            }
            self.cv.notify_all();
        }
    }
}

/// Solves `p`, honoring the integrality marks set with
/// [`Problem::add_int_col`] / [`Problem::set_integer`].
pub fn solve_milp(p: &Problem, cfg: &MilpConfig) -> Result<MilpSolution, SolveError> {
    let _span = obs::span("milp");
    let int_cols: Vec<usize> = (0..p.num_cols()).filter(|&j| p.cols[j].integer).collect();
    let maximize = p.objective() == Objective::Maximize;

    let shared = Mutex::new(Shared {
        stack: vec![Vec::new()],
        incumbent: None,
        nodes: 0,
        in_flight: 0,
        limit_hit: false,
        unbounded: false,
        error: None,
    });
    let cv = Condvar::new();
    let ctx = Ctx {
        p,
        cfg,
        int_cols: &int_cols,
        maximize,
        shared: &shared,
        cv: &cv,
    };
    // One worker (`threads == 1`, or WS_THREADS=1 via the default 0) runs
    // the exact serial DFS inline on this thread; see `wavesched_par`.
    wavesched_par::run_workers(cfg.threads, |_w| ctx.worker());

    let st = shared.into_inner().unwrap_or_else(|e| e.into_inner());
    if let Some(e) = st.error {
        return Err(e);
    }
    obs::counter_add("milp.nodes", st.nodes);
    if st.unbounded {
        return Ok(MilpSolution {
            status: MilpStatus::Unbounded,
            objective: if maximize {
                f64::INFINITY
            } else {
                f64::NEG_INFINITY
            },
            x: Vec::new(),
            nodes: st.nodes,
        });
    }
    Ok(match st.incumbent {
        Some((obj, x)) => MilpSolution {
            status: if st.limit_hit {
                MilpStatus::NodeLimit
            } else {
                MilpStatus::Optimal
            },
            objective: obj,
            x,
            nodes: st.nodes,
        },
        None => MilpSolution {
            status: if st.limit_hit {
                MilpStatus::NodeLimit
            } else {
                MilpStatus::Infeasible
            },
            objective: f64::NAN,
            x: Vec::new(),
            nodes: st.nodes,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Objective, Problem};

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
        let x = p.add_col(0.0, 7.0, 1.0);
        let _ = x;
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
        let cfg = MilpConfig {
            max_nodes: 2,
            ..MilpConfig::default()
        };
        let s = solve_milp(&p, &cfg).unwrap();
        assert_eq!(s.status, MilpStatus::NodeLimit);
    }

    /// A knapsack family with many near-ties, solved at several widths: the
    /// incumbent objective and point must be identical to the one-worker
    /// (serial DFS) search.
    #[test]
    fn parallel_incumbent_matches_serial_bitwise() {
        for seed in 0..6u64 {
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

            let solve_at = |threads: usize| {
                let cfg = MilpConfig {
                    threads,
                    ..MilpConfig::default()
                };
                solve_milp(&p, &cfg).unwrap()
            };
            let serial = solve_at(1);
            assert_eq!(serial.status, MilpStatus::Optimal, "seed {seed}");
            for threads in [2, 4] {
                let par = solve_at(threads);
                assert_eq!(par.status, MilpStatus::Optimal, "seed {seed}");
                assert_eq!(
                    serial.objective.to_bits(),
                    par.objective.to_bits(),
                    "seed {seed} threads {threads}: objective"
                );
                assert_eq!(
                    serial.x, par.x,
                    "seed {seed} threads {threads}: incumbent point"
                );
            }
        }
    }

    /// The incumbent rule is a total order on candidates: equal objectives
    /// break toward the lexicographically smaller point, so two racing
    /// workers install the same winner no matter who classifies first. (At
    /// one worker ties never reach this rule — the bound check fathoms
    /// equal-objective subtrees once an incumbent exists — which is exactly
    /// why the rule matters for cross-width reproducibility.)
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
    fn parallel_agrees_on_infeasible_and_node_limit() {
        // Infeasible stays infeasible at any width.
        let mut p = Problem::new(Objective::Minimize);
        let x = p.add_int_col(0.0, 10.0, 1.0);
        p.add_row(1.0, 1.0, &[(x, 2.0)]);
        for threads in [1, 4] {
            let cfg = MilpConfig {
                threads,
                ..MilpConfig::default()
            };
            let s = solve_milp(&p, &cfg).unwrap();
            assert_eq!(s.status, MilpStatus::Infeasible, "threads {threads}");
        }
    }

    #[test]
    fn lex_less_orders_points() {
        assert!(lex_less(&[0.0, 1.0], &[1.0, 0.0]));
        assert!(!lex_less(&[1.0, 0.0], &[0.0, 1.0]));
        assert!(!lex_less(&[1.0, 1.0], &[1.0, 1.0]));
        assert!(lex_less(&[1.0, 0.0, 5.0], &[1.0, 0.0, 6.0]));
    }
}
