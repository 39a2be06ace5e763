//! Runtime-sanitizer integration: with `WS_SANITIZE` set, sweeps run
//! during real solves, find nothing wrong, and leave answers untouched.
//!
//! The interval knob is read once per process, so this whole binary pins
//! `WS_SANITIZE=2` (a sweep every other pivot) before the first solve;
//! each test re-sets it defensively in case of test-order changes.
//! Cross-process behavior — byte-identical figure outputs with the
//! sanitizer on vs. off — is covered by the `sanitizer-smoke` CI job.

mod common;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use wavesched_lp::{solve, Col, Objective, Problem, SolverSession, Status};

fn set_interval() {
    std::env::set_var("WS_SANITIZE", "2");
}

/// A dense-ish feasible minimization with enough pivots to trigger many
/// sweeps, built from integer data so the optimum is stable.
fn pivot_heavy_problem(seed: u64, n: usize, m: usize) -> Problem {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = Problem::new(Objective::Minimize);
    let cols: Vec<_> = (0..n)
        .map(|_| {
            let cost = rng.random_range(1i32..=9) as f64;
            p.add_col(0.0, rng.random_range(2i32..=12) as f64, cost)
        })
        .collect();
    for _ in 0..m {
        let mut coeffs = Vec::new();
        for &c in &cols {
            if rng.random_range(0..100) < 70 {
                coeffs.push((c, rng.random_range(1i32..=4) as f64));
            }
        }
        if coeffs.is_empty() {
            continue;
        }
        // Covering rows keep the problem feasible but force work.
        let need = rng.random_range(2i32..=8) as f64;
        p.add_row(need, f64::INFINITY, &coeffs);
    }
    p
}

#[test]
fn sweeps_run_and_find_no_violations() {
    set_interval();
    let mut total_checks = 0u64;
    for seed in 0..8 {
        let p = pivot_heavy_problem(seed, 40, 30);
        let sol = solve(&p).expect("solve");
        assert_eq!(sol.status, Status::Optimal, "seed {seed}");
        assert_eq!(
            sol.stats.sanitizer_violations, 0,
            "seed {seed}: sanitizer flagged a healthy solve"
        );
        total_checks += sol.stats.sanitizer_checks;
    }
    assert!(
        total_checks > 0,
        "no sweeps ran despite WS_SANITIZE=2 and pivot-heavy problems"
    );
}

/// The production shape on a basis of three bitmap words: every other
/// pivot the residual check holds the sparse solves to `A x = b`.
#[test]
fn sweeps_hold_a_multi_word_basis_to_its_residual() {
    set_interval();
    let p = common::time_expanded_lp(0x51AB_0005);
    assert!(p.num_rows() >= 150, "{} rows", p.num_rows());
    let sol = solve(&p).expect("solve");
    assert_eq!(sol.status, Status::Optimal);
    assert_eq!(sol.stats.sanitizer_violations, 0, "{:?}", sol.stats);
    assert!(sol.stats.sanitizer_checks > 0, "{:?}", sol.stats);
}

#[test]
fn sanitizer_does_not_change_the_answer() {
    set_interval();
    // The sanitizer only reads engine state, so the solution must equal the
    // independently known optimum of a hand-checkable LP:
    //   min x + 2y  s.t.  x + y >= 4, x <= 3, y <= 5  →  x = 3, y = 1.
    let mut p = Problem::new(Objective::Minimize);
    let x = p.add_col(0.0, 3.0, 1.0);
    let y = p.add_col(0.0, 5.0, 2.0);
    p.add_row(4.0, f64::INFINITY, &[(x, 1.0), (y, 1.0)]);
    let sol = solve(&p).expect("solve");
    assert_eq!(sol.status, Status::Optimal);
    assert!((sol.objective - 5.0).abs() < 1e-9, "{}", sol.objective);
    assert!((sol.x[x.index()] - 3.0).abs() < 1e-9);
    assert!((sol.x[y.index()] - 1.0).abs() < 1e-9);
    assert_eq!(sol.stats.sanitizer_violations, 0);
}

/// A solve that installs a basis snapshot rebuilds everything the sweep
/// checks, so it sweeps on a fresh engine's cadence: a session that already
/// pivoted reports the same work, sweeps included, as a one-shot solve of
/// the same LP from the same basis — which lets a caller hold one engine
/// across related solves without moving a counter.
#[test]
fn snapshot_entry_sweeps_on_a_fresh_engines_cadence() {
    set_interval();
    let mut odd_first_solves = 0;
    for seed in 0..8 {
        let mut p = pivot_heavy_problem(seed, 40, 30);
        let mut session = SolverSession::new(&p).expect("session");
        let first = session.solve().expect("solve");
        let basis = first.basis.expect("optimal basis");
        // At a sweep every other pivot, an odd first solve leaves the
        // countdown mid-interval.
        odd_first_solves += first.stats.iterations % 2;

        for j in 0..p.num_cols() {
            let col = Col::from_index(j);
            let flipped = 10.0 - p.cost(col);
            p.set_cost(col, flipped);
            session.set_cost(col, flipped);
        }
        session.warm_start_from(basis.clone());
        let held = session.solve().expect("re-solve");
        let mut fresh = SolverSession::new(&p).expect("session");
        fresh.warm_start_from(basis);
        let one_shot = fresh.solve().expect("one-shot");
        assert!(
            held.stats.iterations > 0,
            "seed {seed}: nothing to re-solve"
        );
        assert_eq!(held.stats, one_shot.stats, "seed {seed}");
        assert_eq!(held.objective.to_bits(), one_shot.objective.to_bits());
    }
    assert!(
        odd_first_solves > 0,
        "no seed left the countdown mid-interval"
    );
}
