//! Differential testing on randomized problems: every answer of the sparse
//! revised simplex is held to its certificate, and every warm start to the
//! cold solve of the same problem.
//!
//! The certificate (`certify`) shares no lowering, factorization or
//! pivoting code with the solver — it reads the `Problem` and the
//! `Solution` and proves the returned status from them alone — so a
//! verified answer is correct whichever vertex the solver chose.

mod certified;

use certified::{assert_certified, assert_every_status, check_certified};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use wavesched_lp::{
    solve, Basis, BasisStatus, Objective, Problem, Solution, SolverSession, Status,
};

/// Builds a random LP from integer-ish data, so no instance is feasible or
/// infeasible only by a margin at the tolerances' level, where the status
/// would be a matter of tolerance rather than of the mathematics.
fn random_problem(rng: &mut StdRng, nmax: usize, mmax: usize) -> Problem {
    let maximize = rng.random_range(0..2) == 0;
    let mut p = Problem::new(if maximize {
        Objective::Maximize
    } else {
        Objective::Minimize
    });
    let n = rng.random_range(1..=nmax);
    let m = rng.random_range(0..=mmax);
    let mut cols = Vec::new();
    for _ in 0..n {
        let cost = rng.random_range(-4i32..=4) as f64;
        let kind = rng.random_range(0..4);
        let (l, u) = match kind {
            0 => (0.0, rng.random_range(1i32..=10) as f64),
            1 => (0.0, f64::INFINITY),
            2 => (
                rng.random_range(-5i32..=0) as f64,
                rng.random_range(1i32..=8) as f64,
            ),
            _ => (f64::NEG_INFINITY, rng.random_range(0i32..=9) as f64),
        };
        cols.push(p.add_col(l, u, cost));
    }
    for _ in 0..m {
        let mut coeffs = Vec::new();
        for &c in &cols {
            if rng.random_range(0..100) < 60 {
                let v = rng.random_range(-3i32..=3) as f64;
                if v != 0.0 {
                    coeffs.push((c, v));
                }
            }
        }
        let kind = rng.random_range(0..4);
        let b1 = rng.random_range(-10i32..=20) as f64;
        let b2 = b1 + rng.random_range(0i32..=10) as f64;
        let (lb, ub) = match kind {
            0 => (f64::NEG_INFINITY, b2),
            1 => (b1, f64::INFINITY),
            2 => (b1, b2),
            _ => (b1, b1),
        };
        p.add_row(lb, ub, &coeffs);
    }
    p
}

/// A fresh session's solve of `p`, offered `basis` as a snapshot.
fn solve_from(p: &Problem, basis: &Basis) -> Solution {
    let mut session = SolverSession::new(p).expect("session");
    session.warm_start_from(basis.clone());
    session.solve().expect("warm solve")
}

/// Certifies `trials` random problems of up to `nmax` columns and `mmax`
/// rows drawn from `seed`, and returns their statuses.
fn certified_batch(seed: u64, trials: usize, nmax: usize, mmax: usize, label: &str) -> Vec<Status> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..trials)
        .map(|trial| {
            check_certified(
                &random_problem(&mut rng, nmax, mmax),
                &format!("{label} {trial}"),
            )
        })
        .collect()
}

#[test]
fn small_randomized_certified() {
    let seen = certified_batch(0xC0FFEE, 500, 6, 6, "small trial");
    assert_every_status(&seen, "small trials");
}

#[test]
fn medium_randomized_certified() {
    let seen = certified_batch(0xBEEF, 60, 25, 20, "medium trial");
    assert_every_status(&seen, "medium trials");
}

#[test]
fn tall_problems_certified() {
    // Many rows, few columns: stresses phase 1 and basis repair paths.
    let seen = certified_batch(0x5EED, 60, 4, 30, "tall trial");
    assert_every_status(&seen, "tall trials");
}

#[test]
fn barely_infeasible_is_still_proved() {
    // x ∈ [0, 1] falls 5e-5 short of the row: five hundred times the
    // phase-1 threshold (and half of it multiplied by 1e3).
    let mut p = Problem::new(Objective::Maximize);
    let x = p.add_col(0.0, 1.0, 1.0);
    p.add_row(1.0 + 5e-5, f64::INFINITY, &[(x, 1.0)]);
    assert_eq!(check_certified(&p, "barely infeasible"), Status::Infeasible);
}

/// Applies a random small perturbation to the bounds of a few columns and
/// rows of `p` (the warm-start scenario: the same structure, nearby data).
fn perturb(p: &mut Problem, rng: &mut StdRng) {
    let ncols = p.num_cols();
    let nrows = p.num_rows();
    for _ in 0..rng.random_range(1..=4) {
        if ncols > 0 && rng.random_range(0..2) == 0 {
            let c = wavesched_lp::Col::from_index(rng.random_range(0..ncols));
            let (l, u) = p.col_bounds(c);
            let d = rng.random_range(-2i32..=2) as f64;
            // Shift whichever sides are finite; keep l <= u.
            let nl = if l.is_finite() { l - d.abs() } else { l };
            let nu = if u.is_finite() { u + d.max(0.0) } else { u };
            p.set_col_bounds(c, nl, nu);
        } else if nrows > 0 {
            let r = wavesched_lp::Row::from_index(rng.random_range(0..nrows));
            let (l, u) = p.row_bounds(r);
            let d = rng.random_range(-3i32..=3) as f64;
            let (nl, nu) = if l == u {
                // Keep equalities equalities: move the RHS.
                (l + d, u + d)
            } else {
                (
                    if l.is_finite() { l - d.abs() } else { l },
                    if u.is_finite() { u + d.abs() } else { u },
                )
            };
            p.set_row_bounds(r, nl, nu);
        }
    }
}

/// Cold-solves `p`, perturbs it, then checks that a warm-started re-solve
/// from the first basis proves its status and agrees with a cold solve of
/// the perturbed problem.
fn check_warm_agreement(p: &mut Problem, rng: &mut StdRng, label: &str) {
    let first = solve(p).expect("first solve");
    let basis = first.basis.clone().expect("revised solve returns a basis");
    perturb(p, rng);
    let cold = solve(p).expect("cold re-solve");
    let warm = solve_from(p, &basis);
    assert_certified(p, &warm, label);
    assert_eq!(
        warm.status, cold.status,
        "{label}: status mismatch warm={:?} cold={:?}",
        warm.status, cold.status
    );
    if cold.status == Status::Optimal {
        assert!(
            (warm.objective - cold.objective).abs() <= 1e-9 * (1.0 + cold.objective.abs()),
            "{label}: objective mismatch warm={} cold={}",
            warm.objective,
            cold.objective
        );
        assert!(
            p.max_violation(&warm.x) <= 1e-6,
            "{label}: warm solution infeasible by {}",
            p.max_violation(&warm.x)
        );
    }
}

#[test]
fn warm_start_mismatched_basis_falls_back_cold() {
    // A basis from a differently-shaped problem must be rejected, not
    // mis-applied: the solve silently restarts cold and still answers.
    let mut small = Problem::new(Objective::Maximize);
    let x = small.add_col(0.0, 5.0, 1.0);
    small.add_row(f64::NEG_INFINITY, 3.0, &[(x, 1.0)]);
    let donor = solve(&small).unwrap().basis.unwrap();

    let mut big = Problem::new(Objective::Maximize);
    let a = big.add_col(0.0, 10.0, 2.0);
    let b = big.add_col(0.0, 10.0, 1.0);
    big.add_row(f64::NEG_INFINITY, 8.0, &[(a, 1.0), (b, 1.0)]);
    big.add_row(f64::NEG_INFINITY, 6.0, &[(a, 1.0)]);

    let warm = solve_from(&big, &donor);
    let cold = solve(&big).unwrap();
    assert_eq!(warm.status, Status::Optimal);
    assert_certified(&big, &warm, "mismatched basis");
    assert!((warm.objective - cold.objective).abs() <= 1e-9);
    assert_eq!(warm.stats.warm_start_fallbacks, 1);
    assert_eq!(warm.stats.warm_starts_accepted, 0);
}

#[test]
fn warm_start_garbage_basis_still_correct() {
    // Right shape, nonsense content (everything basic / everything at a
    // bound): install + repair must still land on the right answer.
    let mut rng = StdRng::seed_from_u64(0xDEAD);
    for trial in 0..50 {
        let p = random_problem(&mut rng, 8, 8);
        let cold = solve(&p).unwrap();
        for garbage in [
            Basis {
                cols: vec![BasisStatus::Basic; p.num_cols()],
                rows: vec![BasisStatus::Basic; p.num_rows()],
            },
            Basis {
                cols: vec![BasisStatus::AtLower; p.num_cols()],
                rows: vec![BasisStatus::AtUpper; p.num_rows()],
            },
            Basis {
                cols: vec![BasisStatus::Free; p.num_cols()],
                rows: vec![BasisStatus::AtLower; p.num_rows()],
            },
        ] {
            let warm = solve_from(&p, &garbage);
            assert_certified(&p, &warm, &format!("garbage trial {trial}"));
            assert_eq!(
                warm.status, cold.status,
                "garbage trial {trial}: status mismatch"
            );
            if cold.status == Status::Optimal {
                assert!(
                    (warm.objective - cold.objective).abs() <= 1e-9 * (1.0 + cold.objective.abs()),
                    "garbage trial {trial}: {} vs {}",
                    warm.objective,
                    cold.objective
                );
            }
        }
    }
}

#[test]
fn session_tracks_repeated_mutations() {
    // A session re-solving a shrinking knapsack stays correct against
    // from-scratch cold solves at every step.
    let mut p = Problem::new(Objective::Maximize);
    let cols: Vec<_> = (0..6)
        .map(|i| p.add_col(0.0, 4.0, 1.0 + i as f64))
        .collect();
    let coeffs: Vec<_> = cols.iter().map(|&c| (c, 1.0)).collect();
    let budget = p.add_row(f64::NEG_INFINITY, 12.0, &coeffs);

    let mut sess = SolverSession::new(&p).unwrap();
    for cap in (0..=12).rev() {
        p.set_row_bounds(budget, f64::NEG_INFINITY, cap as f64);
        sess.set_row_bounds(budget, f64::NEG_INFINITY, cap as f64);
        let cold = solve(&p).unwrap();
        let warm = sess.solve().unwrap();
        assert_certified(&p, &warm, &format!("cap {cap}"));
        assert_eq!(warm.status, cold.status, "cap {cap}");
        assert!(
            (warm.objective - cold.objective).abs() <= 1e-9 * (1.0 + cold.objective.abs()),
            "cap {cap}: warm {} cold {}",
            warm.objective,
            cold.objective
        );
    }
    let stats = sess.stats();
    assert_eq!(stats.solves, 13);
    assert!(
        stats.warm_starts_accepted >= 12,
        "expected warm re-solves, got {stats:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Property form of the certified check, with shrinking on failure.
    #[test]
    fn proptest_certified(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = random_problem(&mut rng, 8, 8);
        check_certified(&p, &format!("seed {seed}"));
    }

    /// Warm-started re-solves after random bound/RHS perturbations match a
    /// cold solve of the perturbed problem to 1e-9.
    #[test]
    fn proptest_warm_matches_cold(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = random_problem(&mut rng, 8, 8);
        check_warm_agreement(&mut p, &mut rng, &format!("warm seed {seed}"));
    }

    /// Packing LPs — `≤` rows with positive data, `x ≥ 0`, maximized —
    /// whose optimum is priced by nonnegative row duals.
    #[test]
    fn proptest_packing_certified(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = Problem::new(Objective::Maximize);
        let n = rng.random_range(1..6usize);
        let m = rng.random_range(1..6usize);
        let cols: Vec<_> = (0..n)
            .map(|_| p.add_col(0.0, f64::INFINITY, rng.random_range(0i32..5) as f64))
            .collect();
        for _ in 0..m {
            let coeffs: Vec<_> = cols
                .iter()
                .filter_map(|&c| {
                    let v = rng.random_range(0i32..=3) as f64;
                    (v > 0.0).then_some((c, v))
                })
                .collect();
            p.add_row(f64::NEG_INFINITY, rng.random_range(1i32..=15) as f64, &coeffs);
        }
        check_certified(&p, &format!("packing seed {seed}"));
    }
}
