//! Differential testing of the hypersparse FTRAN/BTRAN kernels.
//!
//! The sparse kernels are claimed to be *bit-identical* to the dense
//! triangular solves — the same pivot sequence, the same objective bits —
//! because they compute the same floating-point operations in the same
//! order and merely skip terms that are exactly zero. Setting
//! `kernel_density_threshold` to `0.0` forces every kernel invocation down
//! the dense path, giving an in-tree oracle that shares the model lowering
//! and pivoting logic but none of the pattern-tracking code.
//!
//! A second tier holds every answer to its certificate (`certify`), which
//! shares *nothing* with the solver: it reads the `Problem` and the
//! `Solution`, and proves the returned status from them alone.

mod certified;
mod common;

use certified::{assert_certified, assert_every_status, check_certified};
use common::time_expanded_lp;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use wavesched_lp::{Objective, Problem, SimplexConfig, Solution, SolverSession, Status};

/// A random LP with controlled column density so the sparse kernels see a
/// realistic mix of hypersparse and near-dense FTRAN/BTRAN results.
fn random_sparse_problem(rng: &mut StdRng, nmax: usize, mmax: usize) -> Problem {
    let maximize = rng.random_range(0..2) == 0;
    let mut p = Problem::new(if maximize {
        Objective::Maximize
    } else {
        Objective::Minimize
    });
    let n = rng.random_range(1..=nmax);
    let m = rng.random_range(1..=mmax);
    let mut cols = Vec::new();
    for _ in 0..n {
        let cost = rng.random_range(-4i32..=4) as f64;
        let (l, u) = match rng.random_range(0..4) {
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
    // Per-row fill probability varies per problem, so some instances are
    // hypersparse (sparse path dominates) and some are dense (fallback
    // path dominates) — both must agree with the oracle.
    let fill = rng.random_range(10..70);
    for _ in 0..m {
        let mut coeffs = Vec::new();
        for &c in &cols {
            if rng.random_range(0..100) < fill {
                let v = rng.random_range(-3i32..=3) as f64;
                if v != 0.0 {
                    coeffs.push((c, v));
                }
            }
        }
        let b1 = rng.random_range(-10i32..=20) as f64;
        let b2 = b1 + rng.random_range(0i32..=10) as f64;
        let (lb, ub) = match rng.random_range(0..4) {
            0 => (f64::NEG_INFINITY, b2),
            1 => (b1, f64::INFINITY),
            2 => (b1, b2),
            _ => (b1, b1),
        };
        p.add_row(lb, ub, &coeffs);
    }
    p
}

fn sparse_cfg() -> SimplexConfig {
    SimplexConfig::default()
}

fn dense_oracle_cfg() -> SimplexConfig {
    SimplexConfig {
        kernel_density_threshold: 0.0,
        ..SimplexConfig::default()
    }
}

/// A cold solve of `p` under `cfg`.
fn solve_under(p: &Problem, cfg: &SimplexConfig) -> Solution {
    let mut session = SolverSession::with_config(p, cfg).expect("session");
    session.solve().expect("solve")
}

/// The core claim: sparse and forced-dense kernels take the *same* pivot
/// path and land on the *same bits* — each an answer that proves its
/// status.
fn check_bit_identity(p: &Problem, label: &str) {
    let s = solve_under(p, &sparse_cfg());
    let d = solve_under(p, &dense_oracle_cfg());
    assert_certified(p, &s, label);
    assert_certified(p, &d, label);
    assert_eq!(s.status, d.status, "{label}: status diverged");
    assert_eq!(
        s.stats.iterations, d.stats.iterations,
        "{label}: iteration counts diverged (pivot paths differ)"
    );
    assert_eq!(
        s.stats.phase1_iterations, d.stats.phase1_iterations,
        "{label}: phase-1 iteration counts diverged"
    );
    assert_eq!(
        s.stats.bound_flips, d.stats.bound_flips,
        "{label}: bound-flip counts diverged"
    );
    assert_eq!(
        s.objective.to_bits(),
        d.objective.to_bits(),
        "{label}: objective bits diverged ({} vs {})",
        s.objective,
        d.objective
    );
    for (i, (a, b)) in s.x.iter().zip(&d.x).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{label}: x[{i}] bits diverged ({a} vs {b})"
        );
    }
    // The dense-mode oracle cannot track patterns: any FTRAN with a
    // nonzero result must have been charged as a fallback.
    if d.stats.ftran_nnz > 0 {
        assert!(
            d.stats.ftran_dense_fallbacks > 0,
            "{label}: forced-dense mode produced nonzeros without falling back"
        );
    }
}

#[test]
fn sparse_kernels_bit_identical_small() {
    let mut rng = StdRng::seed_from_u64(0x51AB_0001);
    for trial in 0..300 {
        let p = random_sparse_problem(&mut rng, 8, 8);
        check_bit_identity(&p, &format!("small trial {trial}"));
    }
}

#[test]
fn sparse_kernels_bit_identical_medium() {
    let mut rng = StdRng::seed_from_u64(0x51AB_0002);
    for trial in 0..40 {
        let p = random_sparse_problem(&mut rng, 30, 25);
        check_bit_identity(&p, &format!("medium trial {trial}"));
    }
}

#[test]
fn sparse_kernels_prove_every_status() {
    let mut rng = StdRng::seed_from_u64(0x51AB_0003);
    let seen: Vec<Status> = (0..150)
        .map(|trial| {
            let p = random_sparse_problem(&mut rng, 10, 10);
            check_certified(&p, &format!("certified trial {trial}"))
        })
        .collect();
    assert_every_status(&seen, "certified trials");
}

/// A fully dense LP (every column in every row) drives the kernel results
/// over the density threshold, so normal (sparse) mode hands its consumers
/// results flagged dense — and the answer must still match everything else
/// and prove its optimality.
#[test]
fn dense_degenerate_problem_exercises_fallback() {
    let mut rng = StdRng::seed_from_u64(0x51AB_0004);
    let mut p = Problem::new(Objective::Minimize);
    let n = 24;
    let m = 20;
    let cols: Vec<_> = (0..n)
        .map(|_| p.add_col(0.0, f64::INFINITY, rng.random_range(1i32..=9) as f64))
        .collect();
    // Dense *equality* rows: the optimal basis must carry ~m structural
    // (dense) columns, so the LU factors — and with them the BTRAN results
    // — are dense too. The RHS is A·1, so x = 1 is feasible.
    for _ in 0..m {
        let coeffs: Vec<_> = cols
            .iter()
            .map(|&c| (c, rng.random_range(1i32..=5) as f64))
            .collect();
        let b: f64 = coeffs.iter().map(|&(_, v)| v).sum();
        p.add_row(b, b, &coeffs);
    }

    let s = solve_under(&p, &sparse_cfg());
    assert_eq!(s.status, Status::Optimal);
    assert!(
        s.stats.ftran_dense_fallbacks > 0,
        "fully dense problem never hit the FTRAN dense fallback: {:?}",
        s.stats
    );
    assert!(
        s.stats.btran_dense_fallbacks > 0,
        "fully dense problem never hit the BTRAN dense fallback: {:?}",
        s.stats
    );
    check_bit_identity(&p, "dense degenerate");
}

/// The production shape (time-expanded, unit coefficients, degenerate) on
/// a basis of three bitmap words: the sweeps, not the dense kernels, must
/// have carried the solve that is then held to the forced-dense kernels
/// and to its certificate.
#[test]
fn time_expanded_lp_runs_the_sweeps_across_bitmap_words() {
    let p = time_expanded_lp(0x51AB_0005);
    assert!(p.num_rows() >= 150, "{} rows", p.num_rows());
    let s = solve_under(&p, &sparse_cfg());
    assert_eq!(s.status, Status::Optimal);
    assert!(s.stats.degenerate_pivots > 0, "{:?}", s.stats);
    assert!(
        2 * s.stats.ftran_dense_fallbacks < s.stats.ftran_ops
            && 2 * s.stats.btran_dense_fallbacks < s.stats.btran_ops,
        "most kernel results were flagged dense: {:?}",
        s.stats
    );
    check_bit_identity(&p, "time-expanded");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The production shape over arbitrary seeds, through both tiers.
    #[test]
    fn proptest_time_expanded_kernels(seed in any::<u64>()) {
        let p = time_expanded_lp(seed);
        check_bit_identity(&p, &format!("time-expanded seed {seed}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Property form with shrinking: sparse and forced-dense kernels are
    /// bit-identical on arbitrary seeds.
    #[test]
    fn proptest_kernels_bit_identical(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = random_sparse_problem(&mut rng, 12, 12);
        check_bit_identity(&p, &format!("seed {seed}"));
    }

    /// Property form of the certified tier.
    #[test]
    fn proptest_kernels_certified(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let p = random_sparse_problem(&mut rng, 9, 9);
        check_certified(&p, &format!("certified seed {seed}"));
    }
}
