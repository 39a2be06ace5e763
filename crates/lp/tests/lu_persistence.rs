//! Differential testing for basis-factorization persistence.
//!
//! A `SolverSession` carries its LU factorization across solves:
//! bound/RHS/cost edits and nonbasic column splices leave it untouched, a
//! splice of uncoupled rows extends it in place (a coupled row drops it),
//! and the solve entry skips `Lu::factor` when the carried factors pass
//! the residual spot-check. The PR 1 warm
//! guarantee must survive all of it: reuse may change work counters,
//! never answers. These tests pit a reusing session against a
//! from-scratch cold solve of the identical mutated problem (status
//! exact, objective to 1e-9), and prove the residual guard rejects a
//! deliberately corrupted factorization instead of propagating it.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use wavesched_lp::{solve, Col, NewColumn, NewRow, Objective, Problem, Row, SolverSession, Status};

/// Random LP from integer-ish data (mirrors `tests/resolve_differential.rs`),
/// so borderline feasibility at tolerance level is avoided.
fn random_problem(rng: &mut StdRng, nmax: usize, mmax: usize) -> Problem {
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
            _ => (b2, b2),
        };
        p.add_row(lb, ub, &coeffs);
    }
    p
}

/// One random in-place edit applied to *both* views of the problem:
/// bound/RHS moves, a cost change, a column splice, or a row splice —
/// every edit class the persistence layer claims to survive.
fn edit_both(p: &mut Problem, sess: &mut SolverSession, rng: &mut StdRng) {
    match rng.random_range(0..5) {
        // Column bound move.
        0 => {
            let ncols = p.num_cols();
            let c = Col::from_index(rng.random_range(0..ncols));
            let (l, u) = p.col_bounds(c);
            let d = rng.random_range(-2i32..=2) as f64;
            let nl = if l.is_finite() { l + d } else { l };
            let nu = if u.is_finite() {
                u.max(nl) + d.abs()
            } else {
                u
            };
            let nl = if nu.is_finite() { nl.min(nu) } else { nl };
            p.set_col_bounds(c, nl, nu);
            sess.set_col_bounds(c, nl, nu);
        }
        // Row bound (RHS) move.
        1 => {
            let nrows = p.num_rows();
            let r = Row::from_index(rng.random_range(0..nrows));
            let (l, u) = p.row_bounds(r);
            let d = rng.random_range(-3i32..=3) as f64;
            let (nl, nu) = if l == u {
                (l + d, u + d)
            } else {
                (
                    if l.is_finite() { l + d } else { l },
                    if u.is_finite() { u + d.abs() } else { u },
                )
            };
            let (nl, nu) = if nl.is_finite() && nu.is_finite() && nl > nu {
                (nu, nl)
            } else {
                (nl, nu)
            };
            p.set_row_bounds(r, nl, nu);
            sess.set_row_bounds(r, nl, nu);
        }
        // Cost change.
        2 => {
            let c = Col::from_index(rng.random_range(0..p.num_cols()));
            let cost = rng.random_range(-4i32..=4) as f64;
            p.set_cost(c, cost);
            sess.set_cost(c, cost);
        }
        // Column splice (delayed column generation step).
        3 => {
            let nrows = p.num_rows();
            let mut news = Vec::new();
            for _ in 0..rng.random_range(1..=2usize) {
                let mut entries = Vec::new();
                for i in 0..nrows {
                    if rng.random_range(0..100) < 60 {
                        let v = rng.random_range(-3i32..=3) as f64;
                        if v != 0.0 {
                            entries.push((Row::from_index(i), v));
                        }
                    }
                }
                news.push(NewColumn {
                    lower: 0.0,
                    upper: rng.random_range(1i32..=8) as f64,
                    cost: rng.random_range(-4i32..=4) as f64,
                    entries,
                });
            }
            sess.add_columns(&news);
            for nc in &news {
                let c = p.add_col(nc.lower, nc.upper, nc.cost);
                for &(r, v) in &nc.entries {
                    p.set_coeff(r, c, v);
                }
            }
        }
        // Row splice (entries over existing columns: the carried factors
        // are dropped and the next solve refactors).
        _ => {
            let ncols = p.num_cols();
            let mut entries = Vec::new();
            for j in 0..ncols {
                if rng.random_range(0..100) < 50 {
                    let v = rng.random_range(-3i32..=3) as f64;
                    if v != 0.0 {
                        entries.push((Col::from_index(j), v));
                    }
                }
            }
            let b = rng.random_range(-5i32..=15) as f64;
            sess.add_rows(&[NewRow {
                lower: f64::NEG_INFINITY,
                upper: b,
                entries: entries.clone(),
            }]);
            let coeffs: Vec<(Col, f64)> = entries;
            p.add_row(f64::NEG_INFINITY, b, &coeffs);
        }
    }
}

/// Reusing session vs cold solve across a random edit sequence. Returns
/// the session's accumulated `lu_reuse_hits` so callers can assert the
/// reuse path actually engaged over a batch of seeds.
fn check_reuse_vs_cold(seed: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = random_problem(&mut rng, 7, 6);
    let mut sess = SolverSession::new(&p).unwrap();
    let first = sess.solve().expect("first session solve");
    let cold_first = solve(&p).expect("first cold solve");
    assert_eq!(first.status, cold_first.status, "seed {seed}: first status");

    for step in 0..6 {
        edit_both(&mut p, &mut sess, &mut rng);
        let warm = sess.solve().expect("session re-solve");
        let cold = solve(&p).expect("cold control solve");
        assert_eq!(
            warm.status, cold.status,
            "seed {seed} step {step}: status diverged (reuse changed an answer)"
        );
        if warm.status == Status::Optimal {
            let scale = 1.0 + cold.objective.abs();
            assert!(
                (warm.objective - cold.objective).abs() <= 1e-9 * scale,
                "seed {seed} step {step}: objective diverged: reuse {} vs cold {}",
                warm.objective,
                cold.objective
            );
        }
    }
    sess.stats().lu_reuse_hits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Property form of the reuse-vs-cold differential over random
    /// bound/RHS/cost edit sequences and column/row splices.
    #[test]
    fn proptest_reuse_matches_cold(seed in any::<u64>()) {
        check_reuse_vs_cold(seed);
    }
}

/// The reuse path must actually engage across a seed batch — a silent
/// "never reuses" regression would make the differential vacuous.
#[test]
fn reuse_engages_across_seed_batch() {
    let mut hits = 0;
    for seed in 0..24u64 {
        hits += check_reuse_vs_cold(seed);
    }
    assert!(
        hits > 0,
        "no solve took the factorization-reuse path across the whole batch"
    );
}

/// Bound-edit chain on one session: every re-solve after the first must
/// enter through the carried factorization (no `Lu::factor` at entry).
#[test]
fn bound_edit_chain_reuses_factorization() {
    // max x + 2y, x + y <= 8, y <= 5 — repeatedly tighten the first row.
    let mut p = Problem::new(Objective::Maximize);
    let x = p.add_col(0.0, 10.0, 1.0);
    let y = p.add_col(0.0, 10.0, 2.0);
    let r = p.add_row(f64::NEG_INFINITY, 8.0, &[(x, 1.0), (y, 1.0)]);
    p.add_row(f64::NEG_INFINITY, 5.0, &[(y, 1.0)]);
    let mut sess = SolverSession::new(&p).unwrap();
    assert_eq!(sess.solve().unwrap().status, Status::Optimal);

    for (k, rhs) in [7.0, 6.0, 5.0, 4.0].into_iter().enumerate() {
        sess.set_row_bounds(r, f64::NEG_INFINITY, rhs);
        p.set_row_bounds(r, f64::NEG_INFINITY, rhs);
        let s = sess.solve().unwrap();
        let cold = solve(&p).unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_eq!(
            s.stats.lu_reuse_hits, 1,
            "step {k}: bound-only re-solve must reuse the carried LU: {:?}",
            s.stats
        );
        assert_eq!(s.objective, cold.objective, "step {k}: objective");
        assert_eq!(s.x, cold.x, "step {k}: primal point");
    }
}

/// Row growth, both ways: a row with coefficients on existing columns
/// drops the carried factors (the next solve installs the extended basis
/// and refactors), a row without any — column generation's capacity row —
/// extends them in place. Either way the re-solve matches cold.
#[test]
fn row_splice_keeps_factors_only_for_uncoupled_rows() {
    for coupled in [true, false] {
        let mut p = Problem::new(Objective::Maximize);
        let x = p.add_col(0.0, 10.0, 1.0);
        let y = p.add_col(0.0, 10.0, 2.0);
        p.add_row(2.0, 8.0, &[(x, 1.0), (y, 1.0)]);
        p.add_row(f64::NEG_INFINITY, 5.0, &[(y, 1.0)]);
        let mut sess = SolverSession::new(&p).unwrap();
        assert_eq!(sess.solve().unwrap().status, Status::Optimal);

        // Coupled: cuts the previous optimum (x=3, y=5). Uncoupled: empty
        // until a column spliced after it fills it.
        let entries = if coupled {
            vec![(x, 1.0), (y, 1.0)]
        } else {
            Vec::new()
        };
        let r = sess.add_rows(&[NewRow {
            lower: f64::NEG_INFINITY,
            upper: 6.0,
            entries: entries.clone(),
        }])[0];
        p.add_row(f64::NEG_INFINITY, 6.0, &entries);
        if !coupled {
            let z = NewColumn {
                lower: 0.0,
                upper: 10.0,
                cost: 3.0,
                entries: vec![(r, 1.0)],
            };
            sess.add_columns(std::slice::from_ref(&z));
            let c = p.add_col(z.lower, z.upper, z.cost);
            p.set_coeff(r, c, 1.0);
        }

        let s = sess.solve().unwrap();
        let cold = solve(&p).unwrap();
        assert_eq!(s.status, Status::Optimal);
        assert_eq!(cold.status, Status::Optimal);
        assert!(
            (s.objective - cold.objective).abs() <= 1e-9 * (1.0 + cold.objective.abs()),
            "coupled={coupled}: objective diverged: spliced {} vs cold {}",
            s.objective,
            cold.objective
        );
        assert_eq!(
            s.stats.lu_reuse_hits,
            u64::from(!coupled),
            "coupled={coupled}: {:?}",
            s.stats
        );
        assert_eq!(s.stats.refactor_reuse_rejected, 0);
        assert_eq!(s.stats.warm_starts_accepted, 1);
    }
}

/// The residual guard: a corrupted factorization must be rejected at the
/// reuse gate (`refactor_reuse_rejected`), the solve must fall back to a
/// fresh factor, and the answer must still match cold.
#[test]
fn corrupted_lu_is_rejected_and_falls_back_cold() {
    let (mut p, r) = {
        let mut p = Problem::new(Objective::Maximize);
        let x = p.add_col(0.0, 10.0, 1.0);
        let y = p.add_col(0.0, 10.0, 2.0);
        let r = p.add_row(f64::NEG_INFINITY, 8.0, &[(x, 1.0), (y, 1.0)]);
        p.add_row(f64::NEG_INFINITY, 5.0, &[(y, 1.0)]);
        (p, r)
    };
    let mut sess = SolverSession::new(&p).unwrap();
    assert_eq!(sess.solve().unwrap().status, Status::Optimal);

    sess.debug_corrupt_factorization();
    sess.set_row_bounds(r, f64::NEG_INFINITY, 4.0);
    p.set_row_bounds(r, f64::NEG_INFINITY, 4.0);
    let s = sess.solve().unwrap();
    let cold = solve(&p).unwrap();

    assert_eq!(
        s.stats.refactor_reuse_rejected, 1,
        "residual guard must reject the corrupted factors: {:?}",
        s.stats
    );
    assert_eq!(
        s.stats.lu_reuse_hits, 0,
        "a rejected reuse must not count as a hit: {:?}",
        s.stats
    );
    assert_eq!(s.status, Status::Optimal);
    assert_eq!(s.objective, cold.objective, "fallback answer drifted");
    assert_eq!(s.x, cold.x, "fallback primal point drifted");

    // The rejection fell back to a fresh factor and re-armed on the new
    // optimum: the next bound-only re-solve reuses again.
    sess.set_row_bounds(r, f64::NEG_INFINITY, 3.0);
    let s2 = sess.solve().unwrap();
    assert_eq!(s2.status, Status::Optimal);
    assert_eq!(
        s2.stats.lu_reuse_hits, 1,
        "reuse must re-arm after a clean fallback solve: {:?}",
        s2.stats
    );
}
