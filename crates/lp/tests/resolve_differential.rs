//! Differential testing for bound-edit re-solves.
//!
//! A `SolverSession` re-solve after in-place bound/RHS edits continues from
//! its carried basis (on the carried factors when they are still valid):
//! a bound-shift phase 1 clears the basic values the edits pushed out of
//! their bounds, phase 2 finishes. The warm-start guarantee must hold: the
//! warm path may change work counters, never answers. These tests pit a
//! session's re-solve against a from-scratch cold solve of the identical
//! mutated problem.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use wavesched_lp::{
    solve, Basis, BasisStatus, Col, NewColumn, Objective, Problem, Row, SimplexConfig,
    SolverSession, Status,
};

/// Random LP from integer-ish data (mirrors `tests/differential.rs`), so
/// borderline feasibility at tolerance level is avoided.
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

/// Applies 1–4 random bound/RHS edits to `p` and mirrors each onto `sess`,
/// keeping the two views of the problem identical. Only bound and RHS edits
/// are made (no cost or structure edits).
fn perturb_both(p: &mut Problem, sess: &mut SolverSession, rng: &mut StdRng) {
    let ncols = p.num_cols();
    let nrows = p.num_rows();
    for _ in 0..rng.random_range(1..=4) {
        if ncols > 0 && rng.random_range(0..2) == 0 {
            let c = Col::from_index(rng.random_range(0..ncols));
            let (l, u) = p.col_bounds(c);
            let d = rng.random_range(-2i32..=2) as f64;
            // Move whichever sides are finite, in either direction, but keep
            // l <= u so the edit stays a valid box.
            let nl = if l.is_finite() { l + d } else { l };
            let nu = if u.is_finite() {
                u.max(nl) + d.abs()
            } else {
                u
            };
            let nl = if nu.is_finite() { nl.min(nu) } else { nl };
            p.set_col_bounds(c, nl, nu);
            sess.set_col_bounds(c, nl, nu);
        } else if nrows > 0 {
            let r = Row::from_index(rng.random_range(0..nrows));
            let (l, u) = p.row_bounds(r);
            let d = rng.random_range(-3i32..=3) as f64;
            let (nl, nu) = if l == u {
                // Keep equalities equalities: shift the RHS.
                (l + d, u + d)
            } else {
                (
                    if l.is_finite() { l + d } else { l },
                    if u.is_finite() {
                        u + d.abs().max(if l.is_finite() { d } else { 0.0 })
                    } else {
                        u
                    },
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
    }
}

/// Crafted instance where a RHS tighten makes the optimal basis primal
/// infeasible: the canonical bound-edit re-solve.
///
///   max x + 2y,  x + y <= 8,  y <= 5,  x,y in [0, 10]
///
/// First optimum: y = 5, x = 3. Tightening the first row to <= 4 drives the
/// basic x to -1 < 0, so the re-solve must pivot it out.
fn tighten_instance() -> (Problem, Row) {
    let mut p = Problem::new(Objective::Maximize);
    let x = p.add_col(0.0, 10.0, 1.0);
    let y = p.add_col(0.0, 10.0, 2.0);
    let r = p.add_row(f64::NEG_INFINITY, 8.0, &[(x, 1.0), (y, 1.0)]);
    p.add_row(f64::NEG_INFINITY, 5.0, &[(y, 1.0)]);
    (p, r)
}

#[test]
fn rhs_tighten_resolves_on_the_carried_factors() {
    let (mut p, r) = tighten_instance();
    let mut sess = SolverSession::new(&p).unwrap();
    let s1 = sess.solve().unwrap();
    assert_eq!(s1.status, Status::Optimal);
    assert!((s1.objective - 13.0).abs() < 1e-9);

    p.set_row_bounds(r, f64::NEG_INFINITY, 4.0);
    sess.set_row_bounds(r, f64::NEG_INFINITY, 4.0);
    let s2 = sess.solve().unwrap();
    let cold = solve(&p).unwrap();

    assert_eq!(s2.status, Status::Optimal);
    assert!(s2.stats.iterations > 0, "{:?}", s2.stats);
    assert_eq!(s2.stats.lu_reuse_hits, 1, "{:?}", s2.stats);
    assert_eq!(s2.stats.warm_starts_accepted, 1);
    assert_eq!(s2.stats.warm_start_fallbacks, 0);
    // Nondegenerate unique optimum: both paths refactorize at their final
    // verification pass, so the extracted answers agree bitwise.
    assert_eq!(s2.objective, cold.objective, "objective drifted");
    assert_eq!(s2.x, cold.x, "primal point drifted");
    assert_eq!(s2.duals, cold.duals, "duals drifted");
}

#[test]
fn cost_and_bound_edits_match_cold() {
    let (mut p, r) = tighten_instance();
    let mut sess = SolverSession::new(&p).unwrap();
    sess.solve().unwrap();

    // A cost change together with a RHS tighten: one warm re-solve.
    let y = Col::from_index(1);
    p.set_cost(y, 3.0);
    sess.set_cost(y, 3.0);
    p.set_row_bounds(r, f64::NEG_INFINITY, 4.0);
    sess.set_row_bounds(r, f64::NEG_INFINITY, 4.0);
    let s2 = sess.solve().unwrap();
    let cold = solve(&p).unwrap();
    assert_eq!(s2.status, Status::Optimal);
    assert_eq!(s2.stats.warm_starts_accepted, 1);
    assert_eq!(s2.objective, cold.objective);
    assert_eq!(s2.x, cold.x);

    // Re-setting the identical coefficient, then tightening the y <= 5 row
    // so the *basic* y leaves its bounds and a pivot is forced (tightening
    // a nonbasic row activity just re-parks it).
    sess.set_cost(y, 3.0);
    p.set_row_bounds(Row::from_index(1), f64::NEG_INFINITY, 2.0);
    sess.set_row_bounds(Row::from_index(1), f64::NEG_INFINITY, 2.0);
    let s3 = sess.solve().unwrap();
    let cold = solve(&p).unwrap();
    assert_eq!(s3.status, Status::Optimal);
    assert_eq!(s3.stats.warm_starts_accepted, 1);
    assert_eq!(s3.objective, cold.objective);
    assert_eq!(s3.x, cold.x);
}

#[test]
fn infeasible_edit_falls_back_to_cold_proof() {
    // After an optimal solve, contradictory row RHS edits make the problem
    // infeasible. The warm bound-shift phase 1 cannot clear the stuck row;
    // that is NOT an infeasibility proof, so the session must fall back and
    // report Infeasible from the cold phase-1 proof.
    let mut p = Problem::new(Objective::Maximize);
    let x = p.add_col(0.0, 100.0, 1.0);
    let r1 = p.add_row(3.0, 3.0, &[(x, 1.0)]);
    let _r2 = p.add_row(f64::NEG_INFINITY, 10.0, &[(x, 1.0)]);
    let mut sess = SolverSession::new(&p).unwrap();
    assert_eq!(sess.solve().unwrap().status, Status::Optimal);

    // x = 3 (r1) contradicts x = 8 (r2 turned equality).
    sess.set_row_bounds(Row::from_index(1), 8.0, 8.0);
    p.set_row_bounds(Row::from_index(1), 8.0, 8.0);
    let warm = sess.solve().unwrap();
    let cold = solve(&p).unwrap();
    assert_eq!(cold.status, Status::Infeasible);
    assert_eq!(
        warm.status,
        Status::Infeasible,
        "warm dead-end must not mask infeasibility (r1 pins x={:?})",
        r1
    );
}

/// Session re-solve vs cold solve of the identical mutated problem; returns
/// how many re-solves kept their warm start.
fn check_session_vs_cold(seed: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = random_problem(&mut rng, 8, 8);
    let mut sess = SolverSession::new(&p).unwrap();
    let first = sess.solve().expect("first session solve");
    let cold_first = solve(&p).expect("first cold solve");
    assert_eq!(first.status, cold_first.status, "seed {seed}: first status");

    let mut warm_accepted = 0;
    for step in 0..3 {
        perturb_both(&mut p, &mut sess, &mut rng);
        let warm = sess.solve().expect("session re-solve");
        let cold = solve(&p).expect("cold re-solve");
        assert_eq!(
            warm.status, cold.status,
            "seed {seed} step {step}: status mismatch warm={:?} cold={:?} (stats {:?})",
            warm.status, cold.status, warm.stats
        );
        if cold.status == Status::Optimal {
            assert!(
                (warm.objective - cold.objective).abs() <= 1e-9 * (1.0 + cold.objective.abs()),
                "seed {seed} step {step}: objective warm={} cold={}",
                warm.objective,
                cold.objective
            );
            assert!(
                p.max_violation(&warm.x) <= 1e-6,
                "seed {seed} step {step}: warm point infeasible by {}",
                p.max_violation(&warm.x)
            );
        }
        warm_accepted += warm.stats.warm_starts_accepted;
    }
    warm_accepted
}

#[test]
fn resolves_match_cold_across_seeds() {
    // Deterministic sweep so we can also assert the warm path actually
    // engages somewhere in the population (proptest cases are independent
    // and can't aggregate).
    let total: u64 = (0..150).map(check_session_vs_cold).sum();
    assert!(
        total > 0,
        "no re-solve stayed warm across 150 seeded perturbation runs"
    );
}

/// The seeded sessions again, under a cadence that refactorizes after
/// every pivot and under kernels that flag every FTRAN result dense: the
/// paths that rewrite `xb` under a warm re-solve change no answer. In this
/// (debug) profile the engine's invariant sweep also holds the eligible set
/// to a from-scratch scan after every pivot.
#[test]
fn resolves_match_cold_under_cadence_refactorizations_and_dense_kernels() {
    let configs = [
        SimplexConfig {
            refactor_interval: 1,
            ..SimplexConfig::default()
        },
        SimplexConfig {
            kernel_density_threshold: 0.0,
            ..SimplexConfig::default()
        },
    ];
    for (k, cfg) in configs.iter().enumerate() {
        let mut warm_accepted = 0;
        let mut in_loop_refactorizations = 0;
        for seed in 0..150 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut p = random_problem(&mut rng, 8, 8);
            let mut sess = SolverSession::with_config(&p, cfg).unwrap();
            sess.solve().expect("first session solve");
            for step in 0..3 {
                perturb_both(&mut p, &mut sess, &mut rng);
                let warm = sess.solve().expect("session re-solve");
                let cold = solve(&p).expect("cold re-solve");
                assert_eq!(warm.status, cold.status, "cfg {k} seed {seed} step {step}");
                if cold.status == Status::Optimal {
                    assert!(
                        (warm.objective - cold.objective).abs()
                            <= 1e-9 * (1.0 + cold.objective.abs()),
                        "cfg {k} seed {seed} step {step}: objective warm={} cold={}",
                        warm.objective,
                        cold.objective
                    );
                }
                assert_eq!(warm.stats.sanitizer_violations, 0, "cfg {k} seed {seed}");
                if warm.stats.warm_starts_accepted > 0 {
                    warm_accepted += 1;
                    in_loop_refactorizations += warm.stats.refactor_interval;
                }
            }
        }
        assert!(warm_accepted > 0, "cfg {k}: no re-solve stayed warm");
        if k == 0 {
            assert!(
                in_loop_refactorizations > 0,
                "no cadence refactorization inside a warm re-solve"
            );
        }
    }
}

#[test]
fn infeasible_with_corrupted_basis_still_proven() {
    // An infeasible instance offered deliberately corrupted warm bases must
    // still report Infeasible via the cold phase-1 proof — fallback may
    // only burn counters, never mask the status.
    let mut rng = StdRng::seed_from_u64(0xD15EA5E);
    for trial in 0..60 {
        let mut p = random_problem(&mut rng, 6, 5);
        // Contradictory pair of equality rows over the first column.
        let c0 = Col::from_index(0);
        p.add_row(1.0, 1.0, &[(c0, 1.0)]);
        p.add_row(4.0, 4.0, &[(c0, 1.0)]);
        let cold = solve(&p).unwrap();
        assert_eq!(cold.status, Status::Infeasible, "trial {trial}");

        let statuses = [
            BasisStatus::Basic,
            BasisStatus::AtLower,
            BasisStatus::AtUpper,
            BasisStatus::Free,
        ];
        let garbage = Basis {
            cols: (0..p.num_cols())
                .map(|_| statuses[rng.random_range(0..4)])
                .collect(),
            rows: (0..p.num_rows())
                .map(|_| statuses[rng.random_range(0..4)])
                .collect(),
        };
        let mut session = SolverSession::new(&p).unwrap();
        session.warm_start_from(garbage);
        let warm = session.solve().unwrap();
        assert_eq!(
            warm.status,
            Status::Infeasible,
            "trial {trial}: corrupted basis masked infeasibility ({:?})",
            warm.stats
        );
    }
}

/// The parking rule `add_columns` applies to the carried basis.
fn parked(nc: &NewColumn) -> BasisStatus {
    if nc.lower.is_finite() && (nc.upper.is_infinite() || nc.lower.abs() <= nc.upper.abs()) {
        BasisStatus::AtLower
    } else if nc.upper.is_finite() {
        BasisStatus::AtUpper
    } else {
        BasisStatus::Free
    }
}

/// The pivot-for-pivot regression for `SolverSession::add_columns`: the
/// spliced session must behave exactly like a fresh session on the merged
/// problem that was handed the identically extended warm basis. Any stale
/// Devex weight or pricing scratch left over from before the splice would
/// bias entering choices and break the stats equality below.
#[test]
fn add_columns_matches_fresh_session_on_merged_problem() {
    let mut rng = StdRng::seed_from_u64(0xADDC01);
    for trial in 0..40 {
        let base = random_problem(&mut rng, 6, 6);
        let nrows = base.num_rows();
        if nrows == 0 {
            continue;
        }
        let mut sess = SolverSession::new(&base).unwrap();
        let first = sess.solve().unwrap();
        if first.status != Status::Optimal {
            continue;
        }
        let basis = first.basis.clone().expect("optimal basis");

        // A couple of new columns with random entries over existing rows.
        let mut news = Vec::new();
        for _ in 0..rng.random_range(1..=3usize) {
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
        // The point of this test is the *pivot-for-pivot* stats equality
        // below, so both sides enter the same way: handing the spliced
        // session its own extended basis back switches its carried factors
        // off, as the fresh session (foreign basis) has none. Answer-level
        // coverage of entries on carried factors lives in
        // `tests/lu_persistence.rs`.
        let mut ext = basis.clone();
        ext.cols.extend(news.iter().map(parked));
        sess.warm_start_from(ext.clone());
        let spliced = sess.solve().unwrap();

        // Merged problem built from scratch in the same column order.
        let mut merged = base.clone();
        for nc in &news {
            let c = merged.add_col(nc.lower, nc.upper, nc.cost);
            for &(r, v) in &nc.entries {
                merged.set_coeff(r, c, v);
            }
        }
        let mut fresh = SolverSession::new(&merged).unwrap();
        fresh.warm_start_from(ext);
        let reference = fresh.solve().unwrap();

        assert_eq!(spliced.status, reference.status, "trial {trial}: status");
        assert_eq!(
            spliced.objective, reference.objective,
            "trial {trial}: objective diverged — stale pricing state after add_columns?"
        );
        assert_eq!(spliced.x, reference.x, "trial {trial}: x diverged");
        assert_eq!(
            spliced.stats, reference.stats,
            "trial {trial}: pivot sequence diverged (work counters differ)"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Property form of the session-vs-cold differential, with shrinking.
    #[test]
    fn proptest_resolve_matches_cold(seed in any::<u64>()) {
        check_session_vs_cold(seed);
    }

    /// Infeasible problems stay proven infeasible through a session's warm
    /// path: solve feasible, then force a contradiction via RHS edits only.
    #[test]
    fn proptest_warm_path_never_masks_infeasibility(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = random_problem(&mut rng, 6, 5);
        let c0 = Col::from_index(0);
        // Two rows on the same column, initially consistent.
        let ra = p.add_row(0.0, 0.0, &[(c0, 1.0)]);
        let rb = p.add_row(f64::NEG_INFINITY, 5.0, &[(c0, 1.0)]);
        let mut sess = SolverSession::new(&p).unwrap();
        let first = sess.solve().unwrap();
        let cold_first = solve(&p).unwrap();
        prop_assert_eq!(first.status, cold_first.status);
        // Pin them apart: x0 = 0 (ra) vs x0 = 3 (rb as equality).
        sess.set_row_bounds(rb, 3.0, 3.0);
        p.set_row_bounds(rb, 3.0, 3.0);
        let warm = sess.solve().unwrap();
        let cold = solve(&p).unwrap();
        prop_assert_eq!(cold.status, Status::Infeasible);
        prop_assert_eq!(warm.status, Status::Infeasible,
            "RHS-edit contradiction masked (ra={:?}, stats {:?})", ra, warm.stats);
    }
}
