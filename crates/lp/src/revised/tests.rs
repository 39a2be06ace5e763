use super::*;
use crate::model::{Col, Objective, Problem, Row};
use crate::solution::Status;
use crate::sparse::WorkVec;
use crate::stdform::ColKind;
use crate::{FEAS_TOL, PIVOT_TOL};

fn assert_near(a: f64, b: f64) {
    assert!(
        (a - b).abs() < 1e-6,
        "expected {b}, got {a} (diff {})",
        (a - b).abs()
    );
}

#[test]
fn ratio_clamp_zero_sign_is_deterministic() {
    // `f64::max(-0.0, 0.0)` may return either zero depending on how the
    // build lowers it; the ratio-test clamp must always produce `+0.0`
    // or `total_cmp`-ordered candidate sorts diverge across build
    // profiles (debug vs release picking different pivots).
    assert_eq!(pos_or_zero(-0.0).to_bits(), 0.0f64.to_bits());
    assert_eq!(pos_or_zero(0.0).to_bits(), 0.0f64.to_bits());
    assert_eq!(pos_or_zero(f64::NAN).to_bits(), 0.0f64.to_bits());
    assert_eq!(pos_or_zero(-1.5).to_bits(), 0.0f64.to_bits());
    assert_eq!(pos_or_zero(2.5), 2.5);
}

#[test]
fn simple_max() {
    // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6
    let mut p = Problem::new(Objective::Maximize);
    let x = p.add_col(0.0, f64::INFINITY, 3.0);
    let y = p.add_col(0.0, f64::INFINITY, 2.0);
    p.add_row(f64::NEG_INFINITY, 4.0, &[(x, 1.0), (y, 1.0)]);
    p.add_row(f64::NEG_INFINITY, 6.0, &[(x, 1.0), (y, 3.0)]);
    let s = solve(&p).unwrap();
    assert_eq!(s.status, Status::Optimal);
    assert_near(s.objective, 12.0);
    assert_near(s.x[0], 4.0);
    assert_near(s.x[1], 0.0);
}

#[test]
fn equality_rows_need_phase1() {
    // min x + y s.t. x + y = 3, x - y = 1 => x=2, y=1, obj 3
    let mut p = Problem::new(Objective::Minimize);
    let x = p.add_col(0.0, f64::INFINITY, 1.0);
    let y = p.add_col(0.0, f64::INFINITY, 1.0);
    p.add_row(3.0, 3.0, &[(x, 1.0), (y, 1.0)]);
    p.add_row(1.0, 1.0, &[(x, 1.0), (y, -1.0)]);
    let s = solve(&p).unwrap();
    assert_eq!(s.status, Status::Optimal);
    assert_near(s.objective, 3.0);
    assert_near(s.x[0], 2.0);
    assert_near(s.x[1], 1.0);
}

#[test]
fn infeasible_detected() {
    let mut p = Problem::new(Objective::Minimize);
    let x = p.add_col(0.0, 1.0, 1.0);
    p.add_row(5.0, f64::INFINITY, &[(x, 1.0)]);
    let s = solve(&p).unwrap();
    assert_eq!(s.status, Status::Infeasible);
}

#[test]
fn unbounded_detected() {
    let mut p = Problem::new(Objective::Maximize);
    let x = p.add_col(0.0, f64::INFINITY, 1.0);
    let y = p.add_col(0.0, f64::INFINITY, 0.0);
    p.add_row(0.0, f64::INFINITY, &[(x, 1.0), (y, -1.0)]);
    let s = solve(&p).unwrap();
    assert_eq!(s.status, Status::Unbounded);
}

#[test]
fn bounded_variables_and_ranges() {
    // max x + y, 1 <= x <= 2, 0 <= y <= 2, 2 <= x + y <= 3
    let mut p = Problem::new(Objective::Maximize);
    let x = p.add_col(1.0, 2.0, 1.0);
    let y = p.add_col(0.0, 2.0, 1.0);
    p.add_row(2.0, 3.0, &[(x, 1.0), (y, 1.0)]);
    let s = solve(&p).unwrap();
    assert_eq!(s.status, Status::Optimal);
    assert_near(s.objective, 3.0);
}

#[test]
fn free_variable() {
    // min x, x free, x >= -7 via row
    let mut p = Problem::new(Objective::Minimize);
    let x = p.add_col(f64::NEG_INFINITY, f64::INFINITY, 1.0);
    p.add_row(-7.0, f64::INFINITY, &[(x, 1.0)]);
    let s = solve(&p).unwrap();
    assert_eq!(s.status, Status::Optimal);
    assert_near(s.objective, -7.0);
    assert_near(s.x[0], -7.0);
}

#[test]
fn negative_bounds() {
    // min 2a + b with a in [-3,-1], b in [-5, 0], a + b >= -4
    let mut p = Problem::new(Objective::Minimize);
    let a = p.add_col(-3.0, -1.0, 2.0);
    let b = p.add_col(-5.0, 0.0, 1.0);
    p.add_row(-4.0, f64::INFINITY, &[(a, 1.0), (b, 1.0)]);
    let s = solve(&p).unwrap();
    assert_eq!(s.status, Status::Optimal);
    // a = -3 gives cost -6, then b >= -1 => b = -1, total -7.
    assert_near(s.objective, -7.0);
    assert_near(s.x[0], -3.0);
    assert_near(s.x[1], -1.0);
}

#[test]
fn degenerate_problem_terminates() {
    // Highly degenerate: many redundant rows through the same vertex.
    let mut p = Problem::new(Objective::Maximize);
    let x = p.add_col(0.0, f64::INFINITY, 1.0);
    let y = p.add_col(0.0, f64::INFINITY, 1.0);
    for k in 1..=8 {
        p.add_row(f64::NEG_INFINITY, k as f64, &[(x, k as f64), (y, k as f64)]);
    }
    let s = solve(&p).unwrap();
    assert_eq!(s.status, Status::Optimal);
    assert_near(s.objective, 1.0);
}

#[test]
fn objective_offset_respected() {
    let mut p = Problem::new(Objective::Minimize);
    let x = p.add_col(1.0, 5.0, 2.0);
    let _ = x;
    p.add_objective_offset(100.0);
    let s = solve(&p).unwrap();
    assert_near(s.objective, 102.0);
}

#[test]
fn fixed_variables() {
    let mut p = Problem::new(Objective::Maximize);
    let x = p.add_col(3.0, 3.0, 1.0);
    let y = p.add_col(0.0, 10.0, 1.0);
    p.add_row(f64::NEG_INFINITY, 5.0, &[(x, 1.0), (y, 1.0)]);
    let s = solve(&p).unwrap();
    assert_eq!(s.status, Status::Optimal);
    assert_near(s.x[0], 3.0);
    assert_near(s.x[1], 2.0);
}

#[test]
fn empty_problem() {
    let p = Problem::new(Objective::Minimize);
    let s = solve(&p).unwrap();
    assert_eq!(s.status, Status::Optimal);
    assert_near(s.objective, 0.0);
}

#[test]
fn transportation_problem() {
    // 2 supplies (10, 20), 3 demands (5, 10, 15), unit costs.
    let costs = [[2.0, 4.0, 5.0], [3.0, 1.0, 7.0]];
    let supply = [10.0, 20.0];
    let demand = [5.0, 10.0, 15.0];
    let mut p = Problem::new(Objective::Minimize);
    let mut xs = [[None; 3]; 2];
    for i in 0..2 {
        for j in 0..3 {
            xs[i][j] = Some(p.add_col(0.0, f64::INFINITY, costs[i][j]));
        }
    }
    for i in 0..2 {
        let coeffs: Vec<_> = (0..3).map(|j| (xs[i][j].unwrap(), 1.0)).collect();
        p.add_row(f64::NEG_INFINITY, supply[i], &coeffs);
    }
    for j in 0..3 {
        let coeffs: Vec<_> = (0..2).map(|i| (xs[i][j].unwrap(), 1.0)).collect();
        p.add_row(demand[j], demand[j], &coeffs);
    }
    let s = solve(&p).unwrap();
    assert_eq!(s.status, Status::Optimal);
    // Optimal: x02=10 (50), x10=5 (15), x11=10 (10), x12=5 (35) => 110.
    assert_near(s.objective, 110.0);
}

#[test]
fn cloned_sessions_answer_identically_and_independently() {
    // A template session solved once; clones re-solve tightened
    // variants. Every clone starts from the same basis, so the same
    // tightening must produce bit-identical objectives and stats no
    // matter how many clones ran before it.
    let mut p = Problem::new(Objective::Maximize);
    let x = p.add_col(0.0, 4.0, 1.0);
    let y = p.add_col(0.0, 10.0, 2.0);
    p.add_row(f64::NEG_INFINITY, 12.0, &[(x, 1.0), (y, 2.0)]);
    let mut template = SolverSession::new(&p).unwrap();
    let base = template.solve().unwrap();
    assert_eq!(base.status, Status::Optimal);

    let probe = |ub: f64| {
        let mut s = template.clone();
        s.set_col_bounds(y, 0.0, ub);
        let sol = s.solve().unwrap();
        (sol.objective.to_bits(), sol.stats)
    };
    let (obj_a, stats_a) = probe(3.0);
    let (obj_b, _) = probe(1.0);
    let (obj_a2, stats_a2) = probe(3.0); // same probe after another ran
    assert_eq!(obj_a, obj_a2, "clone answers must not depend on order");
    assert_eq!(stats_a, stats_a2);
    assert_ne!(obj_a, obj_b);
    // The template itself was never advanced by its clones.
    let again = template.solve().unwrap();
    assert_eq!(again.objective.to_bits(), base.objective.to_bits());
}

#[test]
fn add_columns_matches_monolithic() {
    // Restricted master: max 3x s.t. x <= 4, x + 3y <= 6. Solve, then
    // append y (cost 2) and re-solve; must match the monolithic build.
    let mut p = Problem::new(Objective::Maximize);
    let x = p.add_col(0.0, f64::INFINITY, 3.0);
    let r0 = p.add_row(f64::NEG_INFINITY, 4.0, &[(x, 1.0)]);
    let r1 = p.add_row(f64::NEG_INFINITY, 6.0, &[(x, 1.0)]);
    let mut sess = SolverSession::new(&p).unwrap();
    let s1 = sess.solve().unwrap();
    assert_eq!(s1.status, Status::Optimal);
    assert_near(s1.objective, 12.0);

    let cols = sess.add_columns(&[NewColumn {
        lower: 0.0,
        upper: f64::INFINITY,
        cost: 2.0,
        entries: vec![(r1, 3.0), (r0, 0.0)],
    }]);
    assert_eq!(cols.len(), 1);
    assert_eq!(sess.num_cols(), 2);
    let s2 = sess.solve().unwrap();
    assert_eq!(s2.status, Status::Optimal);
    // Monolithic optimum of max 3x + 2y, x <= 4, x + 3y <= 6:
    // x = 4, y = 2/3 => 12 + 4/3.
    assert_near(s2.objective, 12.0 + 4.0 / 3.0);
    assert_near(s2.x[1], 2.0 / 3.0);
    // The second solve went through the warm path (the appended column
    // entered nonbasic at its lower bound).
    assert_eq!(s2.stats.warm_starts_accepted, 1);
    assert_eq!(s2.stats.warm_start_fallbacks, 0);
}

#[test]
fn add_rows_matches_monolithic() {
    // max x + y, x,y in [0,10], x + y <= 12; then append x - y <= 2.
    let mut p = Problem::new(Objective::Maximize);
    let x = p.add_col(0.0, 10.0, 2.0);
    let y = p.add_col(0.0, 10.0, 1.0);
    p.add_row(f64::NEG_INFINITY, 12.0, &[(x, 1.0), (y, 1.0)]);
    let mut sess = SolverSession::new(&p).unwrap();
    let s1 = sess.solve().unwrap();
    assert_near(s1.objective, 2.0 * 10.0 + 2.0);

    let rows = sess.add_rows(&[NewRow {
        lower: f64::NEG_INFINITY,
        upper: 2.0,
        entries: vec![(x, 1.0), (y, -1.0)],
    }]);
    assert_eq!(rows.len(), 1);
    assert_eq!(sess.num_rows(), 2);
    let s2 = sess.solve().unwrap();
    assert_eq!(s2.status, Status::Optimal);
    // Monolithic: x - y <= 2 and x + y <= 12 => x = 7, y = 5 => 19.
    assert_near(s2.objective, 19.0);
    let mut q = Problem::new(Objective::Maximize);
    let qx = q.add_col(0.0, 10.0, 2.0);
    let qy = q.add_col(0.0, 10.0, 1.0);
    q.add_row(f64::NEG_INFINITY, 12.0, &[(qx, 1.0), (qy, 1.0)]);
    q.add_row(f64::NEG_INFINITY, 2.0, &[(qx, 1.0), (qy, -1.0)]);
    let mono = solve(&q).unwrap();
    assert_eq!(mono.objective.to_bits(), s2.objective.to_bits());
}

#[test]
fn colgen_loop_reaches_full_optimum() {
    // A tiny delayed-column-generation loop: three "paths" of costs
    // 5, 4, 3 share one capacity row of 6; start with only the worst
    // one and add the rest one batch at a time, re-solving warm.
    let mut p = Problem::new(Objective::Maximize);
    let _x0 = p.add_col(0.0, f64::INFINITY, 3.0);
    let cap = p.add_row(f64::NEG_INFINITY, 6.0, &[(Col::from_index(0), 1.0)]);
    let mut sess = SolverSession::new(&p).unwrap();
    let mut sol = sess.solve().unwrap();
    assert_near(sol.objective, 18.0);
    for cost in [4.0, 5.0] {
        sess.add_columns(&[NewColumn {
            lower: 0.0,
            upper: f64::INFINITY,
            cost,
            entries: vec![(cap, 1.0)],
        }]);
        sol = sess.solve().unwrap();
        assert_eq!(sol.status, Status::Optimal);
    }
    assert_near(sol.objective, 30.0); // all 6 units on the cost-5 column
    assert_eq!(sess.stats().warm_starts_accepted, 2);
    assert_eq!(sess.stats().warm_start_fallbacks, 0);
}

#[test]
fn add_columns_then_stale_external_basis_falls_back_cold() {
    let mut p = Problem::new(Objective::Maximize);
    let x = p.add_col(0.0, 4.0, 1.0);
    let r = p.add_row(f64::NEG_INFINITY, 3.0, &[(x, 1.0)]);
    let mut sess = SolverSession::new(&p).unwrap();
    let s1 = sess.solve().unwrap();
    let stale = s1.basis.clone().unwrap();
    sess.add_columns(&[NewColumn {
        lower: 0.0,
        upper: 4.0,
        cost: 2.0,
        entries: vec![(r, 1.0)],
    }]);
    // Supplying the pre-append basis (wrong shape) must fall back to a
    // cold solve with the answer unchanged — the PR-1 invariant.
    sess.warm_start_from(stale);
    let s2 = sess.solve().unwrap();
    assert_eq!(s2.status, Status::Optimal);
    assert_near(s2.objective, 6.0);
    assert_eq!(s2.stats.warm_start_fallbacks, 1);
    assert_eq!(s2.stats.warm_starts_accepted, 0);
}

#[test]
fn add_rows_then_columns_interleaved() {
    // Grow both dimensions between solves and check against the
    // monolithic build, including duals for the appended row.
    let mut p = Problem::new(Objective::Minimize);
    let x = p.add_col(0.0, f64::INFINITY, 2.0);
    p.add_row(3.0, f64::INFINITY, &[(x, 1.0)]);
    let mut sess = SolverSession::new(&p).unwrap();
    let s1 = sess.solve().unwrap();
    assert_near(s1.objective, 6.0);
    // New row only over x, then a cheaper column covering both rows.
    let r2 = sess.add_rows(&[NewRow {
        lower: 5.0,
        upper: f64::INFINITY,
        entries: vec![(x, 1.0)],
    }]);
    let s2 = sess.solve().unwrap();
    assert_near(s2.objective, 10.0);
    sess.add_columns(&[NewColumn {
        lower: 0.0,
        upper: f64::INFINITY,
        cost: 1.0,
        entries: vec![(Row::from_index(0), 1.0), (r2[0], 1.0)],
    }]);
    let s3 = sess.solve().unwrap();
    assert_eq!(s3.status, Status::Optimal);
    assert_near(s3.objective, 5.0); // all demand met by the new column
    let mut q = Problem::new(Objective::Minimize);
    let qx = q.add_col(0.0, f64::INFINITY, 2.0);
    let qy = q.add_col(0.0, f64::INFINITY, 1.0);
    q.add_row(3.0, f64::INFINITY, &[(qx, 1.0), (qy, 1.0)]);
    q.add_row(5.0, f64::INFINITY, &[(qx, 1.0), (qy, 1.0)]);
    let mono = solve(&q).unwrap();
    assert_near(s3.objective, mono.objective);
}

#[test]
fn add_columns_on_unsolved_session() {
    // Appending before any solve must behave like building monolithic.
    let mut p = Problem::new(Objective::Maximize);
    let x = p.add_col(0.0, 2.0, 1.0);
    let r = p.add_row(f64::NEG_INFINITY, 5.0, &[(x, 1.0)]);
    let mut sess = SolverSession::new(&p).unwrap();
    sess.add_columns(&[NewColumn {
        lower: 0.0,
        upper: 2.0,
        cost: 3.0,
        entries: vec![(r, 1.0)],
    }]);
    let s = sess.solve().unwrap();
    assert_eq!(s.status, Status::Optimal);
    assert_near(s.objective, 2.0 * 3.0 + 2.0 * 1.0); // both at their bounds
}

#[test]
fn duals_satisfy_weak_pricing() {
    let mut p = Problem::new(Objective::Maximize);
    let x = p.add_col(0.0, f64::INFINITY, 3.0);
    let y = p.add_col(0.0, f64::INFINITY, 5.0);
    p.add_row(f64::NEG_INFINITY, 4.0, &[(x, 1.0)]);
    p.add_row(f64::NEG_INFINITY, 12.0, &[(y, 2.0)]);
    p.add_row(f64::NEG_INFINITY, 18.0, &[(x, 3.0), (y, 2.0)]);
    let s = solve(&p).unwrap();
    assert_eq!(s.status, Status::Optimal);
    assert_near(s.objective, 36.0);
    // Strong duality: b'y == objective for this classic example.
    let dual_obj = 4.0 * s.duals[0] + 12.0 * s.duals[1] + 18.0 * s.duals[2];
    assert_near(dual_obj, 36.0);
}

#[test]
fn pivot_scratch_fits_after_growth() {
    // Every per-pivot list is sized to the structure — each column once,
    // each row once, never an entry per nonzero; a master that grows must
    // re-fit all of them before its next pivot, or that pivot allocates
    // inside the hot loop. Growth only marks them stale; the next solve's
    // entry refits them.
    let mut p = Problem::new(Objective::Maximize);
    let x = p.add_col(0.0, 1.0, 1.0);
    let rows: Vec<Row> = (0..4)
        .map(|_| p.add_row(f64::NEG_INFINITY, 9.0, &[(x, 1.0)]))
        .collect();
    let mut e = engine::Engine::new(standardize(&p).unwrap(), SimplexConfig::default());
    let cols = vec![
        NewColumn {
            lower: 0.0,
            upper: 1.0,
            cost: 1.0,
            entries: rows.iter().map(|&r| (r, 1.0)).collect(),
        };
        40
    ];
    e.append_columns(&cols);
    assert!(e.structure_stale);
    assert_eq!(e.solve(None).unwrap().status, Status::Optimal);
    assert!(!e.structure_stale);
    let (nnz, ncols, m) = (e.std.a.nnz(), e.std.ncols(), e.std.nrows);
    assert!(
        nnz > 3 * ncols,
        "the old nnz-sized reserve would pass unnoticed"
    );
    for list in [&e.touched, &e.elig] {
        assert!((ncols..nnz).contains(&list.capacity()));
    }
    assert!((ncols..nnz).contains(&e.row_alpha.capacity()));
    assert!(e.ratio_cand.capacity() >= m);
    assert_eq!(e.elig_slot.len(), ncols);
    assert_eq!(e.col_words.len(), ncols.div_ceil(64));
}

#[test]
fn sanitizer_holds_the_eligible_set_to_the_mathematics() {
    let mut p = Problem::new(Objective::Maximize);
    let x: Vec<Col> = (0..6)
        .map(|j| p.add_col(0.0, 4.0, 1.0 + j as f64))
        .collect();
    for i in 0..3 {
        let row: Vec<(Col, f64)> = x.iter().map(|&c| (c, 1.0 + (i % 2) as f64)).collect();
        p.add_row(f64::NEG_INFINITY, 5.0 + i as f64, &row);
    }
    let mut e = engine::Engine::new(standardize(&p).unwrap(), SimplexConfig::default());
    assert_eq!(e.solve(None).unwrap().status, Status::Optimal);
    e.stats.sanitizer_violations = 0;
    e.sanitize_sweep();
    assert_eq!(e.stats.sanitizer_violations, 0, "a healthy endpoint");
    // A reduced cost written behind the engine's back: the column is
    // eligible by the mathematics and missing from the set.
    let j = (0..e.std.ncols())
        .find(|&j| e.state[j] == engine::VarState::AtLower)
        .unwrap();
    e.d[j] = -1.0;
    e.sanitize_sweep();
    assert_eq!(e.stats.sanitizer_violations, 1);
}

impl engine::Engine {
    /// The ratio test as three closure passes over `w` — the version the
    /// one-gather [`Self::ratio_test`] replaced, kept verbatim as its
    /// oracle.
    fn ratio_test_three_pass(&self, q: usize, dir: f64, w: &WorkVec) -> engine::RatioOutcome {
        use engine::RatioOutcome;
        let ptol = PIVOT_TOL;
        let ftol = FEAS_TOL;
        // Step limit from the entering variable's own bound range.
        let own_range = match (self.std.lower[q].is_finite(), self.std.upper[q].is_finite()) {
            (true, true) => self.std.upper[q] - self.std.lower[q],
            _ => f64::INFINITY,
        };

        // The step at which the basic variable at `pos` reaches the bound
        // it moves toward, that bound widened by `slack`; `None` for an
        // entry below the pivot tolerance or an open side.
        let reach = |pos: usize, wp: f64, slack: f64| -> Option<f64> {
            if wp.abs() <= ptol {
                return None;
            }
            let rate = -wp * dir; // d(xb[pos]) / dt
            let j = self.basis[pos];
            let limit = if rate > 0.0 {
                let ub = self.std.upper[j];
                if !ub.is_finite() {
                    return None;
                }
                (ub - self.xb[pos] + slack) / rate
            } else {
                let lb = self.std.lower[j];
                if !lb.is_finite() {
                    return None;
                }
                (self.xb[pos] - lb + slack) / -rate
            };
            Some(pos_or_zero(limit))
        };

        // Pass 1: minimum blocking step with tolerance-relaxed bounds.
        let mut t_relaxed = own_range;
        kernels::for_each_entry(w, |pos, wp| {
            if let Some(limit) = reach(pos, wp, ftol) {
                t_relaxed = t_relaxed.min(limit);
            }
        });
        if t_relaxed.is_infinite() {
            return RatioOutcome::Unbounded;
        }

        // Pass 2: largest pivot magnitude among the rows blocking at or
        // before `t_relaxed`.
        const RATIO_TIE_BAND: f64 = 1e-9;
        let mut max_mag = 0.0f64;
        let blocking = |pos, wp| reach(pos, wp, 0.0).filter(|&limit| limit <= t_relaxed);
        let mut any_blocking = false;
        kernels::for_each_entry(w, |pos, wp| {
            if blocking(pos, wp).is_some() {
                any_blocking = true;
                max_mag = max_mag.max(wp.abs());
            }
        });
        if !any_blocking {
            return RatioOutcome::BoundFlip(own_range);
        }
        // Pass 3: inside the tie band, artificials first, then the lowest
        // basis position.
        let band_floor = max_mag * (1.0 - RATIO_TIE_BAND);
        let mut best: Option<(usize, f64, bool)> = None; // pos, step, is_artificial
        kernels::for_each_entry(w, |pos, wp| {
            let Some(limit) = blocking(pos, wp) else {
                return;
            };
            if wp.abs() < band_floor {
                return;
            }
            let art = self.std.kind[self.basis[pos]] == ColKind::Artificial;
            let better = match best {
                None => true,
                Some((_, _, bart)) => art && !bart,
            };
            if better {
                best = Some((pos, limit, art));
            }
        });
        match best {
            None => RatioOutcome::BoundFlip(own_range),
            Some((pos, step, _)) => RatioOutcome::Pivot { pos, step },
        }
    }
}

proptest::proptest! {
    /// One gather against three passes on random `(w, xb, bounds, dir)`:
    /// values from a small grid so steps and magnitudes tie (exactly and
    /// inside the band), basic artificials, open sides, entries below the
    /// pivot tolerance, a tracked and a dense `w`, and an entering column
    /// whose own range is zero, finite or infinite.
    #[test]
    fn ratio_test_matches_three_pass(seed in proptest::prelude::any::<u64>()) {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let m = rng.random_range(1..24usize);
        let mut p = Problem::new(Objective::Minimize);
        let q = p.add_col(0.0, 1.0, 1.0);
        for _ in 0..m {
            p.add_row(0.0, 1.0, &[(q, 1.0)]);
        }
        let mut e = engine::Engine::new(standardize(&p).unwrap(), SimplexConfig::default());
        let own = [(0.0, 0.0), (0.0, 2.0), (0.0, f64::INFINITY), (f64::NEG_INFINITY, 1.0)];
        (e.std.lower[0], e.std.upper[0]) = own[rng.random_range(0..own.len())];
        // Each row's activity column or its artificial is basic there.
        e.basis = (0..m)
            .map(|i| match rng.random_range(0..3) {
                0 => e.std.artificial_col(i),
                _ => e.std.activity_col(i),
            })
            .collect();
        let dense = rng.random_range(0..3) == 0;
        let mags = [1.0, 1.0 + 1e-12, 1.0 - 1e-12, 2.0, 0.5, 1e-10, 0.0];
        let mut w = WorkVec::new(m);
        for pos in 0..m {
            let j = e.basis[pos];
            e.std.lower[j] = [f64::NEG_INFINITY, 0.0, 0.0, 1.0][rng.random_range(0..4)];
            e.std.upper[j] = [f64::INFINITY, 3.0, 3.0, 2.0][rng.random_range(0..4)];
            // On a bound, inside, or a tolerance past it.
            e.xb[pos] = [0.0, 1.0, 1.5, 3.0, -1e-9, 3.0 + 1e-9][rng.random_range(0..6)];
            if dense || rng.random_range(0..3) > 0 {
                let sign = if rng.random_range(0..2) == 0 { 1.0 } else { -1.0 };
                w.set(pos as u32, sign * mags[rng.random_range(0..mags.len())]);
            }
        }
        // Set in ascending order, the pattern is the sorted one an FTRAN
        // leaves.
        if dense {
            w.make_dense();
        }
        for dir in [1.0, -1.0] {
            let want = e.ratio_test_three_pass(0, dir, &w);
            proptest::prop_assert_eq!(e.ratio_test(0, dir, &w), want);
        }
    }
}
