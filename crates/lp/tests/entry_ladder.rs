//! The solve-entry ladder, rung by rung.
//!
//! Every solve enters through one routine tried in a fixed rung order:
//! warm (the carried factors, or the offered basis installed and
//! refactored) → cold. Each test below scripts one
//! session onto one rung and pins status, `x`, objective and the whole
//! [`SolveStats`] to the values the pre-refactor engine (three separate
//! entry routines, commit 190e221) produced for the same script. Every
//! basis-changing pivot runs one pivotal-row pass, hence the identity
//! asserted on every solve in this file: `btran_ops == iterations −
//! bound_flips`.
//!
//! Four fields count how a kernel result was *represented*, not which
//! pivot was taken, and may move with the kernels while every other
//! character of a pin stays: `ftran_nnz`, `btran_nnz` (a result flagged
//! dense counts every row) and the two `*_dense_fallbacks`. PR 18 — the
//! flag now set from the result's nonzero count instead of a symbolic
//! over-estimate of it — re-recorded them in the two cold pins
//! (`ftran_nnz` 94 → 89, `ftran_dense_fallbacks` 7 → 6, `btran_nnz`
//! 28 → 18, `btran_dense_fallbacks` 1 → 0).
//!
//! PR 22 added a counter, `verifications_skipped`, and the two "nothing to
//! do" rungs it shows on: a claimed optimum on an iterate nothing has
//! moved since it was computed exactly is accepted as it stands, and
//! `refactorizations` / `refactor_forced_fallback` fall by exactly that
//! count. Every pin that was here before passed unedited — each of those
//! scripts pivots, and a solve that pivoted still ends on a verification.
//!
//! Deleting the dual simplex left every answer in this file as it was. The
//! four scripts a dual loop used to answer — on the carried factors, on the
//! session's own basis after a refused carried rung, after an infeasible
//! solve — are answered by the primal continuation and were re-recorded;
//! the rung that used to refactor for an abandoned dual attempt lost that
//! factorization; and the two scripts that end on the cold proof report
//! the pivots of the warm rungs that gave up as `abandoned_iterations`.
//!
//! The ladder then lost its second warm rung, which reinstalled the basis
//! the carried rung had just given up on and ran the same bound-shift
//! phase 1 again. One pin moved, and only in `abandoned_iterations`: the
//! infeasible edit on carried factors gives up warm once (16 → 8). A
//! feasible edit the bound shift cannot clear now pins the same: one warm
//! attempt, then the cold answer.

use wavesched_lp::{
    Basis, Col, Objective, Problem, Row, SimplexConfig, Solution, SolveError, SolverSession, Status,
};

const NINF: f64 = f64::NEG_INFINITY;
const INF: f64 = f64::INFINITY;

/// 18 boxed columns under 12 packing rows (every fifth a range row), all
/// data small integers from closed forms so the script is reproducible
/// without a generator.
fn base() -> (Problem, Vec<Col>, Vec<Row>) {
    let mut p = Problem::new(Objective::Maximize);
    let x: Vec<Col> = (0..18)
        .map(|j| p.add_col(0.0, (3 + j * 7 % 5) as f64, (1 + j * 5 % 7) as f64))
        .collect();
    let mut r = Vec::new();
    for i in 0..12usize {
        let row: Vec<(Col, f64)> = (0..18)
            .filter(|j| (j + 2 * i) % 4 == 0 || (j * i) % 7 == 3)
            .map(|j| (x[j], 1.0 + ((i + j) % 3) as f64))
            .collect();
        let cap = (6 + i * 3 % 5) as f64;
        r.push(if i % 5 == 4 {
            p.add_row(2.0, cap + 6.0, &row)
        } else {
            p.add_row(NINF, cap, &row)
        });
    }
    (p, x, r)
}

/// The base problem with a few bounds and a cost moved: same shape, so
/// the base optimum's basis is a usable foreign start.
fn relative() -> Problem {
    let (mut q, x, r) = base();
    q.set_col_bounds(x[7], 0.0, 2.0);
    q.set_cost(x[0], 7.0);
    q.set_row_bounds(r[2], NINF, 3.0);
    q
}

/// A session parked on the base optimum (carried factors live), plus that
/// optimum's basis.
fn solved() -> (SolverSession, Basis, Vec<Col>, Vec<Row>) {
    let (p, x, r) = base();
    let mut s = SolverSession::new(&p).unwrap();
    let first = s.solve().unwrap();
    assert_eq!(first.status, Status::Optimal);
    (s, first.basis.unwrap(), x, r)
}

/// The same session after an infeasible edit and its cold proof: the last
/// optimal basis is still the session's own, the carried factors are gone.
fn solved_then_infeasible() -> (SolverSession, Vec<Col>, Vec<Row>) {
    let (mut s, _, x, r) = solved();
    s.set_row_bounds(r[9], 40.0, 50.0);
    assert_eq!(s.solve().unwrap().status, Status::Infeasible);
    (s, x, r)
}

/// `answer` is `status objective x`, `work` the nonzero [`SolveStats`]
/// fields other than `solves: 1`, both in `{:?}` form — shortest
/// round-trip floats, so equal strings mean equal bits.
fn check(got: &Solution, answer: &str, work: &str) {
    assert_eq!(
        format!("{:?} {:?} {:?}", got.status, got.objective, got.x),
        answer
    );
    let all = format!("{:?}", got.stats);
    let nonzero: Vec<&str> = all
        .trim_start_matches("SolveStats { ")
        .trim_end_matches(" }")
        .split(", ")
        .filter(|f| !f.ends_with(": 0") && *f != "solves: 1")
        .collect();
    assert_eq!(nonzero.join(", "), work);
    assert_eq!(got.stats.solves, 1);
    assert_eq!(
        got.stats.btran_ops,
        got.stats.iterations - got.stats.bound_flips,
        "one pivotal-row BTRAN per basis-changing pivot"
    );
}

#[test]
fn no_basis_offered_runs_cold_without_counting_a_fallback() {
    let (p, _, _) = base();
    check(
        &SolverSession::new(&p).unwrap().solve().unwrap(),
        "Optimal 93.22222222222223 [0.0, 0.0, 1.6666666666666667, 0.0, 0.0, 3.0, 0.0, 7.0, 0.0, 0.8888888888888888, 0.0, 3.0, 0.0, 4.0, 0.0, 3.0, 0.0, 5.0]",
        "iterations: 14, phase1_iterations: 2, refactorizations: 3, refactor_forced_fallback: 3, bound_flips: 1, ftran_ops: 14, ftran_nnz: 89, ftran_dense_fallbacks: 6, btran_ops: 13, btran_nnz: 16, pivot_row_nnz: 82, pricing_candidates_scanned: 89",
    );
}

#[test]
fn carried_factors_primal_continuation() {
    // Seven row edits push basic values out of their bounds: the bound
    // shift clears them in phase 1 and phase 2 finishes, all on the
    // carried factors.
    let (mut s, _, _, r) = solved();
    for i in [0, 1, 2, 3, 5, 6] {
        s.set_row_bounds(r[i], NINF, 4.0);
    }
    s.set_row_bounds(r[4], 9.0, 14.0);
    check(
        &s.solve().unwrap(),
        "Optimal 69.66666666666666 [0.0, 0.0, 0.0, 0.0, 0.0, 2.0, 0.0, 7.0, 0.0, 1.3333333333333333, 0.0, 1.3333333333333333, 0.0, 4.0, 0.0, 3.0, 0.0, 4.0]",
        "iterations: 9, phase1_iterations: 5, refactorizations: 2, refactor_forced_fallback: 2, lu_reuse_hits: 1, warm_starts_accepted: 1, ftran_ops: 9, ftran_nnz: 102, ftran_dense_fallbacks: 7, btran_ops: 9, btran_nnz: 69, btran_dense_fallbacks: 5, pivot_row_nnz: 98, pricing_candidates_scanned: 37",
    );
}

#[test]
fn carried_factors_primal_continuation_after_an_opened_bound() {
    // Opening x13's upper bound re-parks it at its lower bound, where its
    // reduced cost makes it eligible: phase 1 on the row edit, phase 2
    // prices it in — all on the carried factors.
    let (mut s, _, x, r) = solved();
    s.set_col_bounds(x[13], 0.0, INF);
    s.set_row_bounds(r[1], NINF, 3.0);
    check(
        &s.solve().unwrap(),
        "Optimal 89.0 [0.0, 0.0, 0.0, 0.0, 0.0, 3.0, 0.0, 7.0, 0.0, 2.0, 0.0, 3.0, 0.0, 4.666666666666667, 0.0, 3.0, 0.0, 3.0]",
        "iterations: 6, phase1_iterations: 3, refactorizations: 2, refactor_forced_fallback: 2, lu_reuse_hits: 1, bound_flips: 1, warm_starts_accepted: 1, ftran_ops: 6, ftran_nnz: 42, ftran_dense_fallbacks: 3, btran_ops: 5, btran_nnz: 17, btran_dense_fallbacks: 1, pivot_row_nnz: 33, pricing_candidates_scanned: 25",
    );
}

#[test]
fn carried_factors_after_a_cost_edit() {
    let (mut s, _, x, _) = solved();
    s.set_cost(x[0], 30.0);
    s.set_cost(x[4], 25.0);
    s.set_cost(x[7], -1.0);
    check(
        &s.solve().unwrap(),
        "Optimal 114.9047619047619 [2.142857142857143, 0.0, 3.0, 0.0, 0.5714285714285716, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.9047619047619044, 0.0, 2.6666666666666665, 0.0, 0.0, 0.0, 1.5]",
        "iterations: 7, refactorizations: 1, refactor_forced_fallback: 1, lu_reuse_hits: 1, bound_flips: 1, warm_starts_accepted: 1, ftran_ops: 7, ftran_nnz: 70, ftran_dense_fallbacks: 4, btran_ops: 6, btran_nnz: 31, btran_dense_fallbacks: 2, pivot_row_nnz: 45, pricing_candidates_scanned: 20",
    );
}

#[test]
fn corrupted_carried_factors_fail_the_residual_check() {
    // x0 resting at a nonzero bound makes the damaged pivot visible in
    // the recomputed basic values; the refused factors cost no pivot, and
    // the warm rung installs the offered basis and answers from a fresh
    // factor.
    let (mut s, _, x, _) = solved();
    s.debug_corrupt_factorization();
    s.set_col_bounds(x[0], 1.0, 3.0);
    check(
        &s.solve().unwrap(),
        "Optimal 79.0 [1.0, 0.0, 2.5, 0.0, 0.0, 2.0, 0.0, 7.0, 0.0, 0.3333333333333333, 0.0, 2.6666666666666665, 0.0, 4.0, 0.0, 2.0, 0.0, 3.5]",
        "iterations: 4, phase1_iterations: 3, refactorizations: 3, refactor_forced_fallback: 3, refactor_reuse_rejected: 1, degenerate_pivots: 1, warm_starts_accepted: 1, ftran_ops: 4, ftran_nnz: 44, ftran_dense_fallbacks: 3, btran_ops: 4, btran_nnz: 29, btran_dense_fallbacks: 2, pivot_row_nnz: 39, pricing_candidates_scanned: 7",
    );
}

/// The answer both "nothing to do" rungs must give, recorded from d2a2d48
/// — where each of them ended on a verification refactorization that
/// rebuilt, bit for bit, what the entry had just computed.
const NOTHING_TO_DO: &str = "Optimal 91.30555555555556 [0.0, 0.0, 1.6666666666666667, 0.0, 0.25, 3.0, 0.0, 7.0, 0.0, 0.8888888888888888, 0.0, 2.8333333333333335, 0.0, 4.0, 0.0, 2.625, 0.0, 4.875]";
const NOTHING_TO_DO_DUALS: &str =
    "[0.0, 0.0, 0.0, 0.0, 0.0, 1.3333333333333333, 2.3333333333333335, 0.0, 1.0, 0.4444444444444445, 3.0, 0.0]";

#[test]
fn carried_factors_nothing_to_do() {
    // Lifting x4's lower bound moves the basic values and leaves every one
    // inside its bounds: nothing to relax, no eligible column. The parent
    // reported `refactorizations: 1, refactor_forced_fallback: 1` here.
    let (mut s, _, x, _) = solved();
    s.set_col_bounds(x[4], 0.25, 6.0);
    let got = s.solve().unwrap();
    check(
        &got,
        NOTHING_TO_DO,
        "verifications_skipped: 1, lu_reuse_hits: 1, warm_starts_accepted: 1",
    );
    assert_eq!(format!("{:?}", got.duals), NOTHING_TO_DO_DUALS);
}

#[test]
fn corrupted_carried_factors_with_nothing_to_do_still_fail_the_residual_check() {
    // The same edit on damaged factors: the residual gate still stands in
    // front of everything the exactness bookkeeping spares, so the factors
    // are refused and the installed basis answers from a fresh factor —
    // which is then the only factorization (the parent reported
    // `refactorizations: 2, refactor_forced_fallback: 2`).
    let (mut s, _, x, _) = solved();
    s.debug_corrupt_factorization();
    s.set_col_bounds(x[4], 0.25, 6.0);
    let got = s.solve().unwrap();
    check(
        &got,
        NOTHING_TO_DO,
        "refactorizations: 1, refactor_forced_fallback: 1, verifications_skipped: 1, refactor_reuse_rejected: 1, warm_starts_accepted: 1",
    );
    assert_eq!(format!("{:?}", got.duals), NOTHING_TO_DO_DUALS);
}

#[test]
fn infeasible_edit_gives_up_warm_once_then_proves_cold() {
    // The carried factors' bound-shift phase 1 pivots and cannot clear the
    // violation; the solve goes cold without installing the same basis
    // again. Only the cold phase 1 is a proof; the warm rung's pivots are
    // reported as abandoned (16 when a second warm rung repeated them).
    let (mut s, _, _, r) = solved();
    s.set_row_bounds(r[9], 40.0, 50.0);
    check(
        &s.solve().unwrap(),
        "Infeasible 30.0 [0.0, 0.0, 2.2, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0, 0.0, 1.6, 0.0, 0.3333333333333333, 0.4444444444444445, 0.0, 0.0, 0.0, 0.0]",
        "iterations: 6, phase1_iterations: 6, abandoned_iterations: 8, refactorizations: 2, refactor_forced_fallback: 2, refactor_reuse_rejected: 1, bound_flips: 1, warm_start_fallbacks: 1, ftran_ops: 6, ftran_nnz: 58, ftran_dense_fallbacks: 4, btran_ops: 5, btran_nnz: 8, pivot_row_nnz: 31, pricing_candidates_scanned: 27",
    );
}

#[test]
fn feasible_edit_the_bound_shift_cannot_clear_goes_cold_once() {
    // Row 10 lifted above its old cap and row 3 tightened: feasible, but
    // the carried rung's bound shift clamps the violated values at their
    // bounds, and its phase 1 ends after 4 pivots with violations left.
    // The cold rung answers, equal to a fresh solve; a second warm rung on
    // the same basis abandoned 4 more.
    let edit = |s: &mut SolverSession, r: &[Row]| {
        s.set_row_bounds(r[10], 8.0, INF);
        s.set_row_bounds(r[3], NINF, 2.0);
    };
    let (mut s, _, _, r) = solved();
    edit(&mut s, &r);
    let got = s.solve().unwrap();
    check(
        &got,
        "Optimal 83.94444444444444 [0.0, 0.0, 0.0, 0.0, 1.3333333333333333, 2.8333333333333335, 0.0, 7.0, 0.0, 2.0, 0.0, 2.111111111111111, 0.0, 3.3333333333333335, 0.0, 2.0, 0.0, 4.333333333333333]",
        "iterations: 12, phase1_iterations: 4, abandoned_iterations: 4, refactorizations: 3, refactor_forced_fallback: 3, refactor_reuse_rejected: 1, bound_flips: 1, warm_start_fallbacks: 1, ftran_ops: 12, ftran_nnz: 44, ftran_dense_fallbacks: 2, btran_ops: 11, btran_nnz: 32, btran_dense_fallbacks: 1, pivot_row_nnz: 99, pricing_candidates_scanned: 70",
    );
    let (p, _, r) = base();
    let mut fresh = SolverSession::new(&p).unwrap();
    edit(&mut fresh, &r);
    let cold = fresh.solve().unwrap();
    assert_eq!(format!("{:?}", cold.x), format!("{:?}", got.x));
    assert_eq!(cold.objective.to_bits(), got.objective.to_bits());
}

#[test]
fn infeasible_again_without_carried_factors() {
    let (mut s, _, r) = solved_then_infeasible();
    s.set_row_bounds(r[9], 35.0, 50.0);
    check(
        &s.solve().unwrap(),
        "Infeasible 30.0 [0.0, 0.0, 2.2, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0, 0.0, 1.6, 0.0, 0.3333333333333333, 0.4444444444444445, 0.0, 0.0, 0.0, 0.0]",
        "iterations: 6, phase1_iterations: 6, abandoned_iterations: 7, refactorizations: 2, refactor_forced_fallback: 2, bound_flips: 1, warm_start_fallbacks: 1, ftran_ops: 6, ftran_nnz: 58, ftran_dense_fallbacks: 4, btran_ops: 5, btran_nnz: 8, pivot_row_nnz: 31, pricing_candidates_scanned: 27",
    );
}

#[test]
fn basis_primal_after_a_non_optimal_solve() {
    // No carried factors after the infeasible solve: the last optimal
    // basis is installed and refactored, one phase-1 pivot clears the
    // edits.
    let (mut s, _, r) = solved_then_infeasible();
    s.set_row_bounds(r[9], 5.0, 8.0);
    s.set_row_bounds(r[0], NINF, 4.0);
    check(
        &s.solve().unwrap(),
        "Optimal 89.33333333333333 [0.0, 0.0, 0.0, 0.0, 0.0, 2.6666666666666665, 0.0, 7.0, 0.0, 2.0, 0.0, 3.0, 0.0, 4.0, 0.0, 3.0, 0.0, 5.0]",
        "iterations: 1, phase1_iterations: 1, refactorizations: 3, refactor_forced_fallback: 3, warm_starts_accepted: 1, ftran_ops: 1, ftran_nnz: 12, ftran_dense_fallbacks: 1, btran_ops: 1, btran_nnz: 1, pivot_row_nnz: 5, pricing_candidates_scanned: 1",
    );
}

#[test]
fn basis_primal_with_a_reparked_column() {
    // No carried factors, and the opened x13 is re-parked at its lower
    // bound: the basis primal rung installs the last optimal basis once
    // and finishes.
    let (mut s, x, r) = solved_then_infeasible();
    s.set_row_bounds(r[9], 5.0, 8.0);
    s.set_col_bounds(x[13], 0.0, INF);
    check(
        &s.solve().unwrap(),
        "Optimal 91.33333333333333 [0.0, 0.0, 0.0, 0.0, 0.0, 2.6666666666666665, 0.0, 7.0, 0.0, 2.0, 0.0, 3.0, 0.0, 4.666666666666667, 0.0, 3.0, 0.0, 5.0]",
        "iterations: 5, phase1_iterations: 2, refactorizations: 3, refactor_forced_fallback: 3, degenerate_pivots: 1, bound_flips: 1, warm_starts_accepted: 1, ftran_ops: 5, ftran_nnz: 57, ftran_dense_fallbacks: 4, btran_ops: 4, btran_nnz: 5, pivot_row_nnz: 25, pricing_candidates_scanned: 15",
    );
}

#[test]
fn foreign_basis_enters_on_the_primal_rung() {
    let (_, basis, _, _) = solved();
    let mut s = SolverSession::new(&relative()).unwrap();
    s.warm_start_from(basis);
    let sess = s.solve().unwrap();
    check(
        &sess,
        "Optimal 81.61111111111111 [0.0, 0.0, 2.3333333333333335, 0.0, 0.0, 1.5, 0.0, 2.0, 0.0, 0.44444444444444436, 0.0, 3.0, 0.0, 4.0, 0.0, 3.0, 0.0, 5.0]",
        "iterations: 2, phase1_iterations: 2, refactorizations: 3, refactor_forced_fallback: 3, warm_starts_accepted: 1, ftran_ops: 2, ftran_nnz: 24, ftran_dense_fallbacks: 2, btran_ops: 2, btran_nnz: 15, btran_dense_fallbacks: 1, pivot_row_nnz: 22, pricing_candidates_scanned: 3",
    );
}

#[test]
fn stale_shape_basis_falls_back_cold() {
    let (_, mut basis, _, _) = solved();
    basis.cols.pop();
    let mut s = SolverSession::new(&relative()).unwrap();
    s.warm_start_from(basis);
    check(
        &s.solve().unwrap(),
        "Optimal 81.61111111111111 [0.0, 0.0, 2.3333333333333335, 0.0, 0.0, 1.5, 0.0, 2.0, 0.0, 0.44444444444444436, 0.0, 3.0, 0.0, 4.0, 0.0, 3.0, 0.0, 5.0]",
        "iterations: 14, phase1_iterations: 2, refactorizations: 3, refactor_forced_fallback: 3, bound_flips: 1, warm_start_fallbacks: 1, ftran_ops: 14, ftran_nnz: 89, ftran_dense_fallbacks: 6, btran_ops: 13, btran_nnz: 18, pivot_row_nnz: 91, pricing_candidates_scanned: 92",
    );
}

#[test]
fn hostile_config_is_a_typed_error() {
    // Rejected at the door, before anything is standardized or factored.
    let (p, _, _) = base();
    let bad: [fn(&mut SimplexConfig); 2] = [
        |c| c.refactor_interval = 0,
        |c| c.kernel_density_threshold = f64::NAN,
    ];
    for (k, spoil) in bad.iter().enumerate() {
        let mut cfg = SimplexConfig::default();
        spoil(&mut cfg);
        let res = SolverSession::with_config(&p, &cfg).map(drop);
        assert!(
            matches!(res, Err(SolveError::InvalidModel(_))),
            "case {k}: {res:?}"
        );
    }
    // The probes' disabled cadence and the forced-dense kernels stay legal.
    let edge = SimplexConfig {
        refactor_interval: usize::MAX,
        kernel_density_threshold: 0.0,
        ..SimplexConfig::default()
    };
    let mut s = SolverSession::with_config(&p, &edge).unwrap();
    assert_eq!(s.solve().unwrap().status, Status::Optimal);
}
