//! Pricing, pivot for pivot.
//!
//! The primal loop prices from a maintained set of eligible columns, puts
//! its index lists in order by a bitmap sweep and runs its ratio test over
//! one gather of the entering column. None of that may move a pivot: each
//! test below scripts one solve onto one way the eligible set is exercised
//! and pins status, objective, `x` and the whole [`SolveStats`] to what
//! the engine that scanned every column on every pricing call (commit
//! 49c9fa5) produced for the same script. A moved counter here is a moved
//! trajectory — except `ftran_nnz`, `btran_nnz` and the two
//! `*_dense_fallbacks`, which count how a kernel result was *represented*
//! (a result flagged dense counts every row), not which pivot was taken.
//! PR 18 sets that flag from the result's nonzero count instead of a
//! symbolic over-estimate of it and re-recorded `btran_nnz` /
//! `btran_dense_fallbacks` in three pins (Bland 30 → 20 / 1 → 0, added
//! columns 54 → 35 / 4 → 2, and a dual re-solve pin deleted since with
//! the dual simplex).

use wavesched_lp::{
    solve, Col, NewColumn, Objective, Problem, Row, SimplexConfig, Solution, SolverSession, Status,
};

const NINF: f64 = f64::NEG_INFINITY;

/// `n` boxed columns under `m` packing rows, all data small integers from
/// closed forms so a script is reproducible without a generator. `cost`
/// and `upper` give column `j`'s objective coefficient and upper bound,
/// `cap` row `i`'s right-hand side.
fn packing(
    n: usize,
    m: usize,
    cost: impl Fn(usize) -> f64,
    upper: impl Fn(usize) -> f64,
    cap: impl Fn(usize) -> f64,
) -> (Problem, Vec<Col>, Vec<Row>) {
    let mut p = Problem::new(Objective::Maximize);
    let x: Vec<Col> = (0..n).map(|j| p.add_col(0.0, upper(j), cost(j))).collect();
    let r = (0..m)
        .map(|i| {
            let row: Vec<(Col, f64)> = (0..n)
                .filter(|j| (j + 2 * i) % 4 == 0 || (j * i) % 7 == 3)
                .map(|j| (x[j], 1.0 + ((i + j) % 3) as f64))
                .collect();
            p.add_row(NINF, cap(i), &row)
        })
        .collect();
    (p, x, r)
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
}

#[test]
fn cold_devex_with_score_ties() {
    // Equal costs under unit reference weights: every opening score ties,
    // and later ones keep tying in pairs; the lower column index enters.
    let (p, _, _) = packing(
        24,
        14,
        |j| (2 + j % 2) as f64,
        |_| 4.0,
        |i| (6 + i * 3 % 5) as f64,
    );
    check(
        &solve(&p).unwrap(),
        "Optimal 84.14285714285715 [0.0, 0.0, 0.0, 0.6666666666666666, 0.0, 0.0, 0.0, 4.0, 0.0, 0.5714285714285715, 0.0, 3.0, 0.0, 2.6666666666666665, 0.0, 3.0, 0.0, 4.0, 0.0, 4.0, 0.0, 4.0, 0.0, 2.142857142857143]",
        "iterations: 12, refactorizations: 2, refactor_forced_fallback: 2, bound_flips: 3, ftran_ops: 12, ftran_nnz: 20, btran_ops: 9, btran_nnz: 10, pivot_row_nnz: 75, pricing_candidates_scanned: 106",
    );
}

#[test]
fn bland_mode_takes_the_lowest_eligible_index() {
    // Zero capacities on half the rows make most pivots degenerate; with
    // the threshold at 1 the first of them switches pricing to Bland's
    // rule, and the first non-degenerate one switches it back.
    let (p, _, _) = packing(
        24,
        14,
        |j| (1 + j * 5 % 7) as f64,
        |j| (3 + j * 7 % 5) as f64,
        |i| {
            if i % 2 == 0 {
                0.0
            } else {
                (6 + i * 3 % 5) as f64
            }
        },
    );
    let cfg = SimplexConfig {
        degeneracy_threshold: 1,
        ..SimplexConfig::default()
    };
    let mut session = SolverSession::with_config(&p, &cfg).unwrap();
    check(&session.solve().unwrap(), "Optimal 14.666666666666666 [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 7.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.6666666666666665, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 5.0, 0.0, 0.0]", "iterations: 15, refactorizations: 2, refactor_forced_fallback: 2, degenerate_pivots: 12, bound_flips: 2, ftran_ops: 15, ftran_nnz: 110, ftran_dense_fallbacks: 6, btran_ops: 13, btran_nnz: 20, pivot_row_nnz: 114, pricing_candidates_scanned: 41");
}

#[test]
fn primal_bound_flips() {
    // Unit boxes under roomy rows: most entering columns reach their own
    // upper bound before any row blocks.
    let (p, _, _) = packing(
        24,
        14,
        |j| (1 + j * 5 % 7) as f64,
        |_| 1.0,
        |i| (9 + i * 3 % 5) as f64,
    );
    check(
        &solve(&p).unwrap(),
        "Optimal 69.0952380952381 [0.0, 1.0, 0.6666666666666666, 1.0, 0.3333333333333333, 1.0, 0.0, 1.0, 1.0, 0.6190476190476191, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.9047619047619049]",
        "iterations: 22, refactorizations: 2, refactor_forced_fallback: 2, degenerate_pivots: 2, bound_flips: 15, ftran_ops: 22, ftran_nnz: 156, ftran_dense_fallbacks: 9, btran_ops: 7, btran_nnz: 17, pivot_row_nnz: 79, pricing_candidates_scanned: 252",
    );
}

#[test]
fn add_columns_then_resolve() {
    // Columns spliced into a solved session shift every later index and
    // grow the slot table; the re-solve prices the new ones in.
    let (p, _, r) = packing(
        18,
        12,
        |j| (1 + j * 5 % 7) as f64,
        |j| (3 + j * 7 % 5) as f64,
        |i| (6 + i * 3 % 5) as f64,
    );
    let mut s = SolverSession::new(&p).unwrap();
    assert_eq!(s.solve().unwrap().status, Status::Optimal);
    let cols: Vec<NewColumn> = (0..6usize)
        .map(|k| NewColumn {
            lower: 0.0,
            upper: 2.0,
            cost: (9 + k) as f64,
            entries: (0..12)
                .filter(|i| (i + k) % 3 == 0)
                .map(|i| (r[i], 1.0 + (i % 2) as f64))
                .collect(),
        })
        .collect();
    s.add_columns(&cols);
    check(&s.solve().unwrap(), "Optimal 157.16666666666669 [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 7.0, 0.0, 0.0, 0.0, 1.6666666666666667, 0.0, 1.5, 0.0, 1.25, 0.0, 2.0, 2.0, 1.0, 1.5, 2.0, 2.0, 2.0]", "iterations: 8, refactorizations: 1, refactor_forced_fallback: 1, lu_reuse_hits: 1, degenerate_pivots: 1, warm_starts_accepted: 1, ftran_ops: 8, ftran_nnz: 93, ftran_dense_fallbacks: 6, btran_ops: 8, btran_nnz: 35, btran_dense_fallbacks: 2, pivot_row_nnz: 101, pricing_candidates_scanned: 41");
}
