//! Unit tests of the LU factorization and its triangular solves.

use super::*;
use crate::sparse::CscMatrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Builds a CSC matrix whose columns are exactly the basis columns.
fn mat(cols: &[Vec<(u32, f64)>], m: usize) -> (CscMatrix, Vec<usize>) {
    let mut a = CscMatrix::from_triplets(m, 0, []);
    for c in cols {
        a.push_col(c);
    }
    (a, (0..cols.len()).collect())
}

fn mul(a: &CscMatrix, basis: &[usize], x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; a.nrows()];
    for (pos, &j) in basis.iter().enumerate() {
        a.col_axpy(j, x[pos], &mut y);
    }
    y
}

#[test]
fn identity_roundtrip() {
    let cols: Vec<Vec<(u32, f64)>> = (0..4).map(|i| vec![(i as u32, 1.0)]).collect();
    let (a, basis) = mat(&cols, 4);
    let lu = Lu::factor(&a, &basis, 1e-12).unwrap();
    let mut rhs = vec![1.0, 2.0, 3.0, 4.0];
    let mut x = vec![0.0; 4];
    lu.ftran(&mut rhs, &mut x);
    assert_eq!(x, vec![1.0, 2.0, 3.0, 4.0]);
}

#[test]
fn dense_3x3_ftran_btran() {
    // B = [[2,1,0],[1,3,1],[0,1,4]] as columns.
    let cols = vec![
        vec![(0, 2.0), (1, 1.0)],
        vec![(0, 1.0), (1, 3.0), (2, 1.0)],
        vec![(1, 1.0), (2, 4.0)],
    ];
    let (a, basis) = mat(&cols, 3);
    let lu = Lu::factor(&a, &basis, 1e-12).unwrap();

    let want = vec![0.5, -1.5, 2.0];
    let rhs0 = mul(&a, &basis, &want);
    let mut rhs = rhs0.clone();
    let mut x = vec![0.0; 3];
    lu.ftran(&mut rhs, &mut x);
    for (xi, wi) in x.iter().zip(&want) {
        assert!((xi - wi).abs() < 1e-12, "{x:?} vs {want:?}");
    }

    // BTRAN: y such that B' y = c  <=>  y' B = c'.
    let mut c = vec![1.0, 0.0, -2.0];
    let mut scratch = vec![0.0; 3];
    lu.btran(&mut c, &mut scratch);
    // Check y' * B columns == original c.
    let y = c;
    let orig = [1.0, 0.0, -2.0];
    for (pos, col) in cols.iter().enumerate() {
        let mut acc = 0.0;
        for &(r, v) in col {
            acc += y[r as usize] * v;
        }
        assert!((acc - orig[pos]).abs() < 1e-12);
    }
}

#[test]
fn permuted_diagonal() {
    // Columns hit rows out of order; forces pivoting bookkeeping.
    let cols = vec![vec![(2, 5.0)], vec![(0, -3.0)], vec![(1, 2.0)]];
    let (a, basis) = mat(&cols, 3);
    let lu = Lu::factor(&a, &basis, 1e-12).unwrap();
    let want = vec![1.0, 2.0, 3.0];
    let mut rhs = mul(&a, &basis, &want);
    let mut x = vec![0.0; 3];
    lu.ftran(&mut rhs, &mut x);
    for (xi, wi) in x.iter().zip(&want) {
        assert!((xi - wi).abs() < 1e-12);
    }
}

#[test]
fn singular_reports_row() {
    // Two identical columns: structurally singular.
    let cols = vec![vec![(0, 1.0), (1, 1.0)], vec![(0, 1.0), (1, 1.0)]];
    let (a, basis) = mat(&cols, 2);
    assert!(Lu::factor(&a, &basis, 1e-12).is_err());
}

/// A random basis: a dominant diagonal plus off-diagonal entries with
/// probability `fill` each.
fn random_cols(rng: &mut StdRng, m: usize, fill: f64) -> Vec<Vec<(u32, f64)>> {
    let mut cols = Vec::new();
    for j in 0..m {
        let mut col = vec![(j as u32, 1.0 + rng.random_range(0.0..4.0))];
        for r in 0..m {
            if r != j && rng.random_range(0.0..1.0) < fill {
                col.push((r as u32, rng.random_range(-1.0..1.0)));
            }
        }
        col.sort_unstable_by_key(|e| e.0);
        cols.push(col);
    }
    cols
}

/// A multi-entry right-hand side in step space, with one explicit
/// `0.0` entry: over `lo..hi` its two ends, its middle and three random
/// steps. The callers pass the whole basis (the last step sits in the
/// final, partial bitmap word) and its first and last 64 steps alone,
/// so each sweep has to carry its marks into words no seed touched.
fn random_rhs(rng: &mut StdRng, lo: usize, hi: usize) -> Vec<(usize, f64)> {
    let mut at = vec![lo, (lo + hi) / 2, hi - 1];
    at.extend((0..3).map(|_| rng.random_range(lo..hi)));
    at.sort_unstable();
    at.dedup();
    let zero = rng.random_range(0..at.len());
    let mut rhs: Vec<(usize, f64)> = at
        .iter()
        .map(|&i| (i, rng.random_range(-2.0..2.0)))
        .collect();
    if rhs.len() > 1 {
        rhs[zero].1 = 0.0;
    }
    rhs
}

/// `got` against the dense kernel's `want`: nonzeros bit-equal, zeros
/// zero (their sign is free), the pattern exactly the nonzero set, and
/// flagged dense iff there are more than `cap` of them.
fn assert_same(got: &WorkVec, want: &[f64], cap: usize, label: &str) {
    for (i, (&g, &w)) in got.values.iter().zip(want).enumerate() {
        if w == 0.0 {
            assert_eq!(g, 0.0, "{label} slot {i}");
        } else {
            assert_eq!(g.to_bits(), w.to_bits(), "{label} slot {i}: {g} vs {w}");
        }
    }
    let nonzero: Vec<u32> = (0..want.len() as u32)
        .filter(|&i| want[i as usize] != 0.0)
        .collect();
    assert_eq!(got.is_dense(), nonzero.len() > cap, "{label} dense flag");
    if !got.is_dense() {
        let mut pattern = got.pattern.clone();
        pattern.sort_unstable();
        assert_eq!(pattern, nonzero, "{label} pattern");
    }
}

/// Both sparse kernels against the dense ones on one factorization and
/// one step-space right-hand side, at caps 0 and 1 and either side of
/// the result's nonzero count.
fn check_kernels(lu: &Lu, steps: &[(usize, f64)], label: &str) {
    let m = lu.m;
    let mut scratch = LuScratch::new(m);
    let clean =
        |s: &LuScratch| s.vals.iter().all(|&v| v.to_bits() == 0) && s.words.iter().all(|&w| w == 0);
    // The right-hand side as a tracked and as a dense vector, its steps
    // mapped through `index` to rows (FTRAN) or positions (BTRAN).
    let tracked = |index: &[u32]| {
        let mut w = WorkVec::new(m);
        for &(step, v) in steps {
            w.set(index[step], v);
        }
        w
    };
    let dense = |index: &[u32]| {
        let mut d = vec![0.0; m];
        for &(step, v) in steps {
            d[index[step] as usize] = v;
        }
        d
    };

    let mut want = vec![0.0; m];
    lu.ftran(&mut dense(&lu.row_perm), &mut want);
    let nnz = want.iter().filter(|&&v| v != 0.0).count();
    for cap in [0, 1, nnz - 1, nnz, nnz + 1] {
        let label = format!("{label} ftran cap {cap}");
        let (mut rhs, mut out) = (tracked(&lu.row_perm), WorkVec::new(m));
        lu.ftran_sparse(&mut rhs, &mut out, &mut scratch, cap);
        assert_same(&out, &want, cap, &label);
        // rhs handed back clean for reuse.
        assert!(rhs.pattern.is_empty() && !rhs.is_dense(), "{label}");
        assert!(rhs.values.iter().all(|&v| v == 0.0), "{label}");
        assert!(clean(&scratch), "{label}: scratch left dirty");
    }

    let mut want = dense(&lu.col_order);
    lu.btran(&mut want, &mut vec![0.0; m]);
    let nnz = want.iter().filter(|&&v| v != 0.0).count();
    for cap in [0, 1, nnz - 1, nnz, nnz + 1] {
        let label = format!("{label} btran cap {cap}");
        let mut c = tracked(&lu.col_order);
        lu.btran_sparse(&mut c, &mut scratch, cap);
        assert_same(&c, &want, cap, &label);
        assert!(clean(&scratch), "{label}: scratch left dirty");
    }
}

/// [`check_kernels`] seeded over the whole basis, then from its first
/// and from its last 64 steps alone.
fn check_factorization(lu: &Lu, rng: &mut StdRng, label: &str) {
    let m = lu.m;
    for (lo, hi) in [(0, m), (0, m.min(64)), (m.saturating_sub(64), m)] {
        let steps = random_rhs(rng, lo, hi);
        check_kernels(lu, &steps, &format!("{label} seeds {lo}..{hi}"));
    }
}

/// Sparse FTRAN/BTRAN must be bit-identical to the dense kernels on
/// every nonzero (zeros may differ in sign only) and leave their
/// scratch zeroed: on small bases (one bitmap word), on bases around
/// and across the 64-step word boundaries, and on each again after
/// `extend_rows`.
#[test]
fn sparse_kernels_match_dense_bitwise() {
    let mut rng = StdRng::seed_from_u64(42);
    let small = (0..40).map(|trial| (2 + trial % 14, 0.25));
    let multi_word = [63, 64, 65, 130, 300].map(|m| (m, 2.5 / m as f64));
    let mut checked = 0;
    for (m, fill) in small.chain(multi_word) {
        let (a, basis) = mat(&random_cols(&mut rng, m, fill), m);
        let Ok(mut lu) = Lu::factor(&a, &basis, 1e-10) else {
            continue; // genuinely singular draw
        };
        check_factorization(&lu, &mut rng, &format!("m {m}"));
        lu.extend_rows(3);
        check_factorization(&lu, &mut rng, &format!("m {m} + 3"));
        checked += 1;
    }
    assert!(checked >= 40, "only {checked} of 45 bases factored");
}

#[test]
fn randomized_roundtrip() {
    let mut rng = StdRng::seed_from_u64(7);
    for trial in 0..30 {
        let m = 1 + (trial % 12);
        // Random sparse nonsingular-ish matrix: diagonal + noise.
        let cols = random_cols(&mut rng, m, 0.3);
        let (a, basis) = mat(&cols, m);
        let lu = match Lu::factor(&a, &basis, 1e-10) {
            Ok(l) => l,
            Err(_) => continue, // genuinely singular draw
        };
        let want: Vec<f64> = (0..m).map(|_| rng.random_range(-5.0..5.0)).collect();
        let mut rhs = mul(&a, &basis, &want);
        let mut x = vec![0.0; m];
        lu.ftran(&mut rhs, &mut x);
        for (xi, wi) in x.iter().zip(&want) {
            assert!((xi - wi).abs() < 1e-7, "trial {trial}: {x:?} vs {want:?}");
        }
        // BTRAN consistency: y' B = c'.
        let c: Vec<f64> = (0..m).map(|_| rng.random_range(-3.0_f64..3.0)).collect();
        let mut y = c.clone();
        let mut scratch = vec![0.0; m];
        lu.btran(&mut y, &mut scratch);
        for (pos, col) in cols.iter().enumerate() {
            let mut acc = 0.0;
            for &(r, v) in col {
                acc += y[r as usize] * v;
            }
            assert!((acc - c[pos]).abs() < 1e-7);
        }
    }
}

/// Both factorizations arena for arena: permutations, both factors, the
/// pivots and both transposes, values by bit pattern.
fn assert_same_factors(got: &Lu, want: &Lu, label: &str) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(got.m, want.m, "{label}: m");
    assert_eq!(got.row_perm, want.row_perm, "{label}: row_perm");
    assert_eq!(got.row_pos, want.row_pos, "{label}: row_pos");
    assert_eq!(got.col_order, want.col_order, "{label}: col_order");
    assert_eq!(got.col_pos, want.col_pos, "{label}: col_pos");
    assert_eq!(got.l_ptr, want.l_ptr, "{label}: l_ptr");
    assert_eq!(got.l_row, want.l_row, "{label}: l_row");
    assert_eq!(got.l_step, want.l_step, "{label}: l_step");
    assert_eq!(bits(&got.l_val), bits(&want.l_val), "{label}: l_val");
    assert_eq!(got.u_ptr, want.u_ptr, "{label}: u_ptr");
    assert_eq!(got.u_idx, want.u_idx, "{label}: u_idx");
    assert_eq!(bits(&got.u_val), bits(&want.u_val), "{label}: u_val");
    assert_eq!(bits(&got.u_diag), bits(&want.u_diag), "{label}: u_diag");
    for (name, g, w) in [("ut", &got.ut, &want.ut), ("lt", &got.lt, &want.lt)] {
        assert_eq!(g.ptr, w.ptr, "{label}: {name}.ptr");
        assert_eq!(g.idx, w.idx, "{label}: {name}.idx");
    }
}

/// The parts of a factorization no elimination step writes, against their
/// definitions: the processing order is the stable sort by column count,
/// `col_pos` and `row_pos` invert their permutations, and each transpose
/// lists, for every step, the columns holding it, ascending.
fn assert_frame(lu: &Lu, a: &CscMatrix, basis: &[usize], label: &str) {
    let m = lu.m;
    let mut order: Vec<u32> = (0..m as u32).collect();
    order.sort_by_key(|&p| a.col_nnz(basis[p as usize]));
    assert_eq!(lu.col_order, order, "{label}: col_order");
    for step in 0..m {
        assert_eq!(lu.col_pos[lu.col_order[step] as usize], step as u32);
        assert_eq!(lu.row_pos[lu.row_perm[step] as usize], step as u32);
    }
    for (name, t, ptr, idx) in [
        ("ut", &lu.ut, &lu.u_ptr, &lu.u_idx),
        ("lt", &lu.lt, &lu.l_ptr, &lu.l_step),
    ] {
        assert_eq!(t.ptr.len(), m + 1, "{label}: {name}.ptr");
        for step in 0..m {
            let holders: Vec<u32> = (0..m as u32)
                .filter(|&c| idx[ptr[c as usize]..ptr[c as usize + 1]].contains(&(step as u32)))
                .collect();
            assert_eq!(t.of(step), holders, "{label}: {name} of step {step}");
        }
    }
}

/// `refactor` into `reused` — arenas dirty from whatever it factored last —
/// against the all-columns elimination loop into fresh ones: the same
/// `Err(row)`, or the same factors arena for arena.
fn check_against_elimination(
    reused: &mut Lu,
    cols: &[Vec<(u32, f64)>],
    m: usize,
    tol: f64,
    label: &str,
) -> Result<(), usize> {
    let (a, basis) = mat(cols, m);
    let mut want = Lu::default();
    let expect = want.refactor_by_elimination(&a, &basis, tol);
    assert_eq!(reused.refactor(&a, &basis, tol), expect, "{label}");
    if expect.is_ok() {
        assert_same_factors(reused, &want, label);
        assert_frame(reused, &a, &basis, label);
    }
    expect
}

/// One-entry columns take a step of their own; everything that step skips
/// — the reach, the scatter, the pivot search, the gather — must come out
/// as the elimination loop leaves it, on bases that mix both kinds of
/// column in every proportion.
#[test]
fn short_steps_match_the_elimination_loop() {
    let mut rng = StdRng::seed_from_u64(0x51_46_13);
    let mut reused = Lu::default();
    let mut factored = 0;
    for trial in 0..60 {
        let m = [3, 9, 40, 64, 65, 130][trial % 6];
        let mut cols = random_cols(&mut rng, m, 2.5 / m as f64);
        // Slack-like columns: a lone ±entry on the diagonal row, for a
        // share of the columns that runs from none to nearly all.
        let share = (trial / 6) as f64 / 9.5;
        for (j, col) in cols.iter_mut().enumerate() {
            if rng.random_range(0.0..1.0) < share {
                let sign = if rng.random_range(0..2) == 0 {
                    1.0
                } else {
                    -1.0
                };
                *col = vec![(j as u32, sign * rng.random_range(0.5..2.0))];
            }
        }
        let label = format!("trial {trial} m {m}");
        if check_against_elimination(&mut reused, &cols, m, 1e-10, &label).is_ok() {
            factored += 1;
        }
    }
    assert!(factored >= 50, "only {factored} of 60 bases factored");
}

#[test]
fn an_all_slack_basis_is_all_short_steps() {
    let m = 70;
    let cols: Vec<Vec<(u32, f64)>> = (0..m).map(|i| vec![((m - 1 - i) as u32, -1.0)]).collect();
    let mut lu = Lu::default();
    check_against_elimination(&mut lu, &cols, m, 1e-10, "all slack").unwrap();
    assert_eq!(lu.nnz(), m);
    assert!(lu.u_diag.iter().all(|&d| d == -1.0));
}

/// The columns a short step must leave to the elimination loop: a lone
/// entry on a row an earlier column already pivoted (structurally
/// singular), and a lone entry no larger than the pivot tolerance. Both
/// end in the loop's own singular exit, naming the same row.
#[test]
fn short_steps_leave_singular_columns_to_the_elimination_loop() {
    let mut lu = Lu::default();
    // Rows 0 and 2 are each claimed twice; row 1 is never pivoted.
    let twice = vec![vec![(0, 1.0)], vec![(0, 2.0)], vec![(0, 1.0), (2, 1.0)]];
    assert_eq!(
        check_against_elimination(&mut lu, &twice, 3, 1e-10, "row claimed twice"),
        Err(1)
    );
    for (tiny, label) in [
        (1e-10, "at the tolerance"),
        (1e-13, "below it"),
        (0.0, "zero"),
    ] {
        let cols = vec![vec![(1, 1.0)], vec![(0, tiny)], vec![(1, 1.0), (2, 3.0)]];
        assert_eq!(
            check_against_elimination(&mut lu, &cols, 3, 1e-10, label),
            Err(0),
            "{label}"
        );
    }
    // Just above the tolerance the same column is a pivot like any other.
    let cols = vec![
        vec![(1, 1.0)],
        vec![(0, 1.0000001e-10)],
        vec![(1, 1.0), (2, 3.0)],
    ];
    check_against_elimination(&mut lu, &cols, 3, 1e-10, "above the tolerance").unwrap();
}
