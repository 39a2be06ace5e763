//! Dense two-phase full-tableau simplex.
//!
//! An intentionally *independent* implementation: the oracle the
//! differential tests compare the sparse revised simplex against. It uses a
//! completely different lowering than `stdform`:
//!
//! * every variable is shifted/split to be nonnegative (`x = l + x'`,
//!   `x = u - x''`, or `x = x⁺ - x⁻` for free variables);
//! * finite upper bounds become explicit constraint rows;
//! * range rows are split into two inequalities;
//! * inequalities get slack columns, right-hand sides are made nonnegative,
//!   and phase 1 minimizes the sum of artificials on a full tableau;
//! * pivoting uses Bland's rule exclusively, so termination is guaranteed.
//!
//! Quadratic per iteration and dense in memory — use only for problems with
//! at most a few hundred rows.

use crate::model::{Objective, Problem};
use crate::solution::{Solution, SolveError, SolveStats, Status};
use crate::{is_inf, FEAS_TOL, OPT_TOL};

/// How each original column was rewritten into nonnegative internals.
#[derive(Debug, Clone, Copy)]
enum Rewrite {
    /// `x = lower + x'[k]`.
    Shift { k: usize, lower: f64 },
    /// `x = upper - x''[k]`.
    Mirror { k: usize, upper: f64 },
    /// `x = x⁺[k] - x⁻[k2]`.
    Split { k: usize, k2: usize },
}

/// Solves `p` with the dense tableau simplex.
///
/// Returns the same [`Solution`] shape as [`crate::solve`]; the `duals`
/// vector is left empty (the oracle is used for primal comparison only).
pub fn solve_dense(p: &Problem) -> Result<Solution, SolveError> {
    let obj_sign = match p.objective {
        Objective::Minimize => 1.0,
        Objective::Maximize => -1.0,
    };

    // ---- Rewrite columns to nonnegative internals. ----
    let mut rewrites = Vec::with_capacity(p.num_cols());
    let mut icost: Vec<f64> = Vec::new(); // internal costs (minimize)
    let mut iupper: Vec<f64> = Vec::new(); // internal finite upper bounds (inf if none)
    let mut const_cost = p.obj_offset;
    for c in &p.cols {
        let l = if is_inf(c.lower) {
            f64::NEG_INFINITY
        } else {
            c.lower
        };
        let u = if is_inf(c.upper) {
            f64::INFINITY
        } else {
            c.upper
        };
        if l > u {
            return Err(SolveError::InvalidModel("crossed bounds".into()));
        }
        let cc = obj_sign * c.cost;
        if l.is_finite() {
            let k = icost.len();
            icost.push(cc);
            iupper.push(if u.is_finite() { u - l } else { f64::INFINITY });
            const_cost += c.cost * l * 1.0; // in original direction
            rewrites.push(Rewrite::Shift { k, lower: l });
        } else if u.is_finite() {
            let k = icost.len();
            icost.push(-cc);
            iupper.push(f64::INFINITY);
            const_cost += c.cost * u;
            rewrites.push(Rewrite::Mirror { k, upper: u });
        } else {
            let k = icost.len();
            icost.push(cc);
            iupper.push(f64::INFINITY);
            let k2 = icost.len();
            icost.push(-cc);
            iupper.push(f64::INFINITY);
            rewrites.push(Rewrite::Split { k, k2 });
        }
    }
    let nvars = icost.len();

    // Dense structural matrix in internal variables, one row per model row,
    // with the constant shift folded into adjusted bounds.
    let mut dense_rows: Vec<Vec<f64>> = vec![vec![0.0; nvars]; p.num_rows()];
    let mut shift: Vec<f64> = vec![0.0; p.num_rows()];
    for &(r, c, v) in &p.entries {
        let r = r as usize;
        match rewrites[c as usize] {
            Rewrite::Shift { k, lower } => {
                dense_rows[r][k] += v;
                shift[r] += v * lower;
            }
            Rewrite::Mirror { k, upper } => {
                dense_rows[r][k] -= v;
                shift[r] += v * upper;
            }
            Rewrite::Split { k, k2 } => {
                dense_rows[r][k] += v;
                dense_rows[r][k2] -= v;
            }
        }
    }

    // ---- Assemble inequality system: rows of (coeffs, rhs, kind). ----
    enum Kind {
        Le,
        Ge,
        Eq,
    }
    let mut sys: Vec<(Vec<f64>, f64, Kind)> = Vec::new();
    for (i, r) in p.rows.iter().enumerate() {
        let lb = if is_inf(r.lower) {
            f64::NEG_INFINITY
        } else {
            r.lower
        };
        let ub = if is_inf(r.upper) {
            f64::INFINITY
        } else {
            r.upper
        };
        if lb > ub {
            return Err(SolveError::InvalidModel("crossed row bounds".into()));
        }
        if lb.is_finite() && ub.is_finite() && (ub - lb).abs() <= f64::EPSILON * lb.abs().max(1.0) {
            sys.push((dense_rows[i].clone(), lb - shift[i], Kind::Eq));
        } else {
            if ub.is_finite() {
                sys.push((dense_rows[i].clone(), ub - shift[i], Kind::Le));
            }
            if lb.is_finite() {
                sys.push((dense_rows[i].clone(), lb - shift[i], Kind::Ge));
            }
        }
    }
    // Finite internal upper bounds as explicit rows.
    for (k, &ub) in iupper.iter().enumerate() {
        if ub.is_finite() {
            let mut row = vec![0.0; nvars];
            row[k] = 1.0;
            sys.push((row, ub, Kind::Le));
        }
    }

    let m = sys.len();
    let nslacks = sys
        .iter()
        .filter(|(_, _, k)| !matches!(k, Kind::Eq))
        .count();
    let mut ncols = nvars + nslacks;
    let mut a: Vec<Vec<f64>> = Vec::with_capacity(m);
    let mut b: Vec<f64> = Vec::with_capacity(m);
    let mut basis: Vec<usize> = Vec::with_capacity(m);

    let mut next_slack = nvars;
    for (coeffs, rhs, kind) in &sys {
        let mut row = coeffs.clone();
        row.extend(std::iter::repeat_n(0.0, nslacks));
        let mut rhs = *rhs;
        let mut slack_sign = match kind {
            Kind::Le => 1.0,
            Kind::Ge => -1.0,
            Kind::Eq => 0.0,
        };
        if rhs < 0.0 {
            for v in &mut row {
                *v = -*v;
            }
            rhs = -rhs;
            slack_sign = -slack_sign;
        }
        let mut init_basic = usize::MAX;
        // `slack_sign` is one of the literals 1.0, -1.0 and 0.0 (an
        // equality row has no slack).
        if slack_sign != 0.0 {
            row[next_slack] = slack_sign;
            if slack_sign > 0.0 {
                init_basic = next_slack; // positive slack can start basic
            }
            next_slack += 1;
        }
        a.push(row);
        b.push(rhs);
        basis.push(init_basic);
    }
    // Artificials for rows that still lack a basic variable.
    let mut art_cols: Vec<usize> = Vec::new();
    for i in 0..m {
        if basis[i] == usize::MAX {
            for row in a.iter_mut() {
                row.push(0.0);
            }
            a[i][ncols] = 1.0;
            basis[i] = ncols;
            art_cols.push(ncols);
            ncols += 1;
        }
    }
    let nall = ncols;
    let first_art = nall - art_cols.len();

    let mut stats = SolveStats::default();

    // ---- Phase 1 ----
    if !art_cols.is_empty() {
        let mut c1 = vec![0.0; nall];
        for &j in &art_cols {
            c1[j] = 1.0;
        }
        let status = tableau_simplex(&mut a, &mut b, &mut basis, &c1, first_art, &mut stats);
        if status == Status::IterationLimit {
            return Ok(dense_solution(
                Status::IterationLimit,
                p,
                &rewrites,
                &[],
                const_cost,
                stats,
            ));
        }
        let infeas: f64 = basis
            .iter()
            .zip(&b)
            .filter(|(&j, _)| j >= first_art)
            .map(|(_, &v)| v)
            .sum();
        if infeas > FEAS_TOL.max(1e-9 * m as f64) {
            return Ok(dense_solution(
                Status::Infeasible,
                p,
                &rewrites,
                &[],
                const_cost,
                stats,
            ));
        }
        // Pivot basic artificials out where possible (degenerate rows).
        for i in 0..m {
            if basis[i] >= first_art {
                if let Some(j) = (0..first_art).find(|&j| a[i][j].abs() > 1e-9) {
                    pivot(&mut a, &mut b, &mut basis, i, j);
                }
                // If no pivot exists the row is redundant; the artificial
                // stays basic at 0 and is frozen below.
            }
        }
    }

    // ---- Phase 2 ----
    let mut c2 = vec![0.0; nall];
    c2[..nvars].copy_from_slice(&icost);
    let status = tableau_simplex(&mut a, &mut b, &mut basis, &c2, first_art, &mut stats);

    // Extract internal solution.
    let mut xi = vec![0.0; nall];
    for (i, &j) in basis.iter().enumerate() {
        xi[j] = b[i];
    }
    Ok(dense_solution(status, p, &rewrites, &xi, const_cost, stats))
}

/// Runs Bland-rule simplex on the tableau with cost vector `c`, never
/// letting columns `>= first_art` (artificials) re-enter.
fn tableau_simplex(
    a: &mut [Vec<f64>],
    b: &mut [f64],
    basis: &mut [usize],
    c: &[f64],
    first_art: usize,
    stats: &mut SolveStats,
) -> Status {
    let m = a.len();
    let nall = c.len();
    let max_iters = 20_000 + 200 * (m as u64 + nall as u64);
    loop {
        if stats.iterations >= max_iters {
            return Status::IterationLimit;
        }
        // Reduced costs: d_j = c_j - c_B' B^{-1} a_j. The tableau already
        // stores B^{-1}A, so d_j = c_j - sum_i c_{B(i)} a[i][j].
        let mut entering = None;
        'cols: for j in 0..nall {
            if j >= first_art || basis.contains(&j) {
                continue;
            }
            let mut d = c[j];
            for i in 0..m {
                let cb = c[basis[i]];
                if cb != 0.0 {
                    d -= cb * a[i][j];
                }
            }
            if d < -OPT_TOL {
                entering = Some(j); // Bland: first improving index
                break 'cols;
            }
        }
        let Some(q) = entering else {
            return Status::Optimal;
        };
        // Ratio test (Bland: smallest basic index among ties).
        let mut leave: Option<(usize, f64)> = None;
        for i in 0..m {
            if a[i][q] > 1e-9 {
                let t = b[i] / a[i][q];
                match leave {
                    None => leave = Some((i, t)),
                    Some((li, lt)) => {
                        if t < lt - 1e-12 || (t < lt + 1e-12 && basis[i] < basis[li]) {
                            leave = Some((i, t));
                        }
                    }
                }
            }
        }
        let Some((r, t)) = leave else {
            return Status::Unbounded;
        };
        if t <= 1e-12 {
            stats.degenerate_pivots += 1;
        }
        pivot(a, b, basis, r, q);
        stats.iterations += 1;
    }
}

/// Gauss-Jordan pivot on tableau element `(r, q)`.
fn pivot(a: &mut [Vec<f64>], b: &mut [f64], basis: &mut [usize], r: usize, q: usize) {
    let m = a.len();
    let piv = a[r][q];
    let inv = 1.0 / piv;
    for v in a[r].iter_mut() {
        *v *= inv;
    }
    b[r] *= inv;
    for i in 0..m {
        if i != r {
            let f = a[i][q];
            if f != 0.0 {
                // Row operation: row_i -= f * row_r.
                let (head, tail) = if i < r {
                    let (h, t) = a.split_at_mut(r);
                    (&mut h[i], &t[0])
                } else {
                    let (h, t) = a.split_at_mut(i);
                    (&mut t[0], &h[r])
                };
                for (x, y) in head.iter_mut().zip(tail.iter()) {
                    *x -= f * y;
                }
                b[i] -= f * b[r];
            }
        }
    }
    basis[r] = q;
}

fn dense_solution(
    status: Status,
    p: &Problem,
    rewrites: &[Rewrite],
    xi: &[f64],
    const_cost: f64,
    stats: SolveStats,
) -> Solution {
    let mut x = vec![0.0; p.num_cols()];
    if !xi.is_empty() {
        for (c, rw) in rewrites.iter().enumerate() {
            x[c] = match *rw {
                Rewrite::Shift { k, lower } => lower + xi[k],
                Rewrite::Mirror { k, upper } => upper - xi[k],
                Rewrite::Split { k, k2 } => xi[k] - xi[k2],
            };
        }
    } else {
        // No iterate available (infeasible/limit before phase 2): report the
        // resting point implied by the rewrites.
        for (c, rw) in rewrites.iter().enumerate() {
            x[c] = match *rw {
                Rewrite::Shift { lower, .. } => lower,
                Rewrite::Mirror { upper, .. } => upper,
                Rewrite::Split { .. } => 0.0,
            };
        }
    }
    let _ = const_cost;
    let objective = if status == Status::Optimal {
        p.eval_objective(&x)
    } else {
        f64::NAN
    };
    Solution {
        status,
        objective,
        x,
        duals: Vec::new(),
        basis: None,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Objective, Problem};

    fn near(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "expected {b}, got {a}");
    }

    #[test]
    fn simple_max() {
        let mut p = Problem::new(Objective::Maximize);
        let x = p.add_col(0.0, f64::INFINITY, 3.0);
        let y = p.add_col(0.0, f64::INFINITY, 2.0);
        p.add_row(f64::NEG_INFINITY, 4.0, &[(x, 1.0), (y, 1.0)]);
        p.add_row(f64::NEG_INFINITY, 6.0, &[(x, 1.0), (y, 3.0)]);
        let s = solve_dense(&p).unwrap();
        assert_eq!(s.status, Status::Optimal);
        near(s.objective, 12.0);
    }

    #[test]
    fn equalities() {
        let mut p = Problem::new(Objective::Minimize);
        let x = p.add_col(0.0, f64::INFINITY, 1.0);
        let y = p.add_col(0.0, f64::INFINITY, 1.0);
        p.add_row(3.0, 3.0, &[(x, 1.0), (y, 1.0)]);
        p.add_row(1.0, 1.0, &[(x, 1.0), (y, -1.0)]);
        let s = solve_dense(&p).unwrap();
        assert_eq!(s.status, Status::Optimal);
        near(s.objective, 3.0);
        near(s.x[0], 2.0);
        near(s.x[1], 1.0);
    }

    #[test]
    fn infeasible() {
        let mut p = Problem::new(Objective::Minimize);
        let x = p.add_col(0.0, 1.0, 1.0);
        p.add_row(5.0, f64::INFINITY, &[(x, 1.0)]);
        let s = solve_dense(&p).unwrap();
        assert_eq!(s.status, Status::Infeasible);
    }

    #[test]
    fn unbounded() {
        let mut p = Problem::new(Objective::Maximize);
        let _x = p.add_col(0.0, f64::INFINITY, 1.0);
        let s = solve_dense(&p).unwrap();
        assert_eq!(s.status, Status::Unbounded);
    }

    #[test]
    fn mirrored_and_free_vars() {
        // min x + y with x <= 3 (no lower), y free, x + y >= 1, y >= -2 via row.
        let mut p = Problem::new(Objective::Minimize);
        let x = p.add_col(f64::NEG_INFINITY, 3.0, 1.0);
        let y = p.add_col(f64::NEG_INFINITY, f64::INFINITY, 1.0);
        p.add_row(1.0, f64::INFINITY, &[(x, 1.0), (y, 1.0)]);
        p.add_row(-2.0, f64::INFINITY, &[(y, 1.0)]);
        let s = solve_dense(&p).unwrap();
        assert_eq!(s.status, Status::Optimal);
        near(s.objective, 1.0); // x + y = 1 is binding
    }

    #[test]
    fn range_row_both_sides() {
        let mut p = Problem::new(Objective::Maximize);
        let x = p.add_col(0.0, 10.0, 1.0);
        p.add_row(2.0, 5.0, &[(x, 1.0)]);
        let s = solve_dense(&p).unwrap();
        near(s.objective, 5.0);
    }

    #[test]
    fn negative_rhs_rows() {
        // min -x with  -x >= -3  (x <= 3)
        let mut p = Problem::new(Objective::Minimize);
        let x = p.add_col(0.0, f64::INFINITY, -1.0);
        p.add_row(-3.0, f64::INFINITY, &[(x, -1.0)]);
        let s = solve_dense(&p).unwrap();
        assert_eq!(s.status, Status::Optimal);
        near(s.objective, -3.0);
        near(s.x[0], 3.0);
    }
}
