//! Certificates: a [`Solution`] checked against its [`Problem`] by the
//! mathematics of its status, without trusting the solver that produced it.
//!
//! [`certify`] reads the problem's data and the solution's `x`, `duals` and
//! `ray`, nothing else — no basis, no factorization, no engine state — in
//! one pass over the columns, the rows and the coefficient triplets. Every
//! quantity is computed in the minimization sense (costs and duals of a
//! maximization are negated first), and with the row activities
//! `r = A x` as extra variables bounded by the row bounds:
//!
//! * **Optimal** — `x` is feasible; with reduced costs `d = c − Aᵀy`, each
//!   nonzero `d_j` (and each nonzero row dual `y_i`) points at the bound its
//!   sign asks for — a positive price at the lower bound, a negative one at
//!   the upper — which must be finite (dual feasibility) and where the value
//!   must sit (complementary slackness); and the primal objective equals the
//!   dual one, `Σ d_j·bound_j + Σ y_i·bound_i` (duality gap).
//! * **Infeasible** — Farkas: `duals` is a `y` for which `yᵀ(A x − r)` stays
//!   strictly below zero for every `x` and `r` within their bounds, so no
//!   point has `A x = r`.
//! * **Unbounded** — `x` is feasible and `ray` is a recession direction: it
//!   moves no column, and its image `A·ray` no row, toward a finite bound,
//!   and it improves the objective.
//! * **IterationLimit** — proves nothing, and never verifies.

use crate::is_inf;
use crate::model::{Objective, Problem};
use crate::solution::{Solution, Status};

/// The tolerance every measure of a [`Certificate`] is held to. Each
/// measure is relative to the magnitudes it is computed from, so one value
/// serves every problem scale; the solver's own feasibility and optimality
/// tolerances ([`FEAS_TOL`](crate::FEAS_TOL), [`OPT_TOL`](crate::OPT_TOL))
/// sit an order of magnitude below it.
const TOL: f64 = 1e-6;

/// What [`certify`] measured, and whether it proves the solution's status.
///
/// Residuals must be at most `1e-6` and margins above it; a measure the
/// status does not call for is left at `0.0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Certificate {
    /// True when every measure the solution's status calls for is within
    /// tolerance.
    /// Never true for [`Status::IterationLimit`], nor when `x`, `duals` or
    /// `ray` has the wrong length for the problem.
    pub verified: bool,
    /// Optimal, Unbounded: the largest bound or row violation of `x`
    /// ([`Problem::max_violation`]), relative to 1 + the largest `|x_j|`
    /// or row activity.
    pub primal: f64,
    /// Optimal: the largest reduced cost or row dual whose sign asks for an
    /// infinite bound, relative to 1 + the largest `|c_j|` or `|y_i|`.
    pub dual: f64,
    /// Optimal: the worst complementary pair — over the columns and rows,
    /// the smaller of the relative price (as in `dual`) and the relative
    /// distance of the value from the bound the price asks for (as in
    /// `primal`). A pair violates complementary slackness only when both
    /// are large.
    pub complementarity: f64,
    /// Optimal: the larger of |primal − dual objective| and |reported −
    /// evaluated objective| ([`Problem::eval_objective`]), relative to 1 +
    /// the larger objective magnitude.
    pub gap: f64,
    /// Unbounded: the largest component of the ray (scaled to a largest
    /// component of 1), or of its row image, that moves toward a finite
    /// bound.
    pub ray: f64,
    /// Infeasible: how far the largest value of `yᵀ(A x − r)` over the
    /// bounds stays below zero. Unbounded: the objective improvement along
    /// the scaled ray. Each relative to its largest term; must exceed the
    /// tolerance.
    pub margin: f64,
}

/// Checks `sol` against `p` by the certificate its status calls for (see
/// the module docs). Runs in O(columns + rows + coefficients).
pub fn certify(p: &Problem, sol: &Solution) -> Certificate {
    let mut cert = Certificate {
        verified: false,
        primal: 0.0,
        dual: 0.0,
        complementarity: 0.0,
        gap: 0.0,
        ray: 0.0,
        margin: 0.0,
    };
    let (n, m) = (p.num_cols(), p.num_rows());
    let sign = match p.objective {
        Objective::Minimize => 1.0,
        Objective::Maximize => -1.0,
    };
    match sol.status {
        Status::Optimal if sol.x.len() == n && sol.duals.len() == m => {
            optimal(p, sol, sign, &mut cert);
            cert.verified = cert.primal <= TOL
                && cert.dual <= TOL
                && cert.complementarity <= TOL
                && cert.gap <= TOL;
        }
        Status::Infeasible if sol.duals.len() == m => {
            cert.margin = farkas_margin(p, &sol.duals);
            cert.verified = cert.margin > TOL;
        }
        Status::Unbounded if sol.x.len() == n && sol.ray.len() == n => {
            cert.primal = primal_residual(p, &sol.x).0;
            (cert.ray, cert.margin) = recession(p, &sol.ray, sign);
            cert.verified = cert.primal <= TOL && cert.ray <= TOL && cert.margin > TOL;
        }
        _ => {}
    }
    cert
}

/// The relative primal residual of `x`, with the row activities and the
/// primal scale (1 + the largest `|x_j|` or activity) it was taken against.
fn primal_residual(p: &Problem, x: &[f64]) -> (f64, Vec<f64>, f64) {
    let act = p.row_activities(x);
    let scale = 1.0 + x.iter().chain(&act).fold(0.0, |s: f64, v| s.max(v.abs()));
    (p.max_violation(x) / scale, act, scale)
}

/// Fills the four optimality measures of `cert`.
fn optimal(p: &Problem, sol: &Solution, sign: f64, cert: &mut Certificate) {
    let (primal, act, primal_scale) = primal_residual(p, &sol.x);
    cert.primal = primal;
    let y: Vec<f64> = sol.duals.iter().map(|v| sign * v).collect();
    let mut d: Vec<f64> = p.cols.iter().map(|c| sign * c.cost).collect();
    for &(r, c, v) in &p.entries {
        d[c as usize] -= v * y[r as usize];
    }
    let dual_scale = 1.0
        + (p.cols.iter().map(|c| c.cost.abs()))
            .chain(y.iter().map(|v| v.abs()))
            .fold(0.0, f64::max);

    // Every column and every row (its activity as a variable) is one
    // complementary pair: value, bounds, price.
    let cols = (p.cols.iter().zip(&sol.x).zip(&d)).map(|((c, &x), &d)| (x, c.lower, c.upper, d));
    let rows = (p.rows.iter().zip(&act).zip(&y)).map(|((r, &a), &y)| (a, r.lower, r.upper, y));
    let mut dual_objective = 0.0;
    for (value, lower, upper, price) in cols.chain(rows) {
        // The bound a price holds its value to: a positive one presses
        // toward the lower bound, a negative one toward the upper.
        let bound = if price > 0.0 {
            lower
        } else if price < 0.0 {
            upper
        } else {
            continue;
        };
        let rel_price = price.abs() / dual_scale;
        if is_inf(bound) {
            cert.dual = cert.dual.max(rel_price);
            dual_objective += price * value;
        } else {
            let rel_distance = (value - bound).abs() / primal_scale;
            cert.complementarity = cert.complementarity.max(rel_price.min(rel_distance));
            dual_objective += price * bound;
        }
    }

    let evaluated = p.eval_objective(&sol.x);
    let dual_objective = p.obj_offset + sign * dual_objective;
    let scale = 1.0 + evaluated.abs().max(dual_objective.abs());
    cert.gap = (evaluated - dual_objective)
        .abs()
        .max((sol.objective - evaluated).abs())
        / scale;
}

/// The Farkas margin of `y`: minus the largest value of `yᵀ(A x − r)` over
/// the column and row bounds, relative to the largest term of that bound.
/// A term whose coefficient is below the tolerance (relative to the
/// largest `|y_i|`) and whose bound is infinite is taken as zero; any
/// larger coefficient facing an infinite bound makes the margin `−∞`.
fn farkas_margin(p: &Problem, y: &[f64]) -> f64 {
    let ymax = y.iter().fold(0.0, |s: f64, v| s.max(v.abs()));
    let mut g = vec![0.0; p.num_cols()];
    for &(r, c, v) in &p.entries {
        g[c as usize] += v * y[r as usize];
    }
    let cols = p.cols.iter().zip(&g).map(|(c, &k)| (k, c.lower, c.upper));
    let rows = p.rows.iter().zip(y).map(|(r, &y)| (-y, r.lower, r.upper));
    let (mut hi, mut largest) = (0.0, 0.0_f64);
    for (k, lower, upper) in cols.chain(rows) {
        let bound = if k > 0.0 {
            upper
        } else if k < 0.0 {
            lower
        } else {
            continue;
        };
        if !is_inf(bound) {
            hi += k * bound;
            largest = largest.max((k * bound).abs());
        } else if k.abs() > TOL * ymax {
            return f64::NEG_INFINITY;
        }
    }
    if largest > 0.0 {
        -hi / largest
    } else {
        0.0
    }
}

/// The recession residual and the improvement margin of `ray`, scaled to
/// a largest component of 1.
fn recession(p: &Problem, ray: &[f64], sign: f64) -> (f64, f64) {
    let norm = ray.iter().fold(0.0, |s: f64, v| s.max(v.abs()));
    if !(norm > 0.0 && norm.is_finite()) {
        return (f64::INFINITY, 0.0);
    }
    let r: Vec<f64> = ray.iter().map(|v| v / norm).collect();
    let image = p.row_activities(&r);
    let cols = p.cols.iter().zip(&r).map(|(c, &v)| (v, c.lower, c.upper));
    let rows = p
        .rows
        .iter()
        .zip(&image)
        .map(|(b, &v)| (v, b.lower, b.upper));
    let mut residual = 0.0_f64;
    for (v, lower, upper) in cols.chain(rows) {
        if v > 0.0 && !is_inf(upper) {
            residual = residual.max(v);
        } else if v < 0.0 && !is_inf(lower) {
            residual = residual.max(-v);
        }
    }
    let (mut slope, mut largest) = (0.0, 0.0_f64);
    for (c, v) in p.cols.iter().zip(&r) {
        slope += sign * c.cost * v;
        largest = largest.max((c.cost * v).abs());
    }
    let margin = if largest > 0.0 { -slope / largest } else { 0.0 };
    (residual, margin)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve, Col};

    const INF: f64 = f64::INFINITY;

    fn assert_verifies(p: &Problem, sol: &Solution, status: Status) -> Certificate {
        assert_eq!(sol.status, status);
        let cert = certify(p, sol);
        assert!(cert.verified, "{cert:?}");
        cert
    }

    fn assert_rejects(p: &Problem, sol: &Solution, what: &str) {
        let cert = certify(p, sol);
        assert!(!cert.verified, "{what}: {cert:?}");
    }

    /// min x + 2y + z + 3w over x ∈ [0, 4], y ≥ 0, z free, w = 2, with the
    /// range row 3 ≤ x + y ≤ 5, z − x ≥ −1 and z + w ≥ 5: the optimum
    /// x = 3, y = 0, z = 3 holds the range row at its lower bound and
    /// y at its own, each with a price of 1.
    fn mixed() -> (Problem, [Col; 4]) {
        let mut p = Problem::new(Objective::Minimize);
        let x = p.add_col(0.0, 4.0, 1.0);
        let y = p.add_col(0.0, INF, 2.0);
        let z = p.add_col(-INF, INF, 1.0);
        let w = p.add_col(2.0, 2.0, 3.0);
        p.add_row(3.0, 5.0, &[(x, 1.0), (y, 1.0)]);
        p.add_row(-1.0, INF, &[(z, 1.0), (x, -1.0)]);
        p.add_row(5.0, INF, &[(z, 1.0), (w, 1.0)]);
        (p, [x, y, z, w])
    }

    #[test]
    fn an_optimum_with_a_range_row_a_free_and_a_fixed_column_verifies() {
        let (p, [x, y, z, w]) = mixed();
        let sol = solve(&p).unwrap();
        let cert = assert_verifies(&p, &sol, Status::Optimal);
        assert!((sol.objective - 12.0).abs() < 1e-9, "{}", sol.objective);
        assert_eq!(cert.margin, 0.0);
        assert!(sol.ray.is_empty());
        for (col, want) in [(x, 3.0), (y, 0.0), (z, 3.0), (w, 2.0)] {
            assert!((sol.x[col.index()] - want).abs() < 1e-9, "{:?}", sol.x);
        }

        // The same problem maximized negated: prices change sign with the
        // direction, the certificate does not.
        let mut q = p.clone();
        q.objective = Objective::Maximize;
        for col in [x, y, z, w] {
            q.set_cost(col, -p.cost(col));
        }
        assert_verifies(&q, &solve(&q).unwrap(), Status::Optimal);
    }

    #[test]
    fn a_tampered_optimum_is_rejected() {
        let (p, [_, y, _, _]) = mixed();
        let sol = solve(&p).unwrap();
        let priced: Vec<usize> = (0..p.num_rows())
            .filter(|&i| sol.duals[i].abs() > 1e-6)
            .collect();
        assert_eq!(priced, [0, 2], "{:?}", sol.duals);
        for i in priced {
            let mut bad = sol.clone();
            bad.duals[i] = -bad.duals[i];
            assert_rejects(&p, &bad, &format!("dual {i} flipped"));
        }
        // y rests at its lower bound 0 with reduced cost 1.
        let mut bad = sol.clone();
        bad.x[y.index()] += 1e-3;
        assert_rejects(&p, &bad, "x moved off an active bound");
        let mut bad = sol.clone();
        bad.objective += 1e-3;
        assert_rejects(&p, &bad, "objective misreported");
        let mut bad = sol;
        bad.duals.pop();
        assert_rejects(&p, &bad, "duals too short");
    }

    #[test]
    fn an_infeasible_problem_carries_a_farkas_proof() {
        // x ∈ [0, 1] and y ∈ [0, 2] cannot reach x + y ≥ 4; the proof is
        // the same under either direction.
        for objective in [Objective::Minimize, Objective::Maximize] {
            let mut p = Problem::new(objective);
            let x = p.add_col(0.0, 1.0, 1.0);
            let y = p.add_col(0.0, 2.0, -1.0);
            p.add_row(4.0, INF, &[(x, 1.0), (y, 1.0)]);
            let sol = solve(&p).unwrap();
            let cert = assert_verifies(&p, &sol, Status::Infeasible);
            assert!(cert.margin > 0.1, "{cert:?}");
            assert!(sol.ray.is_empty());

            let mut bad = sol;
            for v in &mut bad.duals {
                *v = -*v;
            }
            assert_rejects(&p, &bad, "y negated");
        }
    }

    #[test]
    fn an_unbounded_problem_carries_an_improving_ray() {
        // max x + y subject to x − y ≤ 1 grows along (1, 1) forever.
        let mut p = Problem::new(Objective::Maximize);
        let x = p.add_col(0.0, INF, 1.0);
        let y = p.add_col(0.0, INF, 1.0);
        p.add_row(-INF, 1.0, &[(x, 1.0), (y, -1.0)]);
        let sol = solve(&p).unwrap();
        let cert = assert_verifies(&p, &sol, Status::Unbounded);
        assert!(cert.margin > 0.1, "{cert:?}");

        let mut bad = sol.clone();
        for v in &mut bad.ray {
            *v = -*v;
        }
        assert_rejects(&p, &bad, "ray negated");
        let mut bad = sol;
        bad.ray.fill(0.0);
        assert_rejects(&p, &bad, "zero ray");
    }

    #[test]
    fn an_iteration_limit_never_verifies() {
        let (p, _) = mixed();
        let mut sol = solve(&p).unwrap();
        sol.status = Status::IterationLimit;
        assert_rejects(&p, &sol, "iteration limit");
    }
}
