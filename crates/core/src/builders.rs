//! The one LP skeleton every `Z`-formulation shares, and the table of what
//! tells the formulations apart.
//!
//! Stage 1, Stage 2 and the RET feasibility probe are the same LP — one
//! column per assignment variable plus a trailing `Z`, a row
//! `volume_i − D_i·Z` per job, then the capacity rows — under different
//! costs and bounds. [`build_stage1_problem`] lays that skeleton out
//! once per [`Instance`], [`HeldLp`] keeps it in a [`SolverSession`], and a
//! [`Form`] installed on it is the formulation solved next. The
//! column-generated master ([`CgMaster`](crate::colgen::CgMaster)) has the
//! same shape over its pool columns and reads the same table.

use crate::instance::Instance;
use wavesched_lp::{
    Basis, Col, Objective, Problem, Row, SimplexConfig, Solution, SolveError, SolveStats,
    SolverSession, Status,
};
use wavesched_obs as obs;

/// Which of the paper's formulations an LP currently encodes. Switching
/// forms only rewrites costs and bounds, so every warm start transfers.
/// Every form maximizes, and job rows have lower bound 0 in all of them:
///
/// | form          | `Z` cost | `Z` bounds   | job-row upper | `(job i, slice j)` column cost |
/// |---------------|----------|--------------|---------------|--------------------------------|
/// | `Stage1`      | 1        | `[0, ∞)`     | 0             | 0                              |
/// | `Stage2`      | 0        | `[floor, ∞)` | ∞             | `scale`                        |
/// | `Probe`       | 1        | `[0, 1]`     | ∞             | 0                              |
/// | `QuickFinish` | 0        | `[1, 1]`     | ∞             | `−(j + 1)`                     |
///
/// The monolithic Quick-Finish LP is the one formulation *not* written
/// through this table: `ret.rs::build_subret` has no `Z` column and
/// minimizes, and the pinned `b_final`s come from that LP's vertices, so
/// only the column-generated master encodes `QuickFinish` this way.
#[derive(Debug, Clone)]
pub(crate) enum Form {
    /// Maximize `Z` s.t. per-job volume `= Z·D_i` (paper eqs. 1–5).
    Stage1,
    /// Maximize weighted throughput under the fairness floor (eqs. 7–10
    /// relaxed). `volume_i − D_i·Z >= 0` with a costless `Z >= floor` is the
    /// literal floor `volume_i >= floor·D_i` (lowering `Z` only relaxes the
    /// rows), written so that the Stage-1 optimum `(x*, Z*)` stays feasible
    /// and its basis installs verbatim.
    Stage2 {
        /// `(1-alpha)·Z*`.
        floor: f64,
        /// `1 / Σ D_i`: eq. 7 weighs job `i` by `w_i = D_i`, so after
        /// substituting eq. 8 the objective is total volume / total demand.
        scale: f64,
    },
    /// RET feasibility probe: maximize `Z ∈ [0, 1]` s.t. volume `>= Z·D_i`;
    /// SUB-RET at the same windows is feasible iff `Z* = 1`.
    Probe,
    /// SUB-RET Quick-Finish: minimize `Σ (j+1)·x` (as a maximization of the
    /// negation) s.t. volume `>= D_i` (`Z` pinned to 1).
    QuickFinish,
}

impl Form {
    /// Stage 2 over jobs of normalized `demands`, given Stage 1's `z_star`.
    pub(crate) fn stage2(demands: &[f64], z_star: f64, alpha: f64) -> Form {
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0, 1]");
        let total: f64 = demands.iter().sum();
        Form::Stage2 {
            floor: (1.0 - alpha) * z_star,
            scale: 1.0 / total,
        }
    }

    /// The form's name, for error messages.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Form::Stage1 => "stage 1",
            Form::Stage2 { .. } => "stage 2",
            Form::Probe => "RET probe",
            Form::QuickFinish => "RET quick-finish",
        }
    }

    /// `(Z cost, Z lower, Z upper, job-row upper)`.
    pub(crate) fn z_and_rows(&self) -> (f64, f64, f64, f64) {
        match self {
            Form::Stage1 => (1.0, 0.0, f64::INFINITY, 0.0),
            Form::Stage2 { floor, .. } => (0.0, *floor, f64::INFINITY, f64::INFINITY),
            Form::Probe => (1.0, 0.0, 1.0, f64::INFINITY),
            Form::QuickFinish => (0.0, 1.0, 1.0, f64::INFINITY),
        }
    }

    /// The objective coefficient of a column in `slice`, whichever job
    /// it serves.
    pub(crate) fn cost_of(&self, slice: usize) -> f64 {
        match self {
            Form::Stage1 | Form::Probe => 0.0,
            Form::Stage2 { scale, .. } => *scale,
            Form::QuickFinish => -((slice + 1) as f64),
        }
    }
}

/// Hands back an optimal `sol`; any other status is a solver breakdown
/// worth surfacing: `Z = 0, x = 0` is always Stage-1 feasible, and with
/// `z_star` from Stage 1 so are the Stage-2 floors.
pub(crate) fn expect_optimal(sol: Solution, what: &str) -> Result<Solution, SolveError> {
    if sol.status == Status::Optimal {
        return Ok(sol);
    }
    let status = sol.status;
    Err(SolveError::Numerical(format!(
        "{what} terminated with status {status}"
    )))
}

/// The LP of one [`Instance`], held in a [`SolverSession`] for every form
/// solved over it — Stage 1, then Stage 2, or the RET probe — so an
/// instance pays for one `Problem`, one standardization and one engine.
///
/// Layout, by [`build_stage1_problem`]: column `v` is assignment variable
/// `v` of `inst.vars`, column `inst.vars.len()` is `Z`, row `i` is job `i`'s
/// volume row. Every method takes the instance the LP was opened over.
pub(crate) struct HeldLp {
    /// `None` over an instance without jobs: nothing to lay out, and every
    /// form's optimum is the empty schedule.
    session: Option<SolverSession>,
}

impl HeldLp {
    /// Builds the LP of `inst` (in Stage-1 form) and opens a session on it.
    pub(crate) fn open(inst: &Instance, cfg: &SimplexConfig) -> Result<Self, SolveError> {
        if inst.num_jobs() == 0 {
            return Ok(HeldLp { session: None });
        }
        let build_span = obs::span("build");
        let p = build_stage1_problem(inst);
        drop(build_span);
        let session = Some(SolverSession::with_config(&p, cfg)?);
        Ok(HeldLp { session })
    }

    /// Writes `form` onto the LP: exactly the costs and bounds a `Problem`
    /// built in that form would standardize to.
    pub(crate) fn install(&mut self, inst: &Instance, form: &Form) {
        let Some(session) = &mut self.session else {
            return;
        };
        let (z_cost, z_lo, z_hi, row_hi) = form.z_and_rows();
        let z = Col::from_index(inst.vars.len());
        session.set_cost(z, z_cost);
        session.set_col_bounds(z, z_lo, z_hi);
        for job in 0..inst.num_jobs() {
            session.set_row_bounds(Row::from_index(job), 0.0, row_hi);
        }
        for (var, _, _, slice) in inst.vars.iter() {
            session.set_cost(Col::from_index(var), form.cost_of(slice));
        }
    }

    /// Installs `form`, offers `start` and solves to optimality; `what`
    /// names the solve in the error any other status becomes.
    ///
    /// `start` goes in as a *snapshot* ([`SolverSession::warm_start_from`]):
    /// the solve installs and refactors it — the rung a fresh session of the
    /// same LP takes from that basis — whatever the session solved before.
    /// An optimum always carries the next snapshot to offer; one that came
    /// back without is the breakdown it would be, never left to enter the
    /// next form on whatever state the session carries.
    pub(crate) fn solve(
        &mut self,
        inst: &Instance,
        form: &Form,
        start: Option<&Basis>,
        what: &str,
    ) -> Result<Solution, SolveError> {
        self.install(inst, form);
        let Some(session) = &mut self.session else {
            // No jobs, no LP: `max z_cost · Z` over `Z`'s bounds alone.
            let (z_cost, _, z_hi, _) = form.z_and_rows();
            return Ok(Solution {
                status: Status::Optimal,
                objective: if z_cost > 0.0 { z_cost * z_hi } else { 0.0 },
                x: Vec::new(),
                duals: Vec::new(),
                ray: Vec::new(),
                basis: None,
                stats: SolveStats::default(),
            });
        };
        if let Some(basis) = start {
            session.warm_start_from(basis.clone());
        }
        let sol = expect_optimal(session.solve()?, what)?;
        if sol.basis.is_none() {
            return Err(SolveError::Numerical(format!("{what}: no optimal basis")));
        }
        Ok(sol)
    }

    /// Gives up the session — to RET, which re-aims one probe LP by column
    /// bounds through many solves. `None` over no jobs.
    pub(crate) fn into_session(self) -> Option<SolverSession> {
        self.session
    }
}

/// Lays out the LP of `inst` in Stage-1 form (the only code that does).
/// Every row is written through one coefficient buffer, so a build
/// allocates two scratch vectors, not one per row.
pub fn build_stage1_problem(inst: &Instance) -> Problem {
    let mut p = Problem::new(Objective::Maximize);
    let (mut cols, mut coeffs) = (Vec::new(), Vec::new());
    add_assignment_cols(&mut p, inst, &mut cols);
    let z = p.add_col(0.0, f64::INFINITY, 1.0); // maximize Z

    // Eq. 2: sum_{p,j} x·LEN(j) = Z · D_i for every job, with LEN(j) = 1.
    for i in 0..inst.num_jobs() {
        job_volume_coeffs(inst, &cols, i, &mut coeffs);
        coeffs.push((z, -inst.demands[i]));
        p.add_row(0.0, 0.0, &coeffs);
    }
    add_capacity_rows(&mut p, inst, &cols, &mut coeffs);
    p
}

/// Adds one nonnegative column per decision variable, upper-bounded by the
/// bottleneck wavelength count of its path (a valid implied bound that
/// shrinks the search). Costs start at zero. Fills `cols` (cleared first)
/// with the columns, aligned with the instance's `VarMap`.
pub(crate) fn add_assignment_cols(p: &mut Problem, inst: &Instance, cols: &mut Vec<Col>) {
    cols.clear();
    cols.reserve(inst.vars.len());
    for (job, paths) in inst.paths.iter().enumerate() {
        let window = inst.vars.window(job);
        for path in paths {
            let bottleneck = path.bottleneck_wavelengths(&inst.graph) as f64;
            cols.extend(window.clone().map(|_| p.add_col(0.0, bottleneck, 0.0)));
        }
    }
}

/// Adds the capacity rows (eq. 3): for every (edge, slice) pair crossed by
/// at least one allowed path, the total assignment is at most the edge's
/// wavelength count. Rows are added in the capacity index's order —
/// ascending (edge, slice), each row's columns in variable order — which
/// fixes every capacity row's index.
pub(crate) fn add_capacity_rows(
    p: &mut Problem,
    inst: &Instance,
    cols: &[Col],
    scratch: &mut Vec<(Col, f64)>,
) {
    for ((e, _), vars) in inst.capacity_groups.iter() {
        let cap = inst.graph.wavelengths(wavesched_net::EdgeId(e)) as f64;
        scratch.clear();
        scratch.extend(vars.iter().map(|&v| (cols[v as usize], 1.0)));
        p.add_row(f64::NEG_INFINITY, cap, scratch);
    }
}

/// Fills `out` (cleared first) with the coefficients of
/// `sum_{p,j} x_i(p,j)` for one job: the volume, every slice being a unit.
pub(crate) fn job_volume_coeffs(
    inst: &Instance,
    cols: &[Col],
    job: usize,
    out: &mut Vec<(Col, f64)>,
) {
    out.clear();
    out.extend(inst.vars.job_vars(job).map(|(var, _)| (cols[var], 1.0)));
}

#[cfg(test)]
mod tests {
    //! A form installed is the LP built: for every form the held LP serves,
    //! solving it installed on a session — fresh, or one that already solved
    //! Stage 1 — is bit for bit, counter for counter, the one-shot solve of the
    //! `Problem` written out by hand. The hand-written builders are the two the
    //! form table replaced (`stage2.rs`'s and `ret.rs`'s), kept here as the
    //! oracle, and every one-shot optimum is held to its certificate.

    use super::*;
    use crate::instance::InstanceConfig;
    use std::ops::Range;
    use wavesched_lp::certify;
    use wavesched_net::{abilene14, waxman_network, Graph, PathSet, WaxmanConfig};
    use wavesched_workload::{Job, JobId, WorkloadConfig, WorkloadGenerator};

    /// Stage 2 as `stage2.rs` built it before the form table, under the
    /// paper's weights `w_i = D_i`.
    fn stage2_problem(inst: &Instance, z_star: f64, alpha: f64) -> Problem {
        let weight = |i: usize| inst.demands[i];
        let total_weight: f64 = (0..inst.num_jobs()).map(weight).sum();
        let mut p = Problem::new(Objective::Maximize);
        let (mut cols, mut coeffs) = (Vec::new(), Vec::new());
        add_assignment_cols(&mut p, inst, &mut cols);
        let z = p.add_col((1.0 - alpha) * z_star, f64::INFINITY, 0.0);
        for (var, job, _, _) in inst.vars.iter() {
            let scale = weight(job) / inst.demands[job];
            p.set_cost(cols[var], scale / total_weight);
        }
        for i in 0..inst.num_jobs() {
            job_volume_coeffs(inst, &cols, i, &mut coeffs);
            coeffs.push((z, -inst.demands[i]));
            p.add_row(0.0, f64::INFINITY, &coeffs);
        }
        add_capacity_rows(&mut p, inst, &cols, &mut coeffs);
        p
    }

    /// The RET feasibility probe as `ret.rs` built it before the form table.
    fn probe_problem(inst: &Instance) -> Problem {
        let mut p = Problem::new(Objective::Maximize);
        let (mut cols, mut coeffs) = (Vec::new(), Vec::new());
        add_assignment_cols(&mut p, inst, &mut cols);
        let z = p.add_col(0.0, 1.0, 1.0);
        for i in 0..inst.num_jobs() {
            job_volume_coeffs(inst, &cols, i, &mut coeffs);
            coeffs.push((z, -inst.demands[i]));
            p.add_row(0.0, f64::INFINITY, &coeffs);
        }
        add_capacity_rows(&mut p, inst, &cols, &mut coeffs);
        p
    }

    /// What a probe at a trial window does to the columns, on either side:
    /// `(column, upper bound)` with out-of-window variables fixed to zero.
    fn window_bounds(inst: &Instance, windows: &[Range<usize>]) -> Vec<(Col, f64)> {
        (inst.vars.iter())
            .map(|(var, job, path, slice)| {
                let open = windows[job].contains(&slice);
                let cap = inst.paths[job][path].bottleneck_wavelengths(&inst.graph) as f64;
                (Col::from_index(var), if open { cap } else { 0.0 })
            })
            .collect()
    }

    /// The one-shot solve of `p` from `start` — a fresh session offered the
    /// basis as a snapshot — certified optimal.
    fn one_shot(p: &Problem, cfg: &SimplexConfig, start: Option<&Basis>) -> Solution {
        let mut session = SolverSession::with_config(p, cfg).unwrap();
        if let Some(basis) = start {
            session.warm_start_from(basis.clone());
        }
        let sol = session.solve().unwrap();
        let cert = certify(p, &sol);
        assert!(sol.status == Status::Optimal && cert.verified, "{cert:?}");
        sol
    }

    fn assert_same_solve(held: &Solution, oracle: &Solution, what: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(held.status, oracle.status, "{what}: status");
        assert_eq!(
            held.objective.to_bits(),
            oracle.objective.to_bits(),
            "{what}: objective {} vs {}",
            held.objective,
            oracle.objective
        );
        assert_eq!(bits(&held.x), bits(&oracle.x), "{what}: x");
        assert_eq!(bits(&held.duals), bits(&oracle.duals), "{what}: duals");
        assert_eq!(held.basis, oracle.basis, "{what}: basis");
        assert_eq!(held.stats, oracle.stats, "{what}: SolveStats");
    }

    /// Runs the whole matrix over one instance.
    fn check_forms(inst: &Instance, name: &str) {
        let cfg = SimplexConfig::default();
        let open = || HeldLp::open(inst, &cfg).unwrap();
        let solved_stage1 = || {
            let mut lp = open();
            let sol = lp.solve(inst, &Form::Stage1, None, "stage 1").unwrap();
            (lp, sol)
        };

        // Stage 1 itself: the LP as built, and the basis every start below is.
        let s1 = one_shot(&build_stage1_problem(inst), &cfg, None);
        assert_same_solve(&solved_stage1().1, &s1, &format!("{name}: stage 1"));
        let (z_star, s1_basis) = (s1.objective, s1.basis.as_ref());

        for alpha in [0.1, 0.0, 1.0] {
            let what = format!("{name}: stage 2, alpha {alpha}");
            let p = stage2_problem(inst, z_star, alpha);
            let form = Form::stage2(&inst.demands, z_star, alpha);
            for start in [None, s1_basis] {
                let oracle = one_shot(&p, &cfg, start);
                let fresh = open().solve(inst, &form, start, "stage 2").unwrap();
                let what = format!("{what}, fresh, started {}", start.is_some());
                assert_same_solve(&fresh, &oracle, &what);
            }
            let oracle = one_shot(&p, &cfg, s1_basis);
            let after = (solved_stage1().0)
                .solve(inst, &form, s1_basis, "stage 2")
                .unwrap();
            assert_same_solve(&after, &oracle, &format!("{what}, after stage 1"));
        }

        // The probe at two trial windows: every job's whole window, and its
        // first half (at least one slice of a nonempty one).
        let whole: Vec<Range<usize>> = (0..inst.num_jobs()).map(|i| inst.vars.window(i)).collect();
        let half = whole
            .iter()
            .map(|w| w.start..w.start + w.len().div_ceil(2))
            .collect();
        for windows in [whole, half] {
            let what = format!("{name}: probe over {windows:?}");
            let bounds = window_bounds(inst, &windows);
            let mut p = probe_problem(inst);
            for &(col, upper) in &bounds {
                p.set_col_bounds(col, 0.0, upper);
            }
            let held = |mut lp: HeldLp, start: Option<&Basis>| {
                lp.install(inst, &Form::Probe);
                let mut session = lp.into_session().expect("the instance has jobs");
                for &(col, upper) in &bounds {
                    session.set_col_bounds(col, 0.0, upper);
                }
                if let Some(basis) = start {
                    session.warm_start_from(basis.clone());
                }
                session.solve().unwrap()
            };
            for start in [None, s1_basis] {
                let oracle = one_shot(&p, &cfg, start);
                assert_same_solve(&held(open(), start), &oracle, &format!("{what}, fresh"));
            }
            let oracle = one_shot(&p, &cfg, s1_basis);
            let after = held(solved_stage1().0, s1_basis);
            assert_same_solve(&after, &oracle, &format!("{what}, after stage 1"));
        }
    }

    fn instance(graph: &Graph, jobs: &[Job], w: u32) -> Instance {
        let cfg = InstanceConfig::paper(w);
        Instance::build(graph, jobs, &cfg, &mut PathSet::new(cfg.paths_per_job))
    }

    fn random_jobs(graph: &Graph, num_jobs: usize, seed: u64) -> Vec<Job> {
        WorkloadGenerator::new(WorkloadConfig {
            num_jobs,
            seed,
            window: (4.0, 10.0),
            ..Default::default()
        })
        .generate(graph)
    }

    #[test]
    fn forms_on_abilene() {
        let (g, _) = abilene14(2);
        check_forms(&instance(&g, &random_jobs(&g, 12, 21), 2), "abilene");
    }

    #[test]
    fn forms_on_waxman() {
        let g = waxman_network(&WaxmanConfig {
            nodes: 20,
            link_pairs: 40,
            wavelengths: 2,
            alpha: 0.15,
            seed: 11,
        });
        check_forms(&instance(&g, &random_jobs(&g, 15, 5), 2), "waxman");
    }

    #[test]
    fn forms_on_degenerate_shapes() {
        // A job with no path: node 2 is isolated, so job 1's volume row is
        // `−D·Z` alone and forces `Z = 0`.
        let mut g = Graph::new();
        let ns = g.add_nodes(3);
        g.add_link_pair(ns[0], ns[1], 2);
        let routed = Job::new(JobId(0), 0.0, ns[0], ns[1], 150.0, 0.0, 4.0);
        let stranded = Job::new(JobId(1), 0.0, ns[0], ns[2], 150.0, 0.0, 4.0);
        check_forms(&instance(&g, &[routed.clone(), stranded], 2), "no path");

        // An empty window: no slice fits in [0.2, 0.8], so the job has paths
        // but no variable.
        let squeezed = Job::new(JobId(1), 0.0, ns[0], ns[1], 10.0, 0.2, 0.8);
        check_forms(&instance(&g, &[routed, squeezed], 2), "empty window");
    }

    #[test]
    fn no_jobs_no_lp() {
        let (g, _) = abilene14(2);
        let inst = instance(&g, &[], 2);
        let mut lp = HeldLp::open(&inst, &SimplexConfig::default()).unwrap();
        let s1 = lp.solve(&inst, &Form::Stage1, None, "stage 1").unwrap();
        assert!(s1.objective.is_infinite() && s1.x.is_empty() && s1.basis.is_none());
        let form = Form::stage2(&inst.demands, s1.objective, 0.1);
        let s2 = lp.solve(&inst, &form, None, "stage 2").unwrap();
        assert_eq!((s2.objective, s2.stats), (0.0, SolveStats::default()));
        assert!(lp.into_session().is_none());
    }
}
