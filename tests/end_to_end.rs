//! End-to-end integration tests across all crates: topology generation →
//! workload → instance → two-stage pipeline → LPDAR, plus RET and the
//! controller/simulator loop.

use wavesched::core::instance::{Instance, InstanceConfig};
use wavesched::core::pipeline::max_throughput_pipeline;
use wavesched::core::ret::{solve_ret, RetConfig};
use wavesched::net::{abilene20, waxman_network, PathSet, WaxmanConfig};
use wavesched::sim::{run_simulation, SimConfig};
use wavesched::workload::{ArrivalModel, WorkloadConfig, WorkloadGenerator};

fn waxman_small(w: u32, seed: u64) -> wavesched::net::Graph {
    waxman_network(&WaxmanConfig {
        nodes: 30,
        link_pairs: 60,
        wavelengths: w,
        alpha: 0.15,
        seed,
    })
}

#[test]
fn pipeline_on_random_network() {
    let w = 2;
    let g = waxman_small(w, 3);
    let jobs = WorkloadGenerator::new(WorkloadConfig {
        num_jobs: 40,
        seed: 17,
        window: (4.0, 10.0),
        ..Default::default()
    })
    .generate(&g);
    let cfg = InstanceConfig::paper(w);
    let mut ps = PathSet::new(cfg.paths_per_job);
    let inst = Instance::build(&g, &jobs, &cfg, &mut ps);

    let r = max_throughput_pipeline(&inst, 0.1).expect("pipeline");
    assert!(r.z_star > 0.0);
    // Ordering of the three solutions.
    assert!(r.lpd_throughput <= r.lpdar_throughput + 1e-9);
    // Feasibility and integrality of the heuristic outputs.
    assert!(r.lpd.is_integral(1e-9));
    assert!(r.lpdar.is_integral(1e-9));
    assert!(r.lp.max_capacity_violation(&inst) < 1e-6);
    assert!(r.lpd.max_capacity_violation(&inst) < 1e-9);
    assert!(r.lpdar.max_capacity_violation(&inst) < 1e-9);
    // Fairness floor honored by the fractional stage-2 solution.
    for i in 0..inst.num_jobs() {
        assert!(
            r.lp.throughput(&inst, i) >= 0.9 * r.z_star - 1e-5,
            "job {i} below fairness floor"
        );
    }
}

#[test]
fn z_star_invariant_under_wavelength_split() {
    // Fig. 1's sweep holds link capacity constant: splitting 20 Gbps into
    // more wavelengths scales demands and capacities together, so the
    // fractional Z* must not change.
    let jobs_cfg = WorkloadConfig {
        num_jobs: 25,
        seed: 5,
        window: (4.0, 10.0),
        ..Default::default()
    };
    let mut z_values = Vec::new();
    for &w in &[2u32, 8, 32] {
        let g = waxman_small(w, 9);
        let jobs = WorkloadGenerator::new(jobs_cfg.clone()).generate(&g);
        let cfg = InstanceConfig::paper(w);
        let mut ps = PathSet::new(cfg.paths_per_job);
        let inst = Instance::build(&g, &jobs, &cfg, &mut ps);
        let r = wavesched::core::stage1::solve_stage1(&inst).expect("stage1");
        z_values.push(r.z_star);
    }
    for w in z_values.windows(2) {
        assert!(
            (w[0] - w[1]).abs() < 1e-4 * w[0].abs().max(1.0),
            "Z* changed under capacity-constant wavelength split: {z_values:?}"
        );
    }
}

#[test]
fn ret_on_abilene() {
    let w = 2;
    let (g, _) = abilene20(w);
    let jobs = WorkloadGenerator::new(WorkloadConfig {
        num_jobs: 15,
        seed: 23,
        size_gb: (50.0, 100.0),
        window: (3.0, 6.0),
        ..Default::default()
    })
    .generate(&g);
    let cfg = InstanceConfig::paper(w);
    let r = solve_ret(&g, &jobs, &cfg, &RetConfig::default())
        .expect("solver ok")
        .expect("extension exists");
    assert_eq!(r.lpdar_fraction_finished(), 1.0);
    assert!(r.lpd_fraction_finished() <= r.lpdar_fraction_finished());
    assert!(r.b_final >= r.b_lp);
    assert!(r.lpdar.max_capacity_violation(&r.instance) < 1e-9);
    // Average end times exist and LPDAR's is not absurdly above LP's.
    let lp_t = r.lp_avg_end_time().unwrap();
    let heur_t = r.lpdar_avg_end_time().unwrap();
    assert!(
        heur_t >= lp_t - 1e-9,
        "integrality cannot speed things up on average"
    );
}

#[test]
fn simulation_closes_the_loop() {
    let (g, _) = abilene20(4);
    let jobs = WorkloadGenerator::new(WorkloadConfig {
        num_jobs: 12,
        seed: 31,
        size_gb: (10.0, 80.0),
        arrival: ArrivalModel::Poisson { rate: 1.0 },
        window: (8.0, 16.0),
        ..Default::default()
    })
    .generate(&g);
    let cfg = SimConfig::paper(4);
    let report = run_simulation(&g, &jobs, &cfg).expect("simulation");
    assert!(report.totals.invocations >= 1);
    assert!(report.totals.volume_moved > 0.0);
    assert!(report.totals.volume_moved <= report.totals.volume_requested + 1e-6);
    assert!(report.completion_rate() > 0.5);
    // Every job has a definite outcome entry.
    assert_eq!(report.outcomes.len(), jobs.len());
}

#[test]
fn multi_seed_determinism() {
    // Same seeds end to end => byte-identical results.
    let run = || {
        let g = waxman_small(4, 77);
        let jobs = WorkloadGenerator::new(WorkloadConfig {
            num_jobs: 20,
            seed: 88,
            ..Default::default()
        })
        .generate(&g);
        let cfg = InstanceConfig::paper(4);
        let mut ps = PathSet::new(cfg.paths_per_job);
        let inst = Instance::build(&g, &jobs, &cfg, &mut ps);
        let r = max_throughput_pipeline(&inst, 0.1).expect("pipeline");
        (r.z_star, r.lp_throughput, r.lpdar.x.clone())
    };
    let a = run();
    let b = run();
    assert_eq!(a.0.to_bits(), b.0.to_bits());
    assert_eq!(a.1.to_bits(), b.1.to_bits());
    assert_eq!(a.2, b.2);
}

/// FNV-1a over a graph's edge list, `(src, dst)` in edge order.
fn edge_list_fnv1a(g: &wavesched::net::Graph) -> u64 {
    g.edge_ids()
        .flat_map(|e| [g.src(e).0, g.dst(e).0])
        .flat_map(u32::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// The Waxman topologies every figure and benchmark digest is built on,
/// pinned edge for edge: a generator change that would move those digests
/// fails here first.
#[test]
fn waxman_topologies_are_pinned() {
    let paper = waxman_network(&WaxmanConfig::paper_default(42));
    let big = waxman_network(&WaxmanConfig {
        nodes: 1000,
        link_pairs: 2000,
        wavelengths: 2,
        alpha: 0.15,
        seed: 42,
    });
    for (what, g, edges, hash) in [
        ("paper_default(42)", &paper, 400, 0xee0c_890e_9237_d1b5_u64),
        ("1000 nodes / 2000 pairs", &big, 4000, 0xcf7c_2957_7426_ed11),
    ] {
        let got = (g.num_edges(), edge_list_fnv1a(g));
        assert_eq!(
            got,
            (edges, hash),
            "{what}: topology moved ({} edges, {:#018x})",
            got.0,
            got.1
        );
    }
}

/// `schedule --colgen` answers the LP `schedule` answers: the same `Z*` and
/// the same Stage-2 optimum, over the same Yen paths per job. LPD and LPDAR
/// are left out: they round whichever optimal vertex the solve lands on.
#[test]
fn colgen_schedule_answers_the_monolithic_lp() {
    let wavesched = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_wavesched"))
            .args(args)
            .output()
            .expect("run wavesched");
        assert!(out.status.success(), "{args:?}: {out:?}");
        String::from_utf8(out.stdout).expect("utf-8 output")
    };
    let trace = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("e2e_colgen_trace.csv");
    let csv = wavesched(&[
        "gen-trace",
        "--network",
        "abilene14",
        "--jobs",
        "20",
        "--seed",
        "1",
    ]);
    std::fs::write(&trace, csv).expect("write trace");
    let trace = trace.to_str().expect("utf-8 path");

    // "... Z* = <z>" and "weighted throughput: LP <lp>, LPD ...".
    let answer = |stdout: &str| {
        let z = stdout
            .lines()
            .find_map(|l| l.split_once("Z* = "))
            .map(|(_, z)| z);
        let lp = stdout
            .lines()
            .find_map(|l| l.strip_prefix("weighted throughput: LP "))
            .and_then(|rest| rest.split(',').next());
        (
            z.expect("a Z* line").to_string(),
            lp.expect("an LP line").to_string(),
        )
    };
    let schedule = [
        "schedule",
        "--network",
        "abilene14",
        "--trace",
        trace,
        "--wavelengths",
        "2",
    ];
    let mono = answer(&wavesched(&schedule));
    let colgen = answer(&wavesched(&[&schedule[..], &["--colgen"]].concat()));
    assert_eq!(colgen, mono);
}
