//! Unit tests of the instance: the variable map, windows, demands, and the
//! capacity index held to the ordered map it replaced.

use super::*;
use crate::report::link_utilization;
use crate::schedule::Schedule;
use proptest::prelude::*;
use std::collections::BTreeMap;

thread_local! {
    /// Instances built on this thread, for tests that hold a caller to
    /// one build per job set.
    pub(crate) static BUILDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}
use wavesched_net::{abilene14, waxman_network, WaxmanConfig};
use wavesched_workload::{JobId, WorkloadConfig, WorkloadGenerator};

fn small_instance(n_jobs: usize) -> Instance {
    let (g, _) = abilene14(4);
    let jobs = WorkloadGenerator::new(WorkloadConfig {
        num_jobs: n_jobs,
        seed: 1,
        ..Default::default()
    })
    .generate(&g);
    let cfg = InstanceConfig::paper(4);
    let mut ps = PathSet::new(cfg.paths_per_job);
    Instance::build(&g, &jobs, &cfg, &mut ps)
}

#[test]
fn varmap_roundtrip() {
    let inst = small_instance(8);
    for (var, job, p, slice) in inst.vars.iter() {
        assert_eq!(inst.vars.var(job, p, slice), var);
        assert_eq!(inst.vars.triple(var), (job, p, slice));
    }
    let count = inst.vars.iter().count();
    assert_eq!(count, inst.vars.len());
}

/// `job_vars`, the walk the builders and `Schedule::transferred` take in
/// place of a `triple` search per variable, names each of a job's
/// variables with the slice `triple` gives it.
#[test]
fn job_vars_agree_with_triple() {
    for (what, inst) in oracle_cases() {
        for job in 0..inst.num_jobs() {
            let walked: Vec<_> = inst.vars.job_vars(job).collect();
            let searched: Vec<_> = inst
                .vars
                .job_range(job)
                .map(|var| (var, inst.vars.triple(var).2))
                .collect();
            assert_eq!(walked, searched, "{what}, job {job}");
        }
    }
}

#[test]
fn windows_respect_job_times() {
    let inst = small_instance(10);
    for (i, j) in inst.jobs.iter().enumerate() {
        let w = inst.vars.window(i);
        if !w.is_empty() {
            assert!(w.start as f64 >= j.start);
            assert!(inst.grid.end_of(w.end - 1) <= j.end);
        }
    }
}

#[test]
fn capacity_groups_cover_paths() {
    let inst = small_instance(6);
    // Every variable must appear in exactly path-length capacity groups.
    let mut per_var = vec![0usize; inst.vars.len()];
    for (_, vars) in inst.capacity_groups.iter() {
        for &v in vars {
            per_var[v as usize] += 1;
        }
    }
    for (var, job, p, _slice) in inst.vars.iter() {
        assert_eq!(
            per_var[var],
            inst.paths[job][p].len(),
            "var {var} appears in wrong number of capacity groups"
        );
    }
}

#[test]
fn demands_normalized() {
    let inst = small_instance(5);
    let w = 4.0;
    for (i, j) in inst.jobs.iter().enumerate() {
        let gbps = InstanceConfig::LINK_GBPS / w;
        let expect = j.size_gb * 8.0 / (gbps * InstanceConfig::SLICE_SECS);
        assert!((inst.demands[i] - expect).abs() < 1e-9);
    }
}

#[test]
fn demand_units_is_the_three_step_formula() {
    // The conversion as it was written before it became one expression:
    // per-wavelength rate, then gigabytes per wavelength·slice, then the
    // quotient. Every size and wavelength count must give the same bits.
    let three_steps = |size_gb: f64, w: u32| {
        let per_wavelength_gbps = 20.0 / w as f64;
        let gb_per_slice = per_wavelength_gbps * 60.0 / 8.0;
        size_gb / gb_per_slice
    };
    let mut sizes = vec![1e-3, 0.1, 1.0, 3.7, 37.5, 100.0, 150.0, 600.0, 1e4, 1e300];
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    for _ in 0..200 {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        sizes.push((x >> 11) as f64 / (1u64 << 53) as f64 * 10_000.0);
    }
    for w in 1..=64 {
        let cfg = InstanceConfig::paper(w);
        for &size in &sizes {
            assert_eq!(
                cfg.demand_units(size).to_bits(),
                three_steps(size, w).to_bits(),
                "{size} GB at {w} wavelengths"
            );
        }
    }
}

#[test]
#[should_panic(expected = "at least one wavelength")]
fn zero_wavelengths_have_no_demand_unit() {
    InstanceConfig::paper(0).demand_units(1.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn demand_units_are_linear_and_double_with_the_wavelengths(
        size in 0.001f64..10_000.0,
        w in 1u32..64,
    ) {
        let d = InstanceConfig::paper(w).demand_units(size);
        // Linear in size.
        let d2 = InstanceConfig::paper(w).demand_units(2.0 * size);
        prop_assert!((d2 - 2.0 * d).abs() <= 1e-9 * d2.abs().max(1.0));
        // demand · unit == size (round trip).
        let unit = InstanceConfig::LINK_GBPS / w as f64 * InstanceConfig::SLICE_SECS / 8.0;
        prop_assert!((d * unit - size).abs() <= 1e-9 * size.max(1.0));
        // More wavelengths at constant capacity => proportionally more units.
        let dd = InstanceConfig::paper(2 * w).demand_units(size);
        prop_assert!((dd - 2.0 * d).abs() <= 1e-6 * dd.abs().max(1.0));
    }
}

#[test]
fn grid_covers_all_windows() {
    let inst = small_instance(12);
    let max_end = inst.jobs.iter().map(|j| j.end).fold(0.0f64, f64::max);
    assert!(inst.grid.end_of(inst.grid.num_slices() - 1) >= max_end.floor());
}

#[test]
fn empty_window_job_is_flagged() {
    let (g, nodes) = abilene14(4);
    // A job whose window is too short to contain a full slice.
    let job = Job::new(JobId(0), 0.0, nodes[0], nodes[1], 10.0, 0.3, 0.9);
    let cfg = InstanceConfig::paper(4);
    let mut ps = PathSet::new(cfg.paths_per_job);
    let inst = Instance::build(&g, &[job], &cfg, &mut ps);
    assert!(inst.has_unschedulable_job());
    assert_eq!(inst.vars.len(), 0);
}

/// An `(edge index, slice)` pair.
type Key = (u32, u32);

/// The capacity groups as the instance build folded them before the flat
/// index: one ordered-map entry per (edge, slice), variables pushed in
/// variable order.
fn ordered_map_groups(inst: &Instance) -> BTreeMap<Key, Vec<u32>> {
    let mut groups = BTreeMap::new();
    for (var, job, p, slice) in inst.vars.iter() {
        for &e in inst.paths[job][p].edges() {
            groups
                .entry((e.0, slice as u32))
                .or_insert_with(Vec::new)
                .push(var as u32);
        }
    }
    groups
}

/// `Schedule::max_capacity_violation` over the ordered map.
fn map_max_capacity_violation(groups: &BTreeMap<Key, Vec<u32>>, inst: &Instance, x: &[f64]) -> f64 {
    let mut worst: f64 = 0.0;
    for (&(e, _), vars) in groups {
        let used: f64 = vars.iter().map(|&v| x[v as usize]).sum();
        worst = worst.max(used - inst.graph.wavelengths(EdgeId(e)) as f64);
    }
    worst
}

/// `Schedule::mean_utilization` over the ordered map.
fn map_mean_utilization(groups: &BTreeMap<Key, Vec<u32>>, inst: &Instance, x: &[f64]) -> f64 {
    if groups.is_empty() {
        return 0.0;
    }
    let mut acc = 0.0;
    for (&(e, _), vars) in groups {
        let used: f64 = vars.iter().map(|&v| x[v as usize]).sum();
        acc += (used / inst.graph.wavelengths(EdgeId(e)) as f64).min(1.0);
    }
    acc / groups.len() as f64
}

/// `report::link_utilization` over the ordered map.
fn map_link_utilization(
    groups: &BTreeMap<Key, Vec<u32>>,
    inst: &Instance,
    x: &[f64],
    top: usize,
) -> String {
    let mut rows: Vec<(Key, f64, f64)> = groups
        .iter()
        .map(|(&key, vars)| {
            let used: f64 = vars.iter().map(|&v| x[v as usize]).sum();
            (key, used, inst.graph.wavelengths(EdgeId(key.0)) as f64)
        })
        .filter(|&(_, used, _)| used > 0.0)
        .collect();
    rows.sort_by(|a, b| (b.1 / b.2).total_cmp(&(a.1 / a.2)).then(a.0.cmp(&b.0)));
    rows.truncate(top);
    let mut out = format!(
        "{:<28} {:>5} {:>6} {:>6}\n",
        "link @ slice", "used", "cap", "util"
    );
    for ((e, s), used, cap) in rows {
        let edge = EdgeId(e);
        let name = format!(
            "{}->{} @ {s}",
            inst.graph.node_name(inst.graph.src(edge)),
            inst.graph.node_name(inst.graph.dst(edge)),
        );
        out += &format!(
            "{name:<28} {used:>5.0} {cap:>6.0} {:>5.0}%\n",
            100.0 * used / cap
        );
    }
    out
}

/// A schedule of uneven fractional loads — mostly light, so most groups sit
/// under capacity, one in five heavy, so some exceed it — whose sums in
/// another order would round differently.
fn uneven_schedule(inst: &Instance) -> Schedule {
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    let x = (0..inst.vars.len())
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let load = (state % 4099) as f64 / 7919.0;
            if state.is_multiple_of(5) {
                1.0 + load
            } else {
                load
            }
        })
        .collect();
    Schedule { x }
}

/// The instances the index is held to the ordered map on.
fn oracle_cases() -> Vec<(&'static str, Instance)> {
    let (abilene, nodes) = abilene14(2);
    let cfg = InstanceConfig::paper(2);
    let generate = |g: &Graph, num_jobs, seed| {
        WorkloadGenerator::new(WorkloadConfig {
            num_jobs,
            seed,
            ..Default::default()
        })
        .generate(g)
    };
    let build = |g: &Graph, jobs: &[Job]| {
        Instance::build(g, jobs, &cfg, &mut PathSet::new(cfg.paths_per_job))
    };
    let waxman = waxman_network(&WaxmanConfig::paper_default(42));

    // Stream-shaped: a controller period's worth of short windows, late in
    // a long run, so the grid starts at slice 100 000.
    let late: Vec<Job> = generate(&abilene, 30, 5)
        .iter()
        .map(|j| {
            let shift = |t: f64| t + 100_000.0;
            Job::new(
                j.id,
                shift(j.arrival),
                j.src,
                j.dst,
                j.size_gb,
                shift(j.start),
                shift(j.end),
            )
        })
        .collect();
    let stream = build(&abilene, &late);
    assert!(stream.grid.first_slice() >= 100_000);

    // One job of three has no allowed path.
    let jobs = generate(&abilene, 3, 2);
    let ranks = [vec![0, 1], Vec::new(), vec![0, 1]];
    let demands = jobs.iter().map(|j| cfg.demand_units(j.size_gb)).collect();
    let no_path = Instance::assemble(
        &Arc::new(abilene.clone()),
        &jobs,
        demands,
        &mut PathSet::new(2),
        Some(&ranks),
    );
    assert!(no_path.has_unschedulable_job());

    // One job of four has a window too short to hold a slice.
    let mut jobs = generate(&abilene, 3, 4);
    jobs.push(Job::new(JobId(99), 0.0, nodes[0], nodes[5], 10.0, 0.3, 0.9));
    let empty_window = build(&abilene, &jobs);
    assert!(empty_window.vars.window(3).is_empty());

    vec![
        ("abilene", build(&abilene, &generate(&abilene, 40, 1))),
        ("waxman", build(&waxman, &generate(&waxman, 40, 7))),
        ("slice 100 000", stream),
        ("a job with no path", no_path),
        ("a job with an empty window", empty_window),
        ("no jobs", build(&abilene, &[])),
    ]
}

#[test]
fn flat_index_is_the_ordered_map() {
    for (what, inst) in oracle_cases() {
        let map = ordered_map_groups(&inst);
        assert_eq!(inst.capacity_groups.len(), map.len(), "{what}");
        assert_eq!(inst.capacity_groups.is_empty(), map.is_empty(), "{what}");
        for ((key, vars), (map_key, map_vars)) in inst.capacity_groups.iter().zip(&map) {
            assert_eq!((key, vars), (*map_key, map_vars.as_slice()), "{what}");
        }

        let sched = uneven_schedule(&inst);
        let x = &sched.x;
        assert_eq!(
            sched.max_capacity_violation(&inst).to_bits(),
            map_max_capacity_violation(&map, &inst, x).to_bits(),
            "{what}"
        );
        assert_eq!(
            sched.mean_utilization(&inst).to_bits(),
            map_mean_utilization(&map, &inst, x).to_bits(),
            "{what}"
        );
        for top in [5, usize::MAX] {
            assert_eq!(
                link_utilization(&inst, &sched, top),
                map_link_utilization(&map, &inst, x, top),
                "{what}"
            );
        }
    }
}
