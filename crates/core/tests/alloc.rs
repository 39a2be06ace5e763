//! Proves a controller invocation is translation-invariant: the same
//! workload shifted from slice 0 to slice 100 000 allocates the same and
//! answers the same, under each of the three overload actions.
//!
//! A grid that stored its slice boundaries grew with the clock — ~800 KB
//! per instance built at `now ≈ 100 000` — and an end-time extension that
//! scaled absolute times made [`OverloadPolicy::ExtendDeadlines`] answer
//! differently, and ever more slowly, the longer the controller had been
//! up. With a grid of two integers derived from the jobs' windows and RET
//! measured from the scheduling instant, the clock is not an input. This
//! test wraps the system allocator in a byte-counting shim (same
//! thread-gated pattern as `crates/lp/tests/alloc.rs`), replays one
//! overloaded closed-loop workload in an era starting at `now = 0` and an
//! era starting at `now = 100 000`, and compares the eras invocation by
//! invocation. The same shim holds RET to its caller's path cache: a second
//! call over the same endpoint pairs computes no path; it holds an
//! instance's capacity index to O(crossings) bytes in a fixed number of
//! allocations, whatever the horizon; and it holds a controller period
//! below the bytes of one copy of the network its instance is built on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use wavesched_core::controller::{Controller, ControllerConfig, OverloadPolicy};
use wavesched_core::instance::{Instance, InstanceConfig};
use wavesched_core::pipeline::max_throughput_pipeline;
use wavesched_core::ret::{solve_ret_with_demands, RetConfig};
use wavesched_net::{abilene14, waxman_network, PathSet, WaxmanConfig};
use wavesched_workload::{Job, JobId, WorkloadConfig, WorkloadGenerator};

/// System allocator with counters for allocation events — bytes and
/// calls (deallocations are free; acquiring memory is what must stay flat).
/// Counted per thread, inside [`counted`] / [`counted_calls`] only, so
/// neither the harness nor a test running beside this one is charged to it.
struct CountingAlloc;

thread_local! {
    /// `(bytes, calls)` while counting is on.
    static COUNTED: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

fn count_bytes(n: usize) {
    let _ =
        COUNTED.try_with(|c| c.set(c.get().map(|(bytes, calls)| (bytes + n as u64, calls + 1))));
}

/// Runs `f` and returns what it returned with the bytes and the number of
/// allocation calls (`alloc` and `realloc`) it made.
fn counted_calls<T>(f: impl FnOnce() -> T) -> (T, (u64, u64)) {
    COUNTED.with(|c| c.set(Some((0, 0))));
    let out = f();
    let counts = COUNTED.with(|c| c.take()).expect("counting was on");
    (out, counts)
}

/// Runs `f` and returns what it returned with the bytes it allocated.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (out, (bytes, _)) = counted_calls(f);
    (out, bytes)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_bytes(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_bytes(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// What one invocation did, by everything but its clock.
#[derive(Debug, PartialEq)]
struct Step {
    admitted: Vec<JobId>,
    rejected: Vec<JobId>,
    extension: f64,
    vars: usize,
    x: Vec<f64>,
}

/// Runs 8 controller invocations under `policy` whose clock starts at
/// `base`, feeding three fresh jobs per period — more than the network can
/// carry, so every overload action has to act — and executing each issued
/// schedule for its period, as the simulator would. Returns what each
/// invocation did and the bytes it allocated.
///
/// The workloads of two eras are identical up to the `base` time shift
/// (integer-valued, so the shift is exact in floating point): any
/// difference between them is the clock leaking in.
fn era(policy: OverloadPolicy, base: f64) -> Vec<(Step, u64)> {
    let (g, _) = abilene14(2);
    let nodes: Vec<_> = g.nodes().collect();
    let mut cfg = ControllerConfig::paper(2);
    cfg.policy = policy;
    let tau = cfg.tau;
    let mut c = Controller::new(g.clone(), cfg);

    let mut id = 0u32;
    let mut steps = Vec::new();
    for k in 0..8 {
        let now = base + (k * tau) as f64;
        let batch: Vec<Job> = (0..3)
            .map(|_| {
                id += 1;
                let src = nodes[id as usize % nodes.len()];
                let dst = nodes[(id as usize + 5) % nodes.len()];
                Job::new(JobId(id), now, src, dst, 300.0, now, now + 4.0)
            })
            .collect();

        let (res, bytes) = counted(|| c.invoke(now, &batch));
        let res = res.expect("invocation must solve");

        let inst = &res.instance;
        for slice in now as usize..now as usize + tau {
            for (i, job) in inst.jobs.iter().enumerate() {
                if inst.vars.window(i).contains(&slice) {
                    let moved: f64 = (0..inst.vars.paths_of(i))
                        .map(|p| res.schedule.x[inst.vars.var(i, p, slice)])
                        .sum();
                    c.record_transfer(job.id, moved);
                }
            }
        }
        let step = Step {
            admitted: res.admitted,
            rejected: res.rejected,
            extension: res.extension,
            vars: res.instance.vars.len(),
            x: res.schedule.x,
        };
        steps.push((step, bytes));
    }
    steps
}

#[test]
fn invocation_is_independent_of_clock_under_every_policy() {
    for policy in [
        OverloadPolicy::Reject,
        OverloadPolicy::ShrinkDemands,
        OverloadPolicy::ExtendDeadlines,
    ] {
        let early = era(policy, 0.0);
        let late = era(policy, 100_000.0);
        // The workload must make the policy act, or the comparison below
        // covers the plain pipeline three times.
        match policy {
            OverloadPolicy::Reject => assert!(early.iter().any(|(s, _)| !s.rejected.is_empty())),
            OverloadPolicy::ShrinkDemands => {}
            OverloadPolicy::ExtendDeadlines => {
                assert!(early.iter().any(|(s, _)| s.extension > 0.0))
            }
        }
        for (k, ((e, e_bytes), (l, l_bytes))) in early.iter().zip(&late).enumerate() {
            assert_eq!(
                e, l,
                "{policy:?}, invocation {k}: the answer moved with the clock"
            );
            // 64 KB of slack absorbs allocator/collection noise. The
            // regression this guards against is ~800 KB per instance built
            // of grid bounds alone.
            assert!(
                *l_bytes <= e_bytes + 64_000,
                "{policy:?}, invocation {k}: allocations grew with the clock: \
                 {e_bytes} B at era 0 vs {l_bytes} B at era 100000"
            );
        }
    }
}

/// RET routes over the caller's path cache: a second call over the same
/// endpoint pairs allocates what the first did less what computing their
/// paths allocates — it computes none. (Allocation is deterministic, so the
/// three byte counts are held to each other far inside the translation
/// test's 64 KB: Yen over a dozen Abilene pairs is some 5 KB.)
#[test]
fn ret_on_a_warm_path_cache_computes_no_path() {
    let g = Arc::new(abilene14(2).0);
    let jobs = WorkloadGenerator::new(WorkloadConfig {
        num_jobs: 12,
        seed: 3000,
        size_gb: (100.0, 400.0),
        window: (2.0, 4.0),
        ..Default::default()
    })
    .generate(&g);
    let icfg = InstanceConfig::paper(2);
    let demands: Vec<f64> = jobs.iter().map(|j| icfg.demand_units(j.size_gb)).collect();
    let cfg = RetConfig {
        b_max: 10.0,
        ..RetConfig::default()
    };
    let mut pairs: Vec<_> = jobs.iter().map(|j| (j.src, j.dst)).collect();
    pairs.sort_unstable();
    pairs.dedup();

    let mut cache = PathSet::new(icfg.paths_per_job);
    let mut run = || {
        let (res, bytes) =
            counted(|| solve_ret_with_demands(&g, &jobs, &demands, &cfg, 0.0, &mut cache));
        let b_final = res.expect("RET must solve").expect("feasible").b_final;
        (b_final, bytes)
    };
    let (b_cold, cold) = run();
    let (b_warm, warm) = run();
    assert!(b_cold > 0.0, "the workload must overload");
    assert_eq!(b_cold.to_bits(), b_warm.to_bits());
    assert_eq!(cache.cached_pairs(), pairs.len());

    let ((), yen) = counted(|| PathSet::new(icfg.paths_per_job).warm(&g, pairs.iter().copied()));
    assert!(yen > 1_000, "{} pairs took {yen} B", pairs.len());
    assert!(
        cold.saturating_sub(warm).abs_diff(yen) <= yen / 8,
        "cold cache {cold} B, warm cache {warm} B, the paths themselves {yen} B"
    );
}

/// The capacity index is O(crossings): one job on one path whose window
/// spans 20 000 slices of a 1 000-node Waxman network builds in bytes
/// linear in its crossings, far below what an edges × slices counter array
/// would take, the same at slice 100 000 as at slice 0, and in as many
/// allocation calls for 2 000 groups a hop as for 20 000.
#[test]
fn capacity_index_is_linear_in_crossings() {
    let g = waxman_network(&WaxmanConfig {
        nodes: 1000,
        link_pairs: 2000,
        wavelengths: 2,
        alpha: 0.15,
        seed: 42,
    });
    let nodes: Vec<_> = g.nodes().collect();
    let cfg = InstanceConfig {
        paths_per_job: 1,
        ..InstanceConfig::paper(2)
    };
    // Paths come from a warm cache, so only the build is counted.
    let mut cache = PathSet::new(cfg.paths_per_job);
    cache.warm(&g, [(nodes[0], nodes[999])]);
    let mut build = |start: f64, slices: usize| {
        let job = Job::new(
            JobId(0),
            start,
            nodes[0],
            nodes[999],
            100.0,
            start,
            start + slices as f64,
        );
        counted_calls(|| Instance::build(&g, &[job], &cfg, &mut cache))
    };

    let slices = 20_000;
    let (inst, (bytes, calls)) = build(0.0, slices);
    let hops = inst.paths[0][0].len();
    assert!(hops > 1, "the job must cross several edges");
    let crossings = hops * slices;
    // One path crosses each (edge, slice) at most once.
    assert_eq!(inst.capacity_groups.len(), crossings);

    // Here every crossing is a group of one: the index keeps 16 B a
    // crossing and passes through 8 B a slice of the window; the rest of
    // the build — mostly the graph's clone — is some 200 KB.
    let bound = 24 * crossings + 512_000;
    let dense = g.num_edges() * slices * size_of::<u32>();
    assert!(10 * bound < dense, "the bound must sit far below {dense} B");
    assert!(
        bytes <= bound as u64,
        "{crossings} crossings took {bytes} B, over {bound} B"
    );

    let (_, late) = build(100_000.0, slices);
    assert_eq!(
        late,
        (bytes, calls),
        "the build's cost moved with the clock"
    );

    let (short, (_, short_calls)) = build(0.0, slices / 10);
    assert_eq!(short.capacity_groups.len(), crossings / 10);
    assert_eq!(
        short_calls, calls,
        "allocation calls grew with the number of groups"
    );
}

/// A controller period builds its instance on the controller's network,
/// not on a copy. On the 1 000-node Waxman network, one invocation over two
/// carried jobs is an instance build over warm paths plus the pipeline on
/// it (Stage 1, Stage 2, LPD, LPDAR); the same pipeline run on its own, on
/// an instance built outside the controller, counts the second part. What
/// the period allocates beyond it — the build and the controller's
/// bookkeeping — stays below one clone of the network. A build that copied
/// the network would be over by itself.
#[test]
fn a_controller_period_does_not_copy_the_network() {
    let g = waxman_network(&WaxmanConfig {
        nodes: 1000,
        link_pairs: 2000,
        wavelengths: 2,
        alpha: 0.15,
        seed: 42,
    });
    let nodes: Vec<_> = g.nodes().collect();
    let (copy, network) = counted(|| g.clone());
    let cfg = ControllerConfig::paper(2);
    let mut c = Controller::new(g, cfg.clone());
    let jobs: Vec<Job> = (0..2)
        .map(|i| {
            Job::new(
                JobId(i),
                0.0,
                nodes[i as usize],
                nodes[999],
                300.0,
                0.0,
                3.0,
            )
        })
        .collect();
    // The first period computes the two pairs' paths.
    c.invoke(0.0, &jobs).expect("invocation must solve");
    let (res, period) = counted(|| c.invoke(1.0, &[]));
    let res = res.expect("invocation must solve");
    assert_eq!(res.instance.num_jobs(), 2, "both jobs carry over");

    let mut paths = PathSet::new(cfg.instance.paths_per_job);
    let inst = Instance::build(&copy, &res.instance.jobs, &cfg.instance, &mut paths);
    let (alone, pipeline) = counted(|| max_throughput_pipeline(&inst, cfg.alpha));
    assert_eq!(alone.expect("pipeline must solve").lpdar, res.schedule);
    let rest = period - pipeline;
    assert!(
        rest < network,
        "a period allocated {rest} B beyond its {pipeline} B pipeline; \
         one copy of the network is {network} B"
    );
}
