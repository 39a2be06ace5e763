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
//! invocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use wavesched_core::controller::{Controller, ControllerConfig, OverloadPolicy};
use wavesched_net::abilene14;
use wavesched_workload::{Job, JobId};

/// System allocator with a byte counter for allocation events
/// (deallocations are free; acquiring memory is what must stay flat).
/// Thread-gated so harness-thread printing is not charged.
struct CountingAlloc;

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count_bytes(n: usize) {
    let _ = COUNTING.try_with(|c| {
        if c.get() {
            ALLOC_BYTES.fetch_add(n as u64, Ordering::Relaxed);
        }
    });
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

        let before = ALLOC_BYTES.load(Ordering::SeqCst);
        COUNTING.with(|cell| cell.set(true));
        let res = c.invoke(now, &batch);
        COUNTING.with(|cell| cell.set(false));
        let bytes = ALLOC_BYTES.load(Ordering::SeqCst) - before;
        let res = res.expect("invocation must solve");

        let inst = &res.instance;
        for slice in now as usize..now as usize + tau {
            for (i, job) in inst.jobs.iter().enumerate() {
                if inst.vars.window(i).contains(&slice) {
                    let moved: f64 = (0..inst.vars.paths_of(i))
                        .map(|p| res.schedule.x[inst.vars.var(i, p, slice)])
                        .sum();
                    c.record_transfer(job.id, moved * inst.grid.len_of(slice));
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
