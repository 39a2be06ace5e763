//! Proves the steady-state simplex pivot loop performs zero heap
//! allocations.
//!
//! The engine hoists every per-pivot buffer (FTRAN/BTRAN work vectors, the
//! pivotal row, Devex scratch, the eta arena) into engine-owned storage
//! that is pre-sized at construction or grown once during warmup. This
//! test wraps the system allocator in a counting shim, warms a
//! [`PivotProbe`] up, and then asserts that a window of 100 further pivots
//! touches the allocator not even once — nor does a window under the
//! default refactorization cadence that refactorizes twice, because the
//! factors are rebuilt in place in their own arenas. The solve entry is
//! held to the same standard: a session re-solve, on its carried factors,
//! from a basis snapshot or cold from the crash basis, allocates the
//! `Solution` it returns and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use wavesched_lp::{
    BasisStatus, Objective, PivotProbe, Problem, Row, SimplexConfig, Solution, SolverSession,
    Status,
};

/// System allocator with an allocation-event counter. Deallocations are
/// not counted (freeing is fine; acquiring is what the pivot loop must
/// never do). Counting is gated on a thread-local flag so only the
/// measuring thread is charged: the libtest harness's main thread prints
/// the `test ... ` progress line concurrently with the test body, and on
/// a loaded (or single-core) host its formatting allocations can land
/// inside the measured window.
struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const` init: reading the flag never itself triggers lazy TLS
    // allocation inside the allocator.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count_here() {
    // `try_with` so allocations during TLS teardown are simply uncounted.
    let _ = COUNTING.try_with(|c| {
        if c.get() {
            ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        }
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_here();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_here();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Deterministic LCG so the test problem is reproducible without a
/// dependency on an RNG crate.
struct Lcg(u64);

impl Lcg {
    fn next_u32(&mut self) -> u32 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as u32
    }

    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u32() as f64 / u32::MAX as f64)
    }
}

/// A random sparse LP that is feasible at its crash basis (all rows are
/// `<=` with positive right-hand sides, so resting every column at zero
/// satisfies everything — no phase 1, no artificials), bounded (every
/// column has positive entries, so each variable is blocked by some row),
/// and large enough that warmup plus the measured window never reaches
/// optimality.
fn steady_state_problem() -> Problem {
    let mut rng = Lcg(0x5eed_5107);
    let m = 400;
    let n = 600;
    let mut p = Problem::new(Objective::Maximize);
    let cols: Vec<_> = (0..n)
        .map(|_| p.add_col(0.0, f64::INFINITY, rng.uniform(1.0, 10.0)))
        .collect();
    // Column-wise fill: every column lands in 2–5 rows so none is
    // unconstrained (which would make the maximization unbounded).
    let mut rows: Vec<Vec<(wavesched_lp::Col, f64)>> = vec![Vec::new(); m];
    for &c in &cols {
        let k = 2 + (rng.next_u32() % 4) as usize;
        for _ in 0..k {
            let r = (rng.next_u32() as usize) % m;
            if rows[r].iter().any(|&(rc, _)| rc == c) {
                continue;
            }
            rows[r].push((c, rng.uniform(0.5, 4.0)));
        }
    }
    for entries in &rows {
        p.add_row(f64::NEG_INFINITY, rng.uniform(50.0, 200.0), entries);
    }
    p
}

/// Allocation events on this thread while `probe` runs `n` pivots.
fn events_over(probe: &mut PivotProbe, n: u64) -> u64 {
    let before = ALLOC_EVENTS.load(Ordering::SeqCst);
    COUNTING.with(|c| c.set(true));
    let ran = probe.pivots(n);
    COUNTING.with(|c| c.set(false));
    assert_eq!(ran, n, "problem too small: probe ran out of pivots");
    ALLOC_EVENTS.load(Ordering::SeqCst) - before
}

#[test]
fn steady_state_pivots_do_not_allocate() {
    let p = steady_state_problem();
    // Warm up: 20 iterations build the LU, grow every scratch arena to its
    // working set, and leave the engine parked mid-solve.
    let mut probe = PivotProbe::new(&p, 20);
    // The measured window appends one eta per pivot; pre-grow the arena so
    // even that is allocation-free.
    probe.reserve(120);

    let events = events_over(&mut probe, 100);
    assert_eq!(
        events, 0,
        "steady-state pivot loop performed {events} heap allocations"
    );
}

#[test]
fn refactorizations_do_not_allocate() {
    let p = steady_state_problem();
    // Default cadence: a refactorization every 100 pivots at the latest.
    // The warm-up has seen the entry factorization and one periodic one;
    // the window crosses at least two more.
    let mut probe = PivotProbe::new_with(&p, 120, &SimplexConfig::default());
    let warm = probe.stats().refactorizations;
    assert!(warm >= 2, "warm-up saw {warm} factorizations");
    probe.reserve(220);

    let events = events_over(&mut probe, 210);
    let crossed = probe.stats().refactorizations - warm;
    assert!(crossed >= 2, "window crossed {crossed} refactorizations");
    assert_eq!(
        events, 0,
        "{crossed} in-place refactorizations performed {events} heap allocations"
    );
}

/// Allocation events on this thread across one `solve` of `session`.
fn events_over_solve(session: &mut SolverSession) -> (u64, Solution) {
    let before = ALLOC_EVENTS.load(Ordering::SeqCst);
    COUNTING.with(|c| c.set(true));
    let sol = session.solve().expect("re-solve");
    COUNTING.with(|c| c.set(false));
    (ALLOC_EVENTS.load(Ordering::SeqCst) - before, sol)
}

#[test]
fn re_solves_allocate_only_the_solution_they_return() {
    // What a `Solution` owns: `x`, `duals` and the basis snapshot's two
    // status vectors. The session's own copy of that snapshot is refreshed
    // in place.
    const SOLUTION_VECTORS: u64 = 4;
    let p = steady_state_problem();
    let mut session = SolverSession::new(&p).expect("session");
    let first = session.solve().expect("first solve");
    assert_eq!(first.status, Status::Optimal);
    let snapshot = first.basis.expect("optimal basis");
    // Two rows the optimum leans on: cutting either forces pivots.
    let tight: Vec<Row> = (0..p.num_rows())
        .map(Row::from_index)
        .filter(|&r| first.duals[r.index()].abs() > 1e-6)
        .take(2)
        .collect();
    let cut = |session: &mut SolverSession, row: Row, share: f64| {
        let (_, cap) = p.row_bounds(row);
        session.set_row_bounds(row, f64::NEG_INFINITY, share * cap);
    };

    // On the carried factors, through the bound-shift phase 1: once to
    // bring every arena (eta file, factors, the phase-1 relaxation list) to
    // its working set, then measured.
    cut(&mut session, tight[0], 0.5);
    let warmup = session.solve().expect("warm-up");
    assert_eq!(warmup.stats.lu_reuse_hits, 1, "{:?}", warmup.stats);
    cut(&mut session, tight[0], 1.0);
    session.solve().expect("restore");
    cut(&mut session, tight[0], 0.5);
    let (events, carried) = events_over_solve(&mut session);
    assert_eq!(carried.status, Status::Optimal);
    assert_eq!(carried.stats.lu_reuse_hits, 1, "{:?}", carried.stats);
    assert!(carried.stats.phase1_iterations > 0, "{:?}", carried.stats);
    assert_eq!(
        events, SOLUTION_VECTORS,
        "a re-solve on carried factors performed {events} heap allocations"
    );

    // From a snapshot: the same LP from the same basis twice, so the
    // measured solve repeats the warm-up's work exactly.
    cut(&mut session, tight[0], 1.0);
    cut(&mut session, tight[1], 0.5);
    session.warm_start_from(snapshot.clone());
    session.solve().expect("warm-up");
    session.warm_start_from(snapshot);
    let (events, installed) = events_over_solve(&mut session);
    assert_eq!(installed.status, Status::Optimal);
    assert_eq!(installed.stats.warm_starts_accepted, 1);
    assert_eq!(installed.stats.lu_reuse_hits, 0, "{:?}", installed.stats);
    assert!(installed.stats.iterations > 0, "{:?}", installed.stats);
    assert_eq!(
        events, SOLUTION_VECTORS,
        "a re-solve from a basis snapshot performed {events} heap allocations"
    );

    // Cold: a basis of another shape is refused, so the solve falls back to
    // the crash basis; boxing every column makes the primal ratio test flip
    // entering columns between their bounds. Twice again, the first to bring
    // the arenas to the cold working set. The extra status only shortens
    // the session's copy of the answer, which stays within capacity.
    cut(&mut session, tight[1], 1.0);
    for j in 0..p.num_cols() {
        session.set_col_bounds(wavesched_lp::Col::from_index(j), 0.0, 5.0);
    }
    let mut foreign = installed.basis.expect("optimal basis");
    foreign.cols.push(BasisStatus::AtLower);
    session.warm_start_from(foreign.clone());
    session.solve().expect("warm-up");
    session.warm_start_from(foreign);
    let (events, cold) = events_over_solve(&mut session);
    assert_eq!(cold.status, Status::Optimal);
    assert_eq!(cold.stats.warm_start_fallbacks, 1, "{:?}", cold.stats);
    assert!(cold.stats.bound_flips > 0, "{:?}", cold.stats);
    assert_eq!(
        events, SOLUTION_VECTORS,
        "a cold re-solve with bound flips performed {events} heap allocations"
    );
}
