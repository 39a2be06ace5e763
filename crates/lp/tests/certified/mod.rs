//! The check the differential suites hold every answer to: whatever status
//! a solve returns, [`certify`] must prove it from the `Problem` and the
//! `Solution` alone — KKT conditions for an optimum, a Farkas multiplier
//! for infeasibility, an improving ray for unboundedness.

use wavesched_lp::{certify, solve, Problem, Solution, Status};

/// Asserts that `sol` verifies for its status.
pub fn assert_certified(p: &Problem, sol: &Solution, label: &str) {
    let cert = certify(p, sol);
    assert!(
        cert.verified,
        "{label}: {} not proved: {cert:?}",
        sol.status
    );
}

/// Solves `p`, asserts that the answer verifies for its status, and
/// returns the status.
pub fn check_certified(p: &Problem, label: &str) -> Status {
    let sol = solve(p).expect("solve");
    assert_certified(p, &sol, label);
    sol.status
}

/// Asserts that a batch of solves proved each of the three statuses a
/// finished solve can have at least once.
pub fn assert_every_status(seen: &[Status], label: &str) {
    for status in [Status::Optimal, Status::Infeasible, Status::Unbounded] {
        assert!(
            seen.contains(&status),
            "{label}: no {status} solve among {}",
            seen.len()
        );
    }
}
