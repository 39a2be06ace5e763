//! A production-shaped LP for the kernel suites: the time-expanded
//! scheduling form of the paper at toy scale.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use wavesched_lp::{Col, Objective, Problem};

/// Jobs × paths × slices: job `j` may send `x[j][p][t] ∈ [0, W]` wavelengths
/// over path `p` of its own during slice `t` of its window. One demand row
/// per job (`Σ_{p,t} x ≤ D_j`) and one capacity row per (edge, slice)
/// (`Σ x ≤ W` over the paths through the edge), every coefficient `1`, and
/// small integer weights to maximize — massively degenerate, like the
/// scheduling LPs, and with `14 + 10 × 16 = 174` rows a basis that spans
/// three 64-step bitmap words.
pub fn time_expanded_lp(seed: u64) -> Problem {
    const JOBS: usize = 14;
    const EDGES: usize = 10;
    const SLICES: usize = 16;
    const W: f64 = 4.0;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = Problem::new(Objective::Maximize);
    let mut demand: Vec<Vec<(Col, f64)>> = vec![Vec::new(); JOBS];
    let mut capacity: Vec<Vec<(Col, f64)>> = vec![Vec::new(); EDGES * SLICES];
    for job in demand.iter_mut() {
        let weight = rng.random_range(1i32..=3) as f64;
        let start = rng.random_range(0..SLICES - 4);
        let end = (start + rng.random_range(4..=8)).min(SLICES);
        for _ in 0..rng.random_range(2..=3) {
            let mut path: Vec<usize> = (0..rng.random_range(2..=4))
                .map(|_| rng.random_range(0..EDGES))
                .collect();
            path.sort_unstable();
            path.dedup();
            for t in start..end {
                let x = p.add_col(0.0, W, weight);
                job.push((x, 1.0));
                for &e in &path {
                    capacity[e * SLICES + t].push((x, 1.0));
                }
            }
        }
    }
    for job in &demand {
        p.add_row(f64::NEG_INFINITY, rng.random_range(4i32..=24) as f64, job);
    }
    for row in &capacity {
        p.add_row(f64::NEG_INFINITY, W, row);
    }
    p
}
