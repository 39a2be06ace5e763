//! Seeded random workload generation.
//!
//! Matches the paper's evaluation setup: job sizes uniform on [1, 100] GB,
//! uniformly random distinct (source, destination) pairs. The paper does
//! not state the start/end-window distribution; the defaults here (batch
//! arrivals at time 0, window lengths uniform on [8, 24] slices) are chosen
//! so instances straddle the overloaded regime (`Z* ≲ 1`) the paper studies,
//! and are recorded per experiment in EXPERIMENTS.md.

use crate::job::{Job, JobId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use wavesched_net::{Graph, NodeId};

/// When job requests arrive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalModel {
    /// All requests known at time 0 — one scheduling instance, as in the
    /// paper's Figs. 1–4.
    Batch,
    /// Poisson arrivals with the given rate (requests per slice unit), for
    /// the periodic-controller simulations.
    Poisson {
        /// Mean arrivals per slice unit.
        rate: f64,
    },
}

/// Parameters for [`WorkloadGenerator`].
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Number of jobs to generate.
    pub num_jobs: usize,
    /// RNG seed.
    pub seed: u64,
    /// Job size range in GB, inclusive (paper: `[1, 100]`).
    pub size_gb: (f64, f64),
    /// Arrival process.
    pub arrival: ArrivalModel,
    /// Window length `E_i - S_i` in slices (uniform).
    pub window: (f64, f64),
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            num_jobs: 50,
            seed: 0,
            size_gb: (1.0, 100.0),
            arrival: ArrivalModel::Batch,
            window: (8.0, 24.0),
        }
    }
}

/// Deterministic workload generator over a network's nodes.
#[derive(Debug)]
pub struct WorkloadGenerator {
    cfg: WorkloadConfig,
    rng: StdRng,
}

impl WorkloadGenerator {
    /// Creates a generator for the given configuration.
    pub fn new(cfg: WorkloadConfig) -> Self {
        assert!(cfg.size_gb.0 > 0.0 && cfg.size_gb.0 <= cfg.size_gb.1);
        assert!(cfg.window.0 > 0.0 && cfg.window.0 <= cfg.window.1);
        let rng = StdRng::seed_from_u64(cfg.seed);
        WorkloadGenerator { cfg, rng }
    }

    /// Generates the configured number of jobs over the nodes of `g`.
    pub fn generate(&mut self, g: &Graph) -> Vec<Job> {
        let nodes: Vec<NodeId> = g.nodes().collect();
        assert!(nodes.len() >= 2, "need at least two nodes");
        let mut jobs = Vec::with_capacity(self.cfg.num_jobs);
        let mut clock = 0.0_f64;
        for i in 0..self.cfg.num_jobs {
            jobs.push(self.gen_one(&nodes, i, &mut clock));
        }
        jobs
    }

    /// Turns the generator into a lazily-evaluated job stream over the
    /// nodes of `g`, producing exactly the sequence [`generate`] would —
    /// same seed, same jobs — one at a time.
    ///
    /// [`generate`]: WorkloadGenerator::generate
    pub fn stream(self, g: &Graph) -> JobStream {
        let nodes: Vec<NodeId> = g.nodes().collect();
        assert!(nodes.len() >= 2, "need at least two nodes");
        JobStream {
            generator: self,
            nodes,
            clock: 0.0,
            next: 0,
        }
    }

    /// Draws job `i`. The per-job RNG consumption order is the sequence
    /// contract shared by [`generate`](WorkloadGenerator::generate) and
    /// [`JobStream`]: arrival uniform (Poisson only), src, dst (rejection
    /// loop), size, window. The requested start is the arrival.
    fn gen_one(&mut self, nodes: &[NodeId], i: usize, clock: &mut f64) -> Job {
        let arrival = match self.cfg.arrival {
            ArrivalModel::Batch => 0.0,
            ArrivalModel::Poisson { rate } => {
                assert!(rate > 0.0, "Poisson rate must be positive");
                // Exponential inter-arrival via inverse transform.
                let u: f64 = self.rng.random_range(f64::MIN_POSITIVE..1.0);
                *clock += -u.ln() / rate;
                *clock
            }
        };
        let src = nodes[self.rng.random_range(0..nodes.len())];
        let dst = loop {
            let d = nodes[self.rng.random_range(0..nodes.len())];
            if d != src {
                break d;
            }
        };
        let size_gb = self
            .rng
            .random_range(self.cfg.size_gb.0..=self.cfg.size_gb.1);
        let end = arrival + self.uniform(self.cfg.window);
        Job::new(JobId(i as u32), arrival, src, dst, size_gb, arrival, end)
    }

    fn uniform(&mut self, (lo, hi): (f64, f64)) -> f64 {
        if lo == hi {
            lo
        } else {
            self.rng.random_range(lo..=hi)
        }
    }
}

/// A lazily-evaluated workload: yields the jobs of
/// [`WorkloadGenerator::generate`] one at a time, so a million-job replay
/// never materializes the full trace.
///
/// Created by [`WorkloadGenerator::stream`].
#[derive(Debug)]
pub struct JobStream {
    generator: WorkloadGenerator,
    nodes: Vec<NodeId>,
    clock: f64,
    next: usize,
}

impl Iterator for JobStream {
    type Item = Job;

    fn next(&mut self) -> Option<Job> {
        if self.next >= self.generator.cfg.num_jobs {
            return None;
        }
        let i = self.next;
        self.next += 1;
        let mut clock = self.clock;
        let job = self.generator.gen_one(&self.nodes, i, &mut clock);
        self.clock = clock;
        Some(job)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.generator.cfg.num_jobs - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for JobStream {}

#[cfg(test)]
mod tests {
    use super::*;
    use wavesched_net::abilene14;

    fn gen_jobs(cfg: WorkloadConfig) -> Vec<Job> {
        let (g, _) = abilene14(4);
        WorkloadGenerator::new(cfg).generate(&g)
    }

    #[test]
    fn batch_defaults() {
        let jobs = gen_jobs(WorkloadConfig::default());
        assert_eq!(jobs.len(), 50);
        for j in &jobs {
            assert_eq!(j.arrival, 0.0);
            assert!(j.size_gb >= 1.0 && j.size_gb <= 100.0);
            assert!(j.window() >= 8.0 && j.window() <= 24.0);
            assert_ne!(j.src, j.dst);
            assert!(j.arrival <= j.start && j.start <= j.end);
        }
    }

    #[test]
    fn deterministic_by_seed() {
        let a = gen_jobs(WorkloadConfig {
            seed: 9,
            ..Default::default()
        });
        let b = gen_jobs(WorkloadConfig {
            seed: 9,
            ..Default::default()
        });
        assert_eq!(a, b);
        let c = gen_jobs(WorkloadConfig {
            seed: 10,
            ..Default::default()
        });
        assert_ne!(a, c);
    }

    #[test]
    fn poisson_arrivals_increase() {
        let jobs = gen_jobs(WorkloadConfig {
            num_jobs: 30,
            arrival: ArrivalModel::Poisson { rate: 0.5 },
            ..Default::default()
        });
        for w in jobs.windows(2) {
            assert!(w[1].arrival >= w[0].arrival, "arrivals must be monotone");
        }
        assert!(jobs.last().unwrap().arrival > 0.0);
    }

    #[test]
    fn poisson_mean_roughly_matches_rate() {
        let jobs = gen_jobs(WorkloadConfig {
            num_jobs: 2000,
            arrival: ArrivalModel::Poisson { rate: 2.0 },
            ..Default::default()
        });
        let span = jobs.last().unwrap().arrival;
        let rate = jobs.len() as f64 / span;
        assert!(
            (rate - 2.0).abs() < 0.2,
            "empirical rate {rate} far from 2.0"
        );
    }

    #[test]
    fn stream_matches_generate() {
        let (g, _) = abilene14(4);
        for arrival in [ArrivalModel::Batch, ArrivalModel::Poisson { rate: 1.5 }] {
            let cfg = WorkloadConfig {
                num_jobs: 120,
                seed: 42,
                arrival,
                ..Default::default()
            };
            let batch = WorkloadGenerator::new(cfg.clone()).generate(&g);
            let stream = WorkloadGenerator::new(cfg).stream(&g);
            assert_eq!(stream.len(), 120);
            let streamed: Vec<Job> = stream.collect();
            assert_eq!(streamed, batch, "stream must replay generate ({arrival:?})");
        }
    }

    #[test]
    fn stream_is_exhausted_after_num_jobs() {
        let (g, _) = abilene14(4);
        let mut s = WorkloadGenerator::new(WorkloadConfig {
            num_jobs: 3,
            ..Default::default()
        })
        .stream(&g);
        assert_eq!(s.by_ref().count(), 3);
        assert!(s.next().is_none());
    }
}
