//! Property tests for workload generation.

use proptest::prelude::*;
use wavesched_net::{waxman_network, WaxmanConfig};
use wavesched_workload::{ArrivalModel, WorkloadConfig, WorkloadGenerator};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_jobs_respect_config(
        seed in any::<u64>(),
        n in 1usize..60,
        lo in 1.0f64..50.0,
        span in 0.0f64..100.0,
        wlo in 1.0f64..10.0,
        wspan in 0.0f64..20.0,
    ) {
        let g = waxman_network(&WaxmanConfig {
            nodes: 12,
            link_pairs: 20,
            wavelengths: 2,
            alpha: 0.15,
            seed: 1,
        });
        let cfg = WorkloadConfig {
            num_jobs: n,
            seed,
            size_gb: (lo, lo + span),
            window: (wlo, wlo + wspan),
            arrival: ArrivalModel::Batch,
        };
        let jobs = WorkloadGenerator::new(cfg).generate(&g);
        prop_assert_eq!(jobs.len(), n);
        for (i, j) in jobs.iter().enumerate() {
            prop_assert_eq!(j.id.index(), i);
            prop_assert!(j.size_gb >= lo && j.size_gb <= lo + span + 1e-9);
            prop_assert!(j.window() >= wlo - 1e-9 && j.window() <= wlo + wspan + 1e-9);
            prop_assert!(j.arrival <= j.start && j.start <= j.end);
            prop_assert!(j.src != j.dst);
            prop_assert!(j.src.index() < g.num_nodes() && j.dst.index() < g.num_nodes());
        }
    }

    #[test]
    fn poisson_arrivals_strictly_ordered(seed in any::<u64>(), rate in 0.01f64..10.0) {
        let g = waxman_network(&WaxmanConfig {
            nodes: 6,
            link_pairs: 8,
            wavelengths: 2,
            alpha: 0.15,
            seed: 2,
        });
        let jobs = WorkloadGenerator::new(WorkloadConfig {
            num_jobs: 40,
            seed,
            arrival: ArrivalModel::Poisson { rate },
            ..Default::default()
        })
        .generate(&g);
        for w in jobs.windows(2) {
            prop_assert!(w[1].arrival >= w[0].arrival);
        }
        prop_assert!(jobs[0].arrival > 0.0);
    }
}
