//! The periodic controller in action: Poisson job arrivals on Abilene, the
//! controller re-optimizes every τ = 2 slices, transfers execute slice by
//! slice in the discrete-event simulator. The workload is sized to
//! overload the network so the three overload policies diverge visibly.
//!
//! One subtlety this surfaces: under the `Reject` policy a small number of
//! *admitted* jobs can still expire, because admission guarantees
//! `Z* >= 1` but Stage 2 only enforces the fairness floor
//! `(1 - alpha) Z*` per job (alpha = 0.1 here, as in the paper). The
//! `ablation_alpha` bench quantifies that tension.
//!
//! ```text
//! cargo run --release --example live_controller
//! ```

use wavesched::core::controller::OverloadPolicy;
use wavesched::net::abilene14;
use wavesched::sim::{run_simulation, JobOutcome, SimConfig};
use wavesched::workload::{ArrivalModel, WorkloadConfig, WorkloadGenerator};

fn main() {
    let (graph, _) = abilene14(2);
    let jobs = WorkloadGenerator::new(WorkloadConfig {
        num_jobs: 30,
        seed: 42,
        size_gb: (300.0, 600.0),
        arrival: ArrivalModel::Poisson { rate: 3.0 },
        window: (3.0, 6.0),
    })
    .generate(&graph);

    for policy in [
        OverloadPolicy::Reject,
        OverloadPolicy::ShrinkDemands,
        OverloadPolicy::ExtendDeadlines,
    ] {
        let mut cfg = SimConfig::paper(2);
        cfg.controller.tau = 2;
        cfg.controller.policy = policy;
        let report = run_simulation(&graph, &jobs, &cfg).expect("simulation");

        println!("== policy {policy:?} ==");
        println!(
            "  {} slices simulated, {} controller invocations",
            report.totals.slices, report.totals.invocations
        );
        println!(
            "  completed {:.0}%  on-time {:.0}%  rejected {:.0}%  expired {:.0}%",
            report.completion_rate() * 100.0,
            report.on_time_rate() * 100.0,
            report.rejection_rate() * 100.0,
            report.expiry_rate() * 100.0
        );
        println!(
            "  goodput {:.0}% of requested volume, mean utilization {:.1}%",
            report.totals.goodput() * 100.0,
            report.totals.mean_utilization * 100.0
        );
        if let Some(t) = report.average_end_time() {
            println!("  average end time of completed jobs: {t:.1} slices");
        }
        let late: Vec<_> = report
            .outcomes
            .iter()
            .filter(|(_, o)| matches!(o, JobOutcome::Completed { on_time: false, .. }))
            .map(|(id, _)| *id)
            .collect();
        if !late.is_empty() {
            println!("  late completions: {late:?}");
        }
        println!();
    }
}
