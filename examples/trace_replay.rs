//! Replay a pinned workload trace and inspect the plan like an operator:
//! load jobs from CSV, schedule them on the ESnet-style backbone, print
//! the per-job wavelength timeline and the hottest links, and export a
//! load-colored Graphviz rendering.
//!
//! ```text
//! cargo run --release --example trace_replay
//! ```

use wavesched::core::instance::{Instance, InstanceConfig};
use wavesched::core::pipeline::max_throughput_pipeline;
use wavesched::core::report::{job_timeline, link_utilization};
use wavesched::net::{esnet, to_dot_with_load, PathSet};
use wavesched::workload::{parse_trace, write_trace, Job, JobId};

fn main() {
    let (graph, nodes) = esnet(2);

    // Normally this trace would come from a file or a request log; here we
    // build it, serialize it, and parse it back to demonstrate the format.
    let jobs = vec![
        // Brookhaven pushes detector data west.
        Job::new(JobId(0), 0.0, nodes[14], nodes[1], 600.0, 0.0, 8.0),
        // Chicago exchange fans out to both coasts.
        Job::new(JobId(1), 0.0, nodes[8], nodes[0], 450.0, 1.0, 9.0),
        Job::new(JobId(2), 0.0, nodes[8], nodes[10], 300.0, 0.0, 6.0),
        // A southern-route bulk replication.
        Job::new(JobId(3), 0.0, nodes[2], nodes[11], 750.0, 2.0, 12.0),
    ];
    let csv = write_trace(&jobs);
    println!("--- trace ---\n{csv}");
    let jobs = parse_trace(&csv, &graph).expect("valid trace");

    let cfg = InstanceConfig::paper(2); // 10 Gbps per wavelength, 60 s slices
    let mut paths = PathSet::new(cfg.paths_per_job);
    let inst = Instance::build(&graph, &jobs, &cfg, &mut paths);

    let r = max_throughput_pipeline(&inst, 0.1).expect("pipeline");
    let plan = r.lpdar.trim_to_demand(&inst);

    println!("Z* = {:.2} (>= 1 means every deadline holds)\n", r.z_star);
    println!("--- wavelength timeline ---");
    print!("{}", job_timeline(&inst, &plan));
    println!("\n--- hottest links ---");
    print!("{}", link_utilization(&inst, &plan, 8));

    // Peak per-link load across slices, for the DOT rendering.
    let mut max_used = vec![0.0f64; inst.graph.num_edges()];
    for ((e, _), vars) in inst.capacity_groups.iter() {
        let used: f64 = vars.iter().map(|&v| plan.x[v as usize]).sum();
        max_used[e as usize] = max_used[e as usize].max(used);
    }
    let peak = |e: wavesched::net::EdgeId| -> Option<f64> {
        Some(max_used[e.index()] / inst.graph.wavelengths(e) as f64)
    };
    let dot = to_dot_with_load(&graph, peak);
    std::fs::write("esnet_load.dot", &dot).expect("write dot");
    println!(
        "\nwrote esnet_load.dot ({} bytes) — render with `dot -Tsvg`",
        dot.len()
    );
}
