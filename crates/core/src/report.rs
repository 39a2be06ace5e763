//! Human-readable schedule reports.
//!
//! Operators inspect wavelength plans as timelines. This module renders a
//! [`Schedule`] two ways:
//!
//! * [`job_timeline`] — one row per job, one column per slice, each cell
//!   the total wavelengths assigned that slice (`.` for idle, `#` for 10+),
//!   with the window marked;
//! * [`link_utilization`] — the busiest (edge, slice) cells, as a table.

use crate::instance::Instance;
use crate::schedule::Schedule;
use std::fmt::Write as _;

/// Renders a per-job, per-slice wavelength timeline.
///
/// Cell glyphs: `.` zero inside the window, digits `1..=9`, `#` for ten or
/// more, and a space outside the job's window.
pub fn job_timeline(inst: &Instance, sched: &Schedule) -> String {
    let nslices = inst.grid.num_slices();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} {:>9} {:>7}  timeline (slices 0..{nslices})",
        "job", "demand", "moved"
    );
    for i in 0..inst.num_jobs() {
        let w = inst.vars.window(i);
        let mut cells = String::with_capacity(nslices);
        for s in 0..nslices {
            if !w.contains(&s) {
                cells.push(' ');
                continue;
            }
            let total: f64 = (0..inst.vars.paths_of(i))
                .map(|p| sched.x[inst.vars.var(i, p, s)])
                .sum();
            let v = total.round() as i64;
            cells.push(match v {
                0 => '.',
                1..=9 => (b'0' + v as u8) as char,
                _ => '#',
            });
        }
        let _ = writeln!(
            out,
            "{:<8} {:>9.2} {:>7.2}  |{cells}|",
            inst.jobs[i].id.to_string(),
            inst.demands[i],
            sched.transferred(inst, i),
        );
    }
    out
}

/// Renders the `top` most utilized (link, slice) cells.
pub fn link_utilization(inst: &Instance, sched: &Schedule, top: usize) -> String {
    let mut rows: Vec<((u32, u32), f64, f64)> = inst
        .capacity_groups
        .iter()
        .map(|(key, vars)| {
            let used: f64 = vars.iter().map(|&v| sched.x[v as usize]).sum();
            let cap = inst.graph.wavelengths(wavesched_net::EdgeId(key.0)) as f64;
            (key, used, cap)
        })
        .filter(|&(_, used, _)| used > 0.0)
        .collect();
    rows.sort_by(|a, b| (b.1 / b.2).total_cmp(&(a.1 / a.2)).then(a.0.cmp(&b.0)));
    rows.truncate(top);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<28} {:>5} {:>6} {:>6}",
        "link @ slice", "used", "cap", "util"
    );
    for ((e, s), used, cap) in rows {
        let edge = wavesched_net::EdgeId(e);
        let name = format!(
            "{}->{} @ {s}",
            inst.graph.node_name(inst.graph.src(edge)),
            inst.graph.node_name(inst.graph.dst(edge)),
        );
        let _ = writeln!(
            out,
            "{name:<28} {used:>5.0} {cap:>6.0} {:>5.0}%",
            100.0 * used / cap
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceConfig;
    use crate::pipeline::max_throughput_pipeline;
    use wavesched_net::{abilene14, PathSet};
    use wavesched_workload::{Job, JobId};

    fn demo() -> (Instance, Schedule) {
        let (g, nodes) = abilene14(4);
        let jobs = vec![
            Job::new(JobId(0), 0.0, nodes[0], nodes[10], 300.0, 0.0, 8.0),
            Job::new(JobId(1), 0.0, nodes[1], nodes[8], 150.0, 2.0, 6.0),
        ];
        let cfg = InstanceConfig::paper(4);
        let mut ps = PathSet::new(cfg.paths_per_job);
        let inst = Instance::build(&g, &jobs, &cfg, &mut ps);
        let r = max_throughput_pipeline(&inst, 0.1).unwrap();
        (inst, r.lpdar)
    }

    #[test]
    fn timeline_shape() {
        let (inst, sched) = demo();
        let text = job_timeline(&inst, &sched);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + inst.num_jobs());
        // Each timeline row encloses exactly num_slices cells in pipes.
        for l in &lines[1..] {
            let bar = l.split('|').nth(1).unwrap();
            assert_eq!(bar.chars().count(), inst.grid.num_slices());
        }
        // Job 1's window [2,6) leaves slices 0-1 blank.
        let bar1 = lines[2].split('|').nth(1).unwrap();
        assert!(bar1.starts_with("  "));
    }

    #[test]
    fn utilization_sorted_and_bounded() {
        let (inst, sched) = demo();
        let text = link_utilization(&inst, &sched, 5);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 2, "expected at least one utilization row");
        assert!(lines.len() <= 6);
        // Percentages non-increasing and <= 100.
        let pcts: Vec<f64> = lines[1..]
            .iter()
            .map(|l| {
                l.trim_end_matches('%')
                    .split_whitespace()
                    .last()
                    .unwrap()
                    .parse()
                    .unwrap()
            })
            .collect();
        for w in pcts.windows(2) {
            assert!(w[0] >= w[1] - 1e-9);
        }
        assert!(pcts.iter().all(|&p| p <= 100.0 + 1e-9));
    }
}
