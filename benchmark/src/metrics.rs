//! The metric catalogue: every name the benchmark prints, with its unit and
//! direction. `BENCHMARK.json` lists the same names in the same order (a
//! unit test compares the two); `benchmark/README.md` defines each one.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base median by which the metric may get worse before
    /// `--compare` (and the driver) call it a regression. End-to-end only.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Lower, 0.0)
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Higher, 0.0)
}

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: &[MetricDef] = &[
    e2e("wall_s", "s", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
    e2e("quality", "ratio", Better::Higher, 0.1),
    e2e("goodput", "ratio", Better::Higher, 0.1),
];

/// Single-layer numbers from the traced run; 0 where a layer does no work
/// in a workload.
pub const PER_LAYER: &[MetricDef] = &[
    lo("workload.generate_ms", "ms"),
    lo("workload.trace_parse_ms", "ms"),
    lo("workload.trace_bytes", "count"),
    lo("net.graph_build_ms", "ms"),
    lo("net.yen_ms", "ms"),
    lo("net.yen_pairs", "count"),
    lo("net.paths_found", "count"),
    lo("core.instance_build_ms", "ms"),
    lo("core.instance_vars", "count"),
    lo("core.stage1_build_ms", "ms"),
    lo("lp.rows", "count"),
    lo("lp.cols", "count"),
    lo("lp.nnz", "count"),
    lo("lp.cold_solve_ms", "ms"),
    lo("lp.iterations", "count"),
    lo("lp.phase1_iterations", "count"),
    lo("lp.dual_iterations", "count"),
    lo("lp.degenerate_pivots", "count"),
    lo("lp.refactorizations", "count"),
    lo("lp.refactor_forced_fallback", "count"),
    lo("lp.pricing_candidates_scanned", "count"),
    lo("lp.solves", "count"),
    hi("lp.warm_starts_accepted", "count"),
    lo("lp.warm_start_fallbacks", "count"),
    lo("lp.fallback_share", "ratio"),
    hi("lp.lu_reuse_hits", "count"),
    lo("lp.us_per_iteration", "us"),
    lo("lp.ms_per_solve", "ms"),
    lo("lp.pivot_ns", "ns"),
    lo("lp.ftran_ns", "ns"),
    lo("lp.btran_ns", "ns"),
    lo("core.stage2_ms", "ms"),
    lo("core.lpd_ms", "ms"),
    lo("core.lpdar_ms", "ms"),
    lo("core.lpdar_share", "ratio"),
    lo("core.ret_ms", "ms"),
    lo("ret.probes", "count"),
    lo("ret.growth_rounds", "count"),
    lo("core.ret_ms_per_probe", "ms"),
    lo("core.cg_ms", "ms"),
    lo("cg.rounds", "count"),
    lo("cg.columns_added", "count"),
    lo("cg.pricer_calls", "count"),
    lo("cg.master_dual_iterations", "count"),
    lo("core.cg_pool_ratio", "ratio"),
    lo("controller.invocations", "count"),
    lo("core.invoke_ms_mean", "ms"),
    lo("core.invoke_p99_ms", "ms"),
    lo("period_p50_ms", "ms"),
    lo("period_p95_ms", "ms"),
    lo("sim.slices", "count"),
    lo("sim.self_ms", "ms"),
    lo("mem.bytes_allocated_per_invoke", "count"),
    lo("mem.peak_live_bytes", "count"),
    hi("mem.arena_reuse_hits", "count"),
    lo("par.ret_scale_t2", "ratio"),
    lo("obs.trace_overhead_pct", "%"),
    hi("layer_cover", "ratio"),
    hi("lpdar_norm", "ratio"),
    lo("b_final_mean", "ratio"),
    hi("on_time_share", "ratio"),
];

/// Metric values of one run, by catalogue name.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "{name} is not in the catalogue"
        );
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    /// `BENCHMARK.json` is written by hand; this keeps it and the catalogue
    /// from drifting apart.
    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, defs, bounded) in [
            ("end_to_end", END_TO_END, true),
            ("per_layer", PER_LAYER, false),
        ] {
            let listed = doc.get(key).and_then(Json::as_arr).unwrap();
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (entry, def) in listed.iter().zip(defs) {
                assert_eq!(entry.get("name").and_then(Json::as_str), Some(def.name));
                assert_eq!(
                    entry.get("unit").and_then(Json::as_str),
                    Some(def.unit),
                    "{}",
                    def.name
                );
                assert_eq!(
                    entry.get("better").and_then(Json::as_str),
                    Some(def.better.as_str()),
                    "{}",
                    def.name
                );
                let bound = entry.get("bound").and_then(Json::as_f64);
                assert_eq!(bound, bounded.then_some(def.bound), "{}", def.name);
            }
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
        let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
        let contract: Vec<_> = crate::workloads::Workload::ALL
            .iter()
            .filter(|w| w.in_contract())
            .collect();
        assert_eq!(workloads.len(), contract.len());
        for (entry, w) in workloads.iter().zip(contract) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(w.name()));
            assert_eq!(entry.get("why").and_then(Json::as_str), Some(w.why()));
        }
    }

    #[test]
    fn names_are_unique_and_values_overwrite() {
        let mut names: Vec<_> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        let mut v = Values::default();
        v.set("wall_s", 1.0);
        v.set("wall_s", 2.0);
        assert_eq!(v.get("wall_s"), Some(2.0));
        assert_eq!(v.get("setup_s"), None);
    }
}
