//! `--compare A/ B/`: two result sets side by side, every end-to-end metric
//! of every workload judged against its bound.

use crate::json::{self, Json};
use crate::metrics::{Better, MetricDef, END_TO_END};
use crate::stats::Summary;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    /// The sample-to-sample spread is wider than the bound and the samples
    /// fall on both sides of no change: the data cannot tell a change from
    /// noise.
    Unresolved,
    Regressed,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// Judges `new` against `base` for a metric with the given direction and
/// bound. `base_samples` and `new_samples` are the values behind the two
/// medians, when the metric has any: sample `i` of both sets measured the
/// same work (the same group of instances, or one more round of the same
/// stream), so the noise is judged on their ratios.
pub fn judge(
    def: &MetricDef,
    base: f64,
    new: f64,
    base_samples: &[f64],
    new_samples: &[f64],
) -> Verdict {
    let scale = base.abs().max(f64::MIN_POSITIVE);
    let worse = match def.better {
        Better::Lower => (new - base) / scale,
        Better::Higher => (base - new) / scale,
    };
    let ratios: Vec<f64> = base_samples
        .iter()
        .zip(new_samples)
        .map(|(b, n)| n / b)
        .collect();
    if let Some(r) = Summary::of(&ratios).filter(|r| r.n >= 2) {
        let overlap = r.min < 1.0 && r.max > 1.0;
        if overlap && r.spread() > def.bound {
            return Verdict::Unresolved;
        }
    }
    if worse > def.bound {
        Verdict::Regressed
    } else if -worse > def.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn load(dir: &Path) -> Result<Json, String> {
    let path = dir.join("results.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn record<'a>(doc: &'a Json, workload: &str, trace: f64) -> Option<&'a Json> {
    doc.get("runs")?.as_arr()?.iter().find(|r| {
        r.get("workload").and_then(Json::as_str) == Some(workload)
            && r.get("trace").and_then(Json::as_f64) == Some(trace)
    })
}

fn samples(rec: &Json, metric: &str) -> Vec<f64> {
    rec.get("samples")
        .and_then(|s| s.get(metric))
        .and_then(Json::as_arr)
        .map(|xs| xs.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// The obs counters of a traced run's record.
fn counters(rec: &Json) -> &[(String, Json)] {
    rec.get("counters").and_then(Json::as_obj).unwrap_or(&[])
}

/// Prints the comparison and returns how many pairings regressed.
pub fn compare(base_dir: &Path, new_dir: &Path) -> Result<usize, String> {
    let (base, new) = (load(base_dir)?, load(new_dir)?);
    let workloads: Vec<&str> = base
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("results.json has no runs")?
        .iter()
        .filter(|r| r.get("trace").and_then(Json::as_f64) == Some(0.0))
        .filter_map(|r| r.get("workload").and_then(Json::as_str))
        .collect();
    let mut regressed = 0;
    println!(
        "{:<16} {:<12} {:>14} {:>14} {:>9}  verdict",
        "workload", "metric", "base", "new", "new/base"
    );
    for w in &workloads {
        let (Some(a), Some(b)) = (record(&base, w, 0.0), record(&new, w, 0.0)) else {
            println!("{w:<16} missing from the new set");
            continue;
        };
        for def in END_TO_END {
            let value = |r: &Json| r.get("metrics")?.get(def.name)?.get("value")?.as_f64();
            let (Some(x), Some(y)) = (value(a), value(b)) else {
                continue;
            };
            let verdict = judge(def, x, y, &samples(a, def.name), &samples(b, def.name));
            regressed += usize::from(verdict == Verdict::Regressed);
            println!(
                "{w:<16} {:<12} {x:>14.6} {y:>14.6} {:>9.4}  {} (bound {}, {} is better, unit {})",
                def.name,
                y / x,
                verdict.as_str(),
                def.bound,
                def.better.as_str(),
                def.unit
            );
        }
    }
    println!("\ndeterministic values that differ (base -> new):");
    let mut differing = 0;
    for w in &workloads {
        let (Some(a), Some(b)) = (record(&base, w, 1.0), record(&new, w, 1.0)) else {
            continue;
        };
        let digest = |r: &Json| {
            r.get("digest")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string()
        };
        if digest(a) != digest(b) {
            differing += 1;
            println!("{w:<16} answer digest {} -> {}", digest(a), digest(b));
        }
        let (ca, cb) = (a.get("counters"), b.get("counters"));
        // Byte counts depend on the allocator and libc, and pricing time is
        // a clock reading: neither repeats exactly.
        let noisy = |k: &str| k.starts_with("mem.bytes") || k.ends_with("_ns");
        for (k, va) in counters(a).iter().filter(|(k, _)| !noisy(k)) {
            let vb = cb.and_then(|c| c.get(k));
            if vb != Some(va) {
                differing += 1;
                println!(
                    "{w:<16} {k} {va} -> {}",
                    vb.map_or("absent".to_string(), Json::to_string)
                );
            }
        }
        for (k, vb) in counters(b).iter().filter(|(k, _)| !noisy(k)) {
            if ca.and_then(|c| c.get(k)).is_none() {
                differing += 1;
                println!("{w:<16} {k} absent -> {vb}");
            }
        }
    }
    if differing == 0 {
        println!("none");
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const WALL: MetricDef = MetricDef {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.1,
    };
    const QUALITY: MetricDef = MetricDef {
        name: "quality",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.05,
    };

    #[test]
    fn verdicts_follow_direction_and_bound() {
        assert_eq!(judge(&WALL, 1.0, 1.05, &[], &[]), Verdict::Unchanged);
        assert_eq!(judge(&WALL, 1.0, 1.2, &[], &[]), Verdict::Regressed);
        assert_eq!(judge(&WALL, 1.0, 0.8, &[], &[]), Verdict::Improved);
        assert_eq!(judge(&QUALITY, 0.9, 0.8, &[], &[]), Verdict::Regressed);
        assert_eq!(judge(&QUALITY, 0.9, 0.99, &[], &[]), Verdict::Improved);
        assert_eq!(judge(&QUALITY, 0.9, 0.9, &[], &[]), Verdict::Unchanged);
    }

    #[test]
    fn noisy_ratios_on_both_sides_of_one_are_unresolved() {
        let base = [1.0, 1.0, 1.0, 1.0, 1.0];
        assert_eq!(
            judge(&WALL, 1.0, 1.2, &base, &[0.8, 1.0, 1.2, 1.3, 1.4]),
            Verdict::Unresolved
        );
        // As noisy, but every sample got slower.
        assert_eq!(
            judge(&WALL, 1.0, 2.0, &base, &[1.6, 1.9, 2.0, 2.2, 2.6]),
            Verdict::Regressed
        );
        // On both sides of one but tight: the bound decides.
        assert_eq!(
            judge(&WALL, 1.0, 1.01, &base, &[0.99, 1.0, 1.01, 1.02, 1.01]),
            Verdict::Unchanged
        );
        // A single sample says nothing about noise.
        assert_eq!(judge(&WALL, 1.0, 1.2, &[1.0], &[1.2]), Verdict::Regressed);
    }
}
