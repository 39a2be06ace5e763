//! # wavesched-obs — structured observability
//!
//! Zero-dependency instrumentation for the wavesched workspace: RAII
//! [spans](span) on the monotonic clock with nesting-aware paths, monotone
//! [counters](counter_add), and log₂-bucketed [histograms](record).
//!
//! Everything but [`mem`] is **per thread**, with no lock: a thread enables,
//! records into and reads back only its own registry, so whatever is
//! measured runs on that thread ([`Span`] is `!Send`).
//!
//! The layer is **disabled by default**. Every recording call first reads
//! the thread's flag, so the disabled path costs one predictable branch and
//! touches no clock — instrumentation can stay in hot code permanently.
//! The diagnostic [`recordings`] counter tells tests exactly how many
//! instrumentation branches were actually taken.
//!
//! Snapshots ([`snapshot`]) serialize to JSON lines ([`to_json_lines`]) and
//! parse back ([`parse_json_lines`]) without any external JSON crate, giving
//! bench binaries a stable `--report` schema. [`render_span_tree`] prints
//! the aggregated span hierarchy for the CLI's `--trace` flag.

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod json;
pub mod mem;

pub use json::{parse_json_lines, to_json_lines};

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::time::Instant;

/// Number of histogram buckets: bucket `i` counts values of bit length `i`
/// (so bucket 0 holds only the value 0, bucket 1 holds 1, bucket 2 holds
/// 2–3, …, bucket 64 holds values ≥ 2⁶³).
pub const HIST_BUCKETS: usize = 65;

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static RECORDINGS: Cell<u64> = const { Cell::new(0) };
    static REGISTRY: RefCell<Inner> = RefCell::default();
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Turns the layer on or off for this thread. Off (the default) makes
/// every instrumentation call a single-branch no-op.
pub fn set_enabled(on: bool) {
    ENABLED.set(on);
}

/// True when the layer is recording on this thread.
pub fn enabled() -> bool {
    ENABLED.get()
}

/// Total number of instrumentation recordings taken by this thread, ever
/// (not cleared by [`reset`]). With the layer disabled this value does not
/// move — the overhead-guard tests assert exactly that.
pub fn recordings() -> u64 {
    RECORDINGS.get()
}

/// Counts one recording and applies `f` to the calling thread's registry.
fn with_registry(f: impl FnOnce(&mut Inner)) {
    RECORDINGS.set(RECORDINGS.get() + 1);
    REGISTRY.with_borrow_mut(f);
}

#[derive(Clone, Copy)]
struct Hist {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; HIST_BUCKETS],
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

#[derive(Clone, Copy, Default)]
struct SpanStat {
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, Hist>,
    spans: BTreeMap<String, SpanStat>,
}

/// Bucket index of `v`: its bit length.
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Adds `delta` to the monotone counter `name` (creating it at zero).
pub fn counter_add(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    with_registry(|inner| *inner.counters.entry(name.to_string()).or_insert(0) += delta);
}

/// Records one observation of `value` into the histogram `name`.
pub fn record(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    with_registry(|inner| {
        let h = inner.hists.entry(name.to_string()).or_default();
        h.count += 1;
        h.sum = h.sum.saturating_add(value);
        h.min = if h.count == 1 {
            value
        } else {
            h.min.min(value)
        };
        h.max = h.max.max(value);
        h.buckets[bucket_of(value)] += 1;
    });
}

/// A scoped timer. Created by [`span`]; records its wall-clock duration
/// (monotonic clock) into this thread's registry when dropped, under the
/// `/`-joined path of all spans live on this thread at creation time. It
/// is `!Send`: it must close on the thread whose span stack it joined.
///
/// ```compile_fail
/// fn send<T: Send>(_: T) {}
/// send(wavesched_obs::span("moved"));
/// ```
#[must_use = "a span records on drop; bind it with `let _span = ...`"]
pub struct Span {
    armed: Option<(String, Instant, PhantomData<*const ()>)>,
}

/// Opens a span named `name` nested under the spans currently live on this
/// thread; a span opened on a fresh thread starts at the root. When the
/// layer is disabled this is a single branch: no clock is read and nothing is
/// allocated.
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { armed: None };
    }
    let path = SPAN_STACK.with(|s| {
        let mut s = s.borrow_mut();
        let path = if s.is_empty() {
            name.to_string()
        } else {
            let mut p = s.join("/");
            p.push('/');
            p.push_str(name);
            p
        };
        s.push(name);
        path
    });
    Span {
        #[expect(
            clippy::disallowed_methods,
            reason = "a span's duration is what the obs layer records; no scheduling decision reads it"
        )]
        armed: Some((path, Instant::now(), PhantomData)),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((path, start, _)) = self.armed.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            SPAN_STACK.with(|s| {
                s.borrow_mut().pop();
            });
            with_registry(|inner| {
                let st = inner.spans.entry(path).or_default();
                st.count += 1;
                st.total_ns += ns;
                st.min_ns = if st.count == 1 { ns } else { st.min_ns.min(ns) };
                st.max_ns = st.max_ns.max(ns);
            });
        }
    }
}

/// One registry metric, as exported by [`snapshot`]. The JSON-lines schema
/// emitted by [`to_json_lines`] maps each variant to one line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Metric {
    /// A monotone counter.
    Counter {
        /// Registry name.
        name: String,
        /// Accumulated value.
        value: u64,
    },
    /// A log₂-bucketed histogram.
    Histogram {
        /// Registry name.
        name: String,
        /// Number of recorded observations.
        count: u64,
        /// Sum of observations (saturating).
        sum: u64,
        /// Smallest observation.
        min: u64,
        /// Largest observation.
        max: u64,
        /// Sparse `(bucket index, count)` pairs; the index is the bit
        /// length of the observed value (see [`HIST_BUCKETS`]).
        buckets: Vec<(u32, u64)>,
    },
    /// An aggregated span (all completions of one nesting path).
    Span {
        /// `/`-joined nesting path, e.g. `pipeline/stage1`.
        path: String,
        /// Number of completed spans on this path.
        count: u64,
        /// Total duration in nanoseconds.
        total_ns: u64,
        /// Shortest single span.
        min_ns: u64,
        /// Longest single span.
        max_ns: u64,
    },
}

/// Copies this thread's registry out: counters, then histograms, then
/// spans, each sorted by name/path.
pub fn snapshot() -> Vec<Metric> {
    REGISTRY.with_borrow(|inner| {
        let mut out = Vec::new();
        for (name, &value) in &inner.counters {
            out.push(Metric::Counter {
                name: name.clone(),
                value,
            });
        }
        for (name, h) in &inner.hists {
            let buckets = h
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| (i as u32, c))
                .collect();
            out.push(Metric::Histogram {
                name: name.clone(),
                count: h.count,
                sum: h.sum,
                min: h.min,
                max: h.max,
                buckets,
            });
        }
        for (path, s) in &inner.spans {
            out.push(Metric::Span {
                path: path.clone(),
                count: s.count,
                total_ns: s.total_ns,
                min_ns: s.min_ns,
                max_ns: s.max_ns,
            });
        }
        out
    })
}

/// Clears this thread's counters, histograms and span aggregates (the
/// [`recordings`] diagnostic is monotone and survives).
pub fn reset() {
    REGISTRY.with_borrow_mut(|inner| {
        inner.counters.clear();
        inner.hists.clear();
        inner.spans.clear();
    });
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Renders this thread's aggregated span hierarchy as an indented text tree
/// (`count`, total and mean duration per path), for the CLI `--trace` flag.
pub fn render_span_tree() -> String {
    REGISTRY.with_borrow(|inner| {
        let mut out = String::new();
        if inner.spans.is_empty() {
            out.push_str("(no spans recorded)\n");
            return out;
        }
        out.push_str("span tree (count  total  mean):\n");
        // BTreeMap order puts every parent path immediately before its
        // children ('/' sorts below all path characters we use).
        for (path, s) in &inner.spans {
            let depth = path.matches('/').count();
            let name = path.rsplit('/').next().unwrap_or(path);
            let mean = s.total_ns / s.count.max(1);
            let indent = "  ".repeat(depth);
            out.push_str(&format!(
                "{indent}{name:<w$} {:>6}  {:>9}  {:>9}\n",
                s.count,
                fmt_ns(s.total_ns),
                fmt_ns(mean),
                w = 28usize.saturating_sub(indent.len()),
            ));
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is the test thread's own: no lock, and the closing reset
    // leaves it empty for whatever runs next on this thread.
    fn with_enabled<R>(f: impl FnOnce() -> R) -> R {
        set_enabled(true);
        let r = f();
        set_enabled(false);
        reset();
        r
    }

    fn counter_value(snap: &[Metric], want: &str) -> Option<u64> {
        snap.iter().find_map(|m| match m {
            Metric::Counter { name, value } if name == want => Some(*value),
            _ => None,
        })
    }

    #[test]
    fn disabled_is_a_no_op_and_takes_no_recording_branch() {
        let before = recordings();
        counter_add("x", 3);
        record("h", 9);
        {
            let _s = span("quiet");
        }
        assert_eq!(recordings(), before, "disabled calls must record nothing");
        assert!(!snapshot().iter().any(|m| matches!(
            m,
            Metric::Counter { name, .. } if name == "x"
        )));
    }

    #[test]
    fn counters_accumulate() {
        with_enabled(|| {
            counter_add("a.b", 2);
            counter_add("a.b", 3);
            counter_add("zzz", 1);
            let snap = snapshot();
            assert_eq!(counter_value(&snap, "a.b"), Some(5));
            assert_eq!(counter_value(&snap, "zzz"), Some(1));
        });
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        with_enabled(|| {
            for v in [0u64, 1, 2, 3, 4, 1024] {
                record("h", v);
            }
            let snap = snapshot();
            let m = snap
                .iter()
                .find(|m| matches!(m, Metric::Histogram { name, .. } if name == "h"))
                .expect("histogram present");
            let Metric::Histogram {
                count,
                sum,
                min,
                max,
                buckets,
                ..
            } = m
            else {
                unreachable!()
            };
            assert_eq!(*count, 6);
            assert_eq!(*sum, 1034);
            assert_eq!(*min, 0);
            assert_eq!(*max, 1024);
            // 0 → bucket 0, 1 → 1, {2,3} → 2, 4 → 3, 1024 → 11.
            assert_eq!(
                buckets.as_slice(),
                &[(0, 1), (1, 1), (2, 2), (3, 1), (11, 1)]
            );
        });
    }

    #[test]
    fn spans_nest_into_paths() {
        with_enabled(|| {
            {
                let _outer = span("outer");
                {
                    let _inner = span("inner");
                }
                {
                    let _inner = span("inner");
                }
            }
            let snap = snapshot();
            let paths: Vec<(&str, u64)> = snap
                .iter()
                .filter_map(|m| match m {
                    Metric::Span { path, count, .. } => Some((path.as_str(), *count)),
                    _ => None,
                })
                .collect();
            assert_eq!(paths, vec![("outer", 1), ("outer/inner", 2)]);
            let tree = render_span_tree();
            assert!(tree.contains("outer"), "tree:\n{tree}");
            assert!(tree.contains("  inner"), "tree:\n{tree}");
        });
    }

    #[test]
    fn reset_clears_but_recordings_is_monotone() {
        with_enabled(|| {
            counter_add("c", 1);
            let taken = recordings();
            assert!(taken > 0);
            reset();
            assert!(snapshot().is_empty());
            assert_eq!(recordings(), taken);
        });
    }

    #[test]
    fn bucket_of_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert!(bucket_of(u64::MAX) < HIST_BUCKETS);
    }
}
