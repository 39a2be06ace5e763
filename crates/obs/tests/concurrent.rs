//! Multi-threaded stress tests for the process-wide registry.
//!
//! The library's unit tests exercise the registry from one thread at a
//! time; these tests hammer it from N threads concurrently and assert that
//! the aggregates match the serial sum exactly — counters and histograms
//! merge under the registry mutex, so no recording may be lost or double
//! counted. They live in their own integration-test binary (a dedicated
//! process) so no other test can race the process-wide enabled flag.

use std::sync::Mutex;
use wavesched_obs as obs;

/// Serialize the tests in this binary: they all toggle the global registry.
static OBS_LOCK: Mutex<()> = Mutex::new(());

const THREADS: usize = 8;
const PER_THREAD: u64 = 2_000;

fn with_enabled<R>(f: impl FnOnce() -> R) -> R {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obs::reset();
    obs::set_enabled(true);
    let r = f();
    obs::set_enabled(false);
    obs::reset();
    r
}

fn counter(snap: &[obs::Metric], want: &str) -> Option<u64> {
    snap.iter().find_map(|m| match m {
        obs::Metric::Counter { name, value } if name == want => Some(*value),
        _ => None,
    })
}

#[test]
fn concurrent_counters_sum_exactly() {
    with_enabled(|| {
        std::thread::scope(|s| {
            for t in 0..THREADS {
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        obs::counter_add("stress.shared", 1);
                        obs::counter_add(&format!("stress.thread{t}"), i % 3);
                    }
                });
            }
        });
        let snap = obs::snapshot();
        assert_eq!(
            counter(&snap, "stress.shared"),
            Some(THREADS as u64 * PER_THREAD)
        );
        // Each private counter saw sum(i % 3 for i in 0..PER_THREAD).
        let expect: u64 = (0..PER_THREAD).map(|i| i % 3).sum();
        for t in 0..THREADS {
            assert_eq!(
                counter(&snap, &format!("stress.thread{t}")),
                Some(expect),
                "thread-{t} private counter"
            );
        }
    });
}

#[test]
fn concurrent_histograms_match_serial_totals() {
    with_enabled(|| {
        std::thread::scope(|s| {
            for t in 0..THREADS as u64 {
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        obs::record("stress.hist", t * PER_THREAD + i);
                    }
                });
            }
        });
        let snap = obs::snapshot();
        let m = snap
            .iter()
            .find(|m| matches!(m, obs::Metric::Histogram { name, .. } if name == "stress.hist"))
            .expect("histogram recorded");
        let obs::Metric::Histogram {
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
        let n = THREADS as u64 * PER_THREAD;
        assert_eq!(*count, n);
        assert_eq!(*sum, n * (n - 1) / 2, "sum of 0..n");
        assert_eq!(*min, 0);
        assert_eq!(*max, n - 1);
        let bucket_total: u64 = buckets.iter().map(|&(_, c)| c).sum();
        assert_eq!(bucket_total, n, "every observation lands in a bucket");
    });
}

#[test]
fn concurrent_spans_aggregate_per_path() {
    with_enabled(|| {
        const SPANS: u64 = 500;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..SPANS {
                        let _outer = obs::span("stress_outer");
                        let _inner = obs::span("stress_inner");
                    }
                });
            }
        });
        let snap = obs::snapshot();
        let span_count = |want: &str| {
            snap.iter().find_map(|m| match m {
                obs::Metric::Span { path, count, .. } if path == want => Some(*count),
                _ => None,
            })
        };
        assert_eq!(span_count("stress_outer"), Some(THREADS as u64 * SPANS));
        assert_eq!(
            span_count("stress_outer/stress_inner"),
            Some(THREADS as u64 * SPANS)
        );
    });
}

#[test]
fn enable_toggle_races_do_not_corrupt_totals() {
    // Flip the enabled bit while writers hammer a counter: the final value
    // must never exceed the writes issued, and re-enabling keeps working.
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obs::reset();
    obs::set_enabled(true);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..PER_THREAD {
                    obs::counter_add("stress.toggle", 1);
                }
            });
        }
        s.spawn(|| {
            for _ in 0..50 {
                obs::set_enabled(false);
                std::thread::yield_now();
                obs::set_enabled(true);
            }
        });
    });
    obs::set_enabled(true);
    let snap = obs::snapshot();
    let v = counter(&snap, "stress.toggle").unwrap_or(0);
    assert!(
        v <= 4 * PER_THREAD,
        "counter overshot: {v} > {}",
        4 * PER_THREAD
    );
    obs::set_enabled(false);
    obs::reset();
}
