//! # wavesched-par — deterministic work-pool parallelism
//!
//! A from-scratch scoped work pool built on `std::thread::scope` — no
//! external dependencies (crates.io is unreachable in the build
//! environment, so `rayon` is not an option, and the pool's guarantees are
//! stronger than we would get from it anyway):
//!
//! * **Order-preserving, deterministic reduction.** [`par_map`] /
//!   [`par_map_indexed_with`] collect results into a vector indexed by *input*
//!   position, regardless of which worker computed what and in which order
//!   tasks finished. Callers fold that vector on one thread, so parallel
//!   execution never reassociates floating-point reductions — results are
//!   bit-identical to the serial fold.
//! * **Serial fallback through the same code path.** With one thread (the
//!   `WS_THREADS=1` knob, a single-core host, or a single item) the mapped
//!   closure runs inline on the calling thread — no spawn, no channels —
//!   making the serial path the trivially-correct baseline the parallel
//!   path is tested against.
//! * **Panic propagation.** A panicking task panics the calling thread with
//!   the original payload once every worker has stopped; panics are never
//!   swallowed into missing results.
//! * **Observability attachment.** Workers adopt the spawning thread's
//!   `wavesched-obs` span path ([`wavesched_obs::attach`]), so spans opened
//!   inside pool tasks aggregate under the span that spawned the work and
//!   `--report` output still folds into one tree.
//!
//! ## Thread-count resolution
//!
//! Every entry point takes an explicit thread count, with `0` meaning
//! "resolve from the environment": the `WS_THREADS` variable when set
//! (rejected loudly when unparseable or `0` — a silently misread knob would
//! invalidate a benchmark), otherwise [`available`] parallelism.
//!
//! Scheduling is dynamic (workers pull the next index from an atomic
//! counter), so uneven task costs balance automatically; determinism comes
//! from indexed result placement, not from a static assignment.

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The machine's available parallelism (1 when it cannot be determined).
pub fn available() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Parses a `WS_THREADS`-style setting. `None` (unset) resolves to
/// `default`; garbage and `0` are errors — a thread-count knob that
/// silently fell back would make every "parallel" measurement a lie.
pub fn parse_threads(value: Option<&str>, default: usize) -> Result<usize, String> {
    match value {
        None => Ok(default),
        Some(s) => match s.parse::<usize>() {
            Ok(0) => Err(format!(
                "WS_THREADS={s:?}: thread count must be >= 1 (use 1 for the serial path)"
            )),
            Ok(n) => Ok(n),
            Err(_) => Err(format!("WS_THREADS={s:?} is not a valid thread count")),
        },
    }
}

/// The pool width requested by the environment: `WS_THREADS` when set,
/// otherwise [`available`] parallelism. Exits loudly (status 2) on an
/// unparseable or zero `WS_THREADS`, mirroring how the bench harness
/// rejects unknown CLI flags.
pub fn threads() -> usize {
    #[expect(
        clippy::disallowed_methods,
        reason = "the one WS_THREADS reader: a misread exits loudly instead of running at a width nobody asked for"
    )]
    let var = std::env::var("WS_THREADS").ok();
    match parse_threads(var.as_deref(), available()) {
        Ok(n) => n,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}

/// Resolves a caller-supplied thread count: `0` defers to [`threads`] (the
/// `WS_THREADS` env knob), anything else is taken as-is.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        threads()
    } else {
        requested
    }
}

/// Maps `f` over `0..n` on a scoped pool of at most `threads` workers
/// (`0` = the `WS_THREADS` env knob), returning `vec![f(0), f(1), ...]`.
///
/// Results are placed by input index, so the returned vector — and any
/// fold the caller performs over it — is identical for every thread count.
/// With an effective width of 1 (or `n <= 1`) the closures run inline on
/// the calling thread: no thread is spawned.
///
/// # Panics
/// Re-raises the panic of any task on the calling thread.
pub fn par_map_indexed_with<R, F>(threads: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let width = resolve_threads(threads).min(n);
    if width <= 1 {
        // Serial fallback: same entry point, same closure, calling thread.
        return (0..n).map(f).collect();
    }
    let parent = wavesched_obs::current_span_path();
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..width)
            .map(|_| {
                let f = &f;
                let next = &next;
                let parent = parent.clone();
                scope.spawn(move || {
                    let _obs = wavesched_obs::attach(parent);
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, f(i)));
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(pairs) => {
                    for (i, r) in pairs {
                        slots[i] = Some(r);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    #[expect(
        clippy::expect_used,
        reason = "invariant: the work pool writes every slot exactly once before join"
    )]
    slots
        .into_iter()
        .map(|s| s.expect("invariant: every index mapped"))
        .collect()
}

/// Maps `f` over `items` with the environment's thread count, preserving
/// input order. See [`par_map_indexed_with`].
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with(0, items, f)
}

/// Maps `f` over `items` on at most `threads` workers (`0` = the
/// `WS_THREADS` env knob), preserving input order. See
/// [`par_map_indexed_with`].
pub fn par_map_with<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed_with(threads, items.len(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::ThreadId;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let out = par_map_with(8, &items, |&x| x * 2);
        assert_eq!(out, (0..257).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn reduction_is_bit_identical_across_widths() {
        // A floating-point fold whose result depends on association order:
        // identical across 1, 2, 3, 8 threads because the fold happens over
        // the index-ordered vector on the calling thread.
        let xs: Vec<f64> = (1..500).map(|i| 1.0 / i as f64).collect();
        let fold = |width: usize| {
            par_map_with(width, &xs, |&x| x.sin().exp())
                .into_iter()
                .sum::<f64>()
        };
        let serial = fold(1);
        for width in [2, 3, 8] {
            assert_eq!(serial.to_bits(), fold(width).to_bits(), "width {width}");
        }
    }

    #[test]
    fn one_thread_runs_inline_without_spawning() {
        let caller = std::thread::current().id();
        let ids = par_map_indexed_with(1, 16, |_| std::thread::current().id());
        assert!(
            ids.iter().all(|&id| id == caller),
            "WS_THREADS=1 must execute on the calling thread"
        );
        // Single item also stays inline even with a wide pool.
        let ids = par_map_indexed_with(8, 1, |_| std::thread::current().id());
        assert_eq!(ids, vec![caller]);
    }

    #[test]
    fn wide_pool_actually_uses_worker_threads() {
        let caller = std::thread::current().id();
        let ids: Vec<ThreadId> = par_map_indexed_with(4, 64, |_| std::thread::current().id());
        assert!(
            ids.iter().all(|&id| id != caller),
            "a >1-wide pool must run tasks on spawned workers"
        );
    }

    #[test]
    fn dynamic_scheduling_completes_unbalanced_work() {
        // One task is 100x the others; all indices still get exactly one
        // result in place.
        let out = par_map_indexed_with(4, 40, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i * i
        });
        assert_eq!(out, (0..40).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "task 7 exploded")]
    fn worker_panic_propagates_to_caller() {
        par_map_indexed_with(4, 16, |i| {
            if i == 7 {
                panic!("task 7 exploded");
            }
            i
        });
    }

    #[test]
    #[should_panic(expected = "inline panic")]
    fn inline_panic_propagates_too() {
        par_map_indexed_with(1, 4, |i| {
            if i == 2 {
                panic!("inline panic");
            }
            i
        });
    }

    #[test]
    fn parse_threads_accepts_counts_and_defaults() {
        assert_eq!(parse_threads(None, 7), Ok(7));
        assert_eq!(parse_threads(Some("1"), 7), Ok(1));
        assert_eq!(parse_threads(Some("16"), 7), Ok(16));
    }

    #[test]
    fn parse_threads_rejects_zero_and_garbage() {
        assert!(parse_threads(Some("0"), 4).is_err(), "WS_THREADS=0");
        assert!(parse_threads(Some("abc"), 4).is_err(), "WS_THREADS=abc");
        assert!(parse_threads(Some("-2"), 4).is_err(), "WS_THREADS=-2");
        assert!(parse_threads(Some("1.5"), 4).is_err(), "WS_THREADS=1.5");
        assert!(parse_threads(Some(""), 4).is_err(), "WS_THREADS=");
    }

    #[test]
    fn resolve_threads_passes_explicit_counts_through() {
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(resolve_threads(1), 1);
        // 0 defers to the env/default path; just ensure it is >= 1.
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = par_map_indexed_with(4, 0, |_| unreachable!());
        assert!(out.is_empty());
    }
}
