//! Zero-dependency parallel sweep executor.
//!
//! Regenerating the paper's figures is embarrassingly parallel: Figure 8
//! alone is 13 workloads × 6 (model, flavour) configs of fully
//! independent, deterministic simulations. [`par_map`] fans a flat slice
//! of jobs out across [`std::thread::scope`] workers and returns the
//! results **in input order**, so every table assembled from the
//! outcomes is byte-identical to what a serial `for` loop produces —
//! only the wall clock changes.
//!
//! Scheduling is a shared atomic cursor: each worker repeatedly claims
//! the next unclaimed index and runs it. That gives dynamic load
//! balancing (long sims do not convoy short ones behind a fixed
//! pre-partition) with none of the machinery of a real work-stealing
//! deque — sweeps have no nested parallelism to steal from.
//!
//! Worker count resolution, in priority order:
//! 1. an explicit [`par_map_with`] argument (tests pin 1/2/N),
//! 2. a process-wide override set by [`set_worker_override`]
//!    (the binaries' `--workers N` flag),
//! 3. [`std::thread::available_parallelism`].
//!
//! With [`set_progress`] enabled (the binaries' `--progress` flag),
//! sweeps print a throttled `N/M jobs, ETA …` line to stderr — stdout
//! stays clean for piped table output.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::Instant;

/// Process-wide worker-count override (0 = unset). See [`set_worker_override`].
static WORKER_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Process-wide progress-reporting toggle. See [`set_progress`].
static PROGRESS: AtomicBool = AtomicBool::new(false);

/// Pin the worker count for every subsequent [`par_map`] in this
/// process (the harness binaries wire `--workers N` here). `0` clears
/// the override.
pub fn set_worker_override(n: usize) {
    WORKER_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Enable (or disable) the stderr `N/M jobs, ETA …` progress line for
/// every subsequent [`par_map`] in this process (the harness binaries
/// wire `--progress` here). Off by default: progress output is for
/// humans watching a long sweep, not for CI logs.
pub fn set_progress(on: bool) {
    PROGRESS.store(on, Ordering::Relaxed);
}

/// Whether [`set_progress`] reporting is currently enabled.
pub fn progress_enabled() -> bool {
    PROGRESS.load(Ordering::Relaxed)
}

/// Pure worker-count resolution: `override_` (a [`set_worker_override`]
/// value, 0 = unset) wins, else `fallback` (available parallelism),
/// floored at 1. Factored out of [`num_workers`] so the resolution
/// order is testable without mutating process-global state.
fn resolve_workers(override_: usize, fallback: usize) -> usize {
    if override_ > 0 {
        override_
    } else {
        fallback.max(1)
    }
}

/// The worker count [`par_map`] will use: the [`set_worker_override`]
/// value if set, else [`std::thread::available_parallelism`].
pub fn num_workers() -> usize {
    resolve_workers(
        WORKER_OVERRIDE.load(Ordering::Relaxed),
        thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    )
}

/// Throttled stderr progress reporter shared by the pool's workers.
struct Progress {
    total: usize,
    completed: AtomicUsize,
    started: Instant,
}

impl Progress {
    fn new(total: usize) -> Option<Progress> {
        (progress_enabled() && total > 0).then(|| Progress {
            total,
            completed: AtomicUsize::new(0),
            started: Instant::now(),
        })
    }

    /// Mark one job done; prints at ~2% granularity and on the last job.
    fn tick(&self) {
        let done = self.completed.fetch_add(1, Ordering::Relaxed) + 1;
        let step = (self.total / 50).max(1);
        if !done.is_multiple_of(step) && done != self.total {
            return;
        }
        let elapsed = self.started.elapsed();
        let eta = elapsed.mul_f64((self.total - done) as f64 / done as f64);
        eprint!("\r# {done}/{} jobs, ETA {eta:>8.1?}   ", self.total);
        if done == self.total {
            eprintln!();
        }
    }
}

/// Apply `f` to every item, running up to [`num_workers`] jobs
/// concurrently; results come back in input order regardless of which
/// worker finished first.
///
/// A panic inside `f` propagates to the caller once all workers have
/// stopped, exactly as it would from a serial loop.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_with(items, num_workers(), f)
}

/// [`par_map`] with an explicit worker count (clamped to
/// `1..=items.len()`). `workers == 1` degenerates to the plain serial
/// loop on the calling thread — no threads are spawned.
pub fn par_map_with<T, U, F>(items: &[T], workers: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let workers = workers.clamp(1, items.len().max(1));
    let progress = Progress::new(items.len());
    let run = |x: &T| {
        let u = f(x);
        if let Some(p) = &progress {
            p.tick();
        }
        u
    };
    if workers <= 1 || items.len() <= 1 {
        return items.iter().map(run).collect();
    }

    let cursor = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(items.len()));
    thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                // Claim-run-repeat, buffering results locally so the
                // mutex is taken once per worker, not once per job.
                let mut local: Vec<(usize, U)> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    local.push((i, run(&items[i])));
                }
                done.lock().expect("no poisoned worker").extend(local);
            });
        }
    });

    let mut slots: Vec<Option<U>> = (0..items.len()).map(|_| None).collect();
    for (i, u) in done.into_inner().expect("workers joined") {
        debug_assert!(slots[i].is_none(), "index {i} claimed twice");
        slots[i] = Some(u);
    }
    slots
        .into_iter()
        .map(|o| o.expect("every index claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        for workers in [1, 2, 3, 8, 64] {
            let out = par_map_with(&items, workers, |&x| x * 3);
            let expect: Vec<u64> = items.iter().map(|&x| x * 3).collect();
            assert_eq!(out, expect, "workers={workers}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[41], |&x| x + 1), vec![42]);
    }

    #[test]
    fn uneven_job_lengths_still_ordered() {
        // Long jobs first: a naive collect-in-completion-order scheme
        // would return these scrambled.
        let items: Vec<u64> = (0..64).rev().collect();
        let out = par_map_with(&items, 4, |&x| {
            let mut acc = 0u64;
            for i in 0..(x * 1000) {
                acc = acc.wrapping_add(i ^ acc.rotate_left(7));
            }
            (x, acc).0
        });
        assert_eq!(out, items);
    }

    #[test]
    fn worker_count_resolution() {
        // Assert the resolution order through the pure function only:
        // the old version mutated the process-global WORKER_OVERRIDE,
        // racing sibling tests that call num_workers() concurrently.
        assert_eq!(resolve_workers(3, 16), 3, "override wins");
        assert_eq!(resolve_workers(0, 16), 16, "fallback last");
        assert_eq!(resolve_workers(0, 0), 1, "floor of one");
        // Read-only smoke check of the real path.
        assert!(num_workers() >= 1);
    }

    #[test]
    fn panic_in_job_propagates() {
        let items: Vec<u32> = (0..16).collect();
        let r = std::panic::catch_unwind(|| {
            par_map_with(&items, 4, |&x| {
                if x == 7 {
                    panic!("job 7 failed");
                }
                x
            })
        });
        assert!(r.is_err(), "worker panic must reach the caller");
    }
}
