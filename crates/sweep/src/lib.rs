//! Deterministic parallel sweep engine.
//!
//! Every paper artifact the workspace regenerates (survival cohorts,
//! chaos intensity levels, ablation arms, site comparisons, the full
//! `experiments` binary) is a fan-out over fully independent seeded
//! cells. [`run_cells`] executes such a fan-out on a scoped
//! `std::thread` worker pool with an atomic work index and
//! index-ordered result slots, so the collected `Vec<R>` is
//! **byte-identical to serial execution for any thread count** — the
//! property the repo's determinism tests and the CI probe
//! (`GLACSWEB_THREADS=1` vs `=4`, diff the output) assert.
//!
//! Thread count resolution (see [`threads`]): an explicit
//! [`with_threads`] override (used by tests), then the
//! `GLACSWEB_THREADS` environment variable (set by the `--threads N`
//! flag of the `experiments` binary), then
//! [`std::thread::available_parallelism`].
//!
//! No external dependencies: the pool is scoped threads + atomics from
//! `std`, which keeps the workspace offline-friendly.
//!
//! # Example
//!
//! ```
//! use glacsweb_sweep::run_cells;
//!
//! let squares = run_cells((0u64..100).collect(), 4, |x| x * x);
//! assert_eq!(squares[7], 49);
//! assert_eq!(squares, run_cells((0u64..100).collect(), 1, |x| x * x));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use glacsweb_obs::MemoryRecorder;

/// Environment variable consulted by [`threads`] when no explicit
/// override is active.
pub const THREADS_ENV: &str = "GLACSWEB_THREADS";

thread_local! {
    /// Per-thread override installed by [`with_threads`].
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Executes independent `cells` with up to `threads` workers and
/// returns the results in input order.
///
/// Each cell is claimed exactly once via an atomic work index and its
/// result written to the slot matching its input position, so the
/// output is identical for any `threads` value — parallelism changes
/// wall-clock, never bytes. Cells must therefore be *self-seeded*:
/// everything stochastic a cell does has to derive from the cell's own
/// inputs, never from shared mutable state.
///
/// `threads == 0` is treated as 1. With one worker (or at most one
/// cell) no threads are spawned at all — the serial fast path runs the
/// cells inline on the caller's stack.
///
/// # Panics
///
/// Propagates the panic of any cell (the scope joins all workers
/// first, so no cell is silently lost).
pub fn run_cells<T, R, F>(cells: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = cells.len();
    let workers = threads.max(1).min(n.max(1));
    if workers <= 1 {
        return cells.into_iter().map(f).collect();
    }

    // Input cells and output slots, both indexable by cell position.
    // Workers `take()` a cell under its own lock (uncontended: the
    // atomic index hands every position to exactly one worker) and park
    // the result in the matching slot, preserving input ordering.
    let work: Vec<Mutex<Option<T>>> = cells.into_iter().map(|c| Mutex::new(Some(c))).collect();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let f = &f;
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let cell = work[i]
                    .lock()
                    .expect("cell lock")
                    .take()
                    .expect("cell claimed once");
                let result = f(cell);
                *slots[i].lock().expect("slot lock") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock")
                .expect("every claimed cell stores a result")
        })
        .collect()
}

/// [`run_cells`] for observed cells: each cell returns its result plus
/// a per-cell [`MemoryRecorder`], and the recorders are folded into one
/// in input-index order while the fan-out runs.
///
/// Cell *i*'s recorder is merged as soon as cell *i* finishes if cells
/// `0..i` are already merged; otherwise it is parked until they are.
/// The merge order is therefore the cell order (never completion
/// order), so the merged telemetry — including its JSON export — is
/// **byte-identical for any thread count**, the same contract
/// `run_cells` gives the results. What stays alive is the merged
/// recorder plus the parked ones: the out-of-order window, which for
/// cells of similar cost is about one recorder per worker.
pub fn run_cells_observed<T, R, F>(cells: Vec<T>, threads: usize, f: F) -> (Vec<R>, MemoryRecorder)
where
    T: Send,
    R: Send,
    F: Fn(T) -> (R, MemoryRecorder) + Sync,
{
    let fold = Mutex::new(Fold::default());
    let cells: Vec<(usize, T)> = cells.into_iter().enumerate().collect();
    let results = run_cells(cells, threads, |(i, cell)| {
        let (result, recorder) = f(cell);
        fold.lock().expect("fold lock").offer(i, recorder);
        result
    });
    let fold = fold.into_inner().expect("fold lock");
    debug_assert!(fold.parked.is_empty(), "every cell was merged");
    (results, fold.merged)
}

/// The in-order fold of [`run_cells_observed`].
#[derive(Default)]
struct Fold {
    merged: MemoryRecorder,
    /// The next cell to merge: cells `0..next` are in `merged`.
    next: usize,
    /// Finished cells waiting for an earlier cell, by index.
    parked: BTreeMap<usize, MemoryRecorder>,
}

impl Fold {
    /// Takes cell `i`'s recorder and merges every recorder that is now
    /// next in cell order.
    fn offer(&mut self, i: usize, recorder: MemoryRecorder) {
        self.parked.insert(i, recorder);
        while let Some(recorder) = self.parked.remove(&self.next) {
            self.merged.merge_from(recorder);
            self.next += 1;
        }
    }
}

/// Resolves the worker-pool size for this thread.
///
/// Priority: an active [`with_threads`] override, then a parseable
/// positive `GLACSWEB_THREADS` environment variable, then
/// [`std::thread::available_parallelism`] (1 if unavailable).
pub fn threads() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(Cell::get) {
        return n.max(1);
    }
    // glacsweb: allow(determinism, reason = "GLACSWEB_THREADS selects the worker-pool size only; index-ordered result slots make output byte-identical at any thread count (tests/parallel_determinism.rs)")
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    // glacsweb: allow(determinism, reason = "host core count sizes the worker pool only; results are independent of thread count by the engine's ordered-slot contract")
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `f` with [`threads`] pinned to `n` on the current thread.
///
/// This is how the determinism tests compare a whole experiment at
/// `threads = 1` against `threads = 4` without touching process-global
/// environment variables (which would race across concurrent tests).
/// The override is restored even if `f` panics.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.with(|o| o.replace(Some(n))));
    f()
}

/// Resolves the pool size from an optional command-line value.
///
/// A CLI `--threads N` beats the environment/default chain in
/// [`threads`].
pub fn resolve_threads(cli: Option<usize>) -> usize {
    match cli {
        Some(n) => n.max(1),
        None => threads(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn serial_and_parallel_agree() {
        let input: Vec<u64> = (0..1000).collect();
        let serial = run_cells(input.clone(), 1, |x| x.wrapping_mul(x) ^ 0xABCD);
        for threads in [2, 3, 4, 8, 64] {
            let parallel = run_cells(input.clone(), threads, |x| x.wrapping_mul(x) ^ 0xABCD);
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single_cells() {
        let empty: Vec<u32> = Vec::new();
        assert_eq!(run_cells(empty, 8, |x| x + 1), Vec::<u32>::new());
        assert_eq!(run_cells(vec![41], 8, |x| x + 1), vec![42]);
    }

    #[test]
    fn zero_threads_means_one() {
        assert_eq!(run_cells(vec![1, 2, 3], 0, |x| x * 10), vec![10, 20, 30]);
    }

    #[test]
    fn non_copy_cells_move_through() {
        let cells: Vec<String> = (0..50).map(|i| format!("cell-{i}")).collect();
        let out = run_cells(cells, 4, |s| s.len());
        assert_eq!(out.len(), 50);
        assert_eq!(out[0], 6);
        assert_eq!(out[10], 7);
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = threads();
        let inner = with_threads(3, threads);
        assert_eq!(inner, 3);
        assert_eq!(threads(), outer, "override restored");
    }

    #[test]
    fn with_threads_nests() {
        with_threads(5, || {
            assert_eq!(threads(), 5);
            with_threads(2, || assert_eq!(threads(), 2));
            assert_eq!(threads(), 5);
        });
    }

    #[test]
    fn with_threads_restores_after_panic() {
        let before = threads();
        let caught = std::panic::catch_unwind(|| with_threads(7, || panic!("boom")));
        assert!(caught.is_err());
        assert_eq!(threads(), before);
    }

    #[test]
    fn resolve_prefers_cli() {
        assert_eq!(resolve_threads(Some(6)), 6);
        assert_eq!(resolve_threads(Some(0)), 1, "zero clamps to one");
        let defaulted = resolve_threads(None);
        assert!(defaulted >= 1);
    }

    #[test]
    fn override_beats_environment() {
        // No env mutation: the thread-local override simply wins.
        assert_eq!(with_threads(9, threads), 9);
    }

    #[test]
    fn observed_merge_is_byte_identical_across_thread_counts() {
        use glacsweb_obs::{Event, Origin, Recorder};
        use glacsweb_sim::{SimDuration, SimTime};

        let run = |threads: usize| {
            let cells: Vec<u64> = (0..40).collect();
            run_cells_observed(cells, threads, |i| {
                let mut rec = MemoryRecorder::default();
                let at =
                    SimTime::from_ymd_hms(2009, 6, 1, 12, 0, 0) + SimDuration::from_secs(i * 60);
                let origin = Origin::new("sweep", if i.is_multiple_of(2) { "even" } else { "odd" });
                rec.counter(at, origin, "cells_done", 1);
                rec.observe(origin, "cell_index", i);
                rec.event(Event::new(at, origin, "cell_done").with("i", i));
                (i.wrapping_mul(31), rec)
            })
        };
        let (serial_results, serial_telemetry) = run(1);
        let serial_json = serial_telemetry.to_json();
        for threads in [2, 4, 8] {
            let (results, telemetry) = run(threads);
            assert_eq!(serial_results, results, "threads={threads}");
            assert_eq!(
                serial_json,
                telemetry.to_json(),
                "merged telemetry must be byte-identical at threads={threads}"
            );
        }
        // The merge really accumulated across cells.
        assert_eq!(
            serial_telemetry.counter_value(Origin::new("sweep", "even"), "cells_done"),
            20
        );
        assert_eq!(serial_telemetry.events().len(), 40);
    }

    /// Cells chained so that within each claim group of `threads` cells
    /// (the cells the workers hold at once) the last finishes first:
    /// the fold parks the early finishers, and the merged export, the
    /// dropped-event count past the merged cap included, still matches
    /// the in-order serial run byte for byte.
    #[test]
    fn fold_output_ignores_completion_order() {
        use std::sync::mpsc;

        use glacsweb_obs::{Event, Origin, Recorder, DEFAULT_EVENT_CAPACITY};
        use glacsweb_sim::{SimDuration, SimTime};

        const CELLS: usize = 8;
        const EVENTS: u64 = 10_000;
        let run = |threads: usize| {
            // Cell i waits for cell i + 1 of its group to finish.
            let (senders, receivers): (Vec<_>, Vec<_>) =
                (0..CELLS).map(|_| mpsc::channel::<()>()).unzip();
            let mut receivers: Vec<Option<mpsc::Receiver<()>>> =
                receivers.into_iter().map(Some).collect();
            let cells: Vec<_> = senders
                .into_iter()
                .enumerate()
                .map(|(i, done)| {
                    let last_of_group = (i + 1) % threads == 0 || i + 1 == CELLS;
                    let wait = if last_of_group {
                        None
                    } else {
                        receivers.get_mut(i + 1).and_then(Option::take)
                    };
                    (i as u64, wait, done)
                })
                .collect();
            let finished = Mutex::new(Vec::new());
            let (_, merged) = run_cells_observed(cells, threads, |(i, wait, done)| {
                if let Some(wait) = wait {
                    wait.recv().expect("the next cell signals");
                }
                let mut rec = MemoryRecorder::default();
                let origin = Origin::new("sweep", "cell");
                let start = SimTime::from_ymd_hms(2009, 6, 1, 0, 0, 0) + SimDuration::from_days(i);
                for k in 0..EVENTS {
                    let at = start + SimDuration::from_secs(k);
                    rec.counter(at, origin, "events", 1);
                    rec.event(
                        Event::new(at, origin, "tick")
                            .with("cell", i)
                            .with("k", k)
                            .with("odd", k % 2 == 1),
                    );
                }
                finished.lock().expect("log").push(i);
                let _ = done.send(());
                ((), rec)
            });
            (merged, finished.into_inner().expect("log"))
        };
        let (serial, order) = run(1);
        assert_eq!(order, (0..CELLS as u64).collect::<Vec<_>>());
        let total = CELLS as u64 * EVENTS;
        let dropped = total - DEFAULT_EVENT_CAPACITY as u64;
        assert_eq!(serial.events_dropped(), dropped, "the merged cap is hit");
        assert_eq!(serial.events().len(), DEFAULT_EVENT_CAPACITY);
        let json = serial.to_json();
        for threads in [2, 4] {
            let (merged, order) = run(threads);
            assert_eq!(
                order.first().copied(),
                Some(threads as u64 - 1),
                "the last cell of the first group finishes first at threads={threads}"
            );
            assert_eq!(merged.events_dropped(), dropped, "threads={threads}");
            assert!(
                merged.to_json() == json,
                "byte-identical at threads={threads}"
            );
        }
    }

    #[test]
    fn panics_propagate() {
        let caught = std::panic::catch_unwind(|| {
            run_cells(vec![1u32, 2, 3, 4], 2, |x| {
                if x == 3 {
                    panic!("cell 3 exploded");
                }
                x
            })
        });
        assert!(caught.is_err(), "a panicking cell fails the sweep");
    }

    proptest! {
        /// The engine preserves input ordering for arbitrary cell
        /// counts and thread counts — the tentpole guarantee.
        #[test]
        fn ordering_preserved(len in 0usize..300, threads in 1usize..16) {
            let cells: Vec<usize> = (0..len).collect();
            let out = run_cells(cells, threads, |i| i * 31 + 7);
            prop_assert_eq!(out.len(), len);
            for (i, v) in out.into_iter().enumerate() {
                prop_assert_eq!(v, i * 31 + 7);
            }
        }

        /// Every cell runs exactly once regardless of pool size.
        #[test]
        fn each_cell_runs_once(len in 0usize..200, threads in 1usize..12) {
            use std::sync::atomic::AtomicUsize;
            let counter = AtomicUsize::new(0);
            let cells: Vec<usize> = (0..len).collect();
            let out = run_cells(cells, threads, |i| {
                counter.fetch_add(1, Ordering::Relaxed);
                i
            });
            prop_assert_eq!(counter.load(Ordering::Relaxed), len);
            prop_assert_eq!(out, (0..len).collect::<Vec<_>>());
        }
    }
}
