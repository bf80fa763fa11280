//! `tomo-par` — deterministic scoped-thread fan-out for Monte-Carlo trials.
//!
//! Every quantitative result in the paper (Figs. 7–9) is a Monte-Carlo
//! probability estimated from independent trials. This crate runs those
//! trials across threads while keeping the outputs **bit-identical
//! regardless of thread count**:
//!
//! 1. Each trial gets its own RNG stream, derived from
//!    `(experiment_seed, trial_index)` by [`derive_seed`] (a SplitMix64
//!    mixer). No trial ever observes another trial's draws, so the
//!    schedule cannot influence the results.
//! 2. [`Executor::map`]/[`Executor::try_map`] hand out trial indices
//!    dynamically (an atomic cursor — cheap work stealing) but return
//!    results **in index order**, so downstream aggregation is
//!    schedule-independent too.
//!
//! Thread count resolution: explicit [`Executor::new`] >
//! `TOMO_THREADS` env var > [`std::thread::available_parallelism`]
//! (see [`Executor::from_env`]).
//!
//! Observability: `par.tasks`/`par.batches` counters, a `par.workers`
//! gauge, and a `par.worker.tasks` histogram (tasks completed per
//! worker — a utilization/steal balance signal) are recorded through
//! `tomo-obs`; each worker thread opens a `par.worker` span, so nested
//! spans from trial code get per-worker paths for free. When tracing is
//! enabled ([`tomo_obs::set_tracing`]), the caller's
//! [`tomo_obs::TraceContext`] is captured before the fan-out and
//! installed in every worker, and each task runs inside a `trial` span —
//! so the trace journal sees one connected tree
//! (`sim.fig7 → par.worker → trial → …`) regardless of thread count.

#![forbid(unsafe_code)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use tomo_obs::{LazyCounter, LazyGauge, LazyHistogram};

static TASKS: LazyCounter = LazyCounter::new("par.tasks");
static BATCHES: LazyCounter = LazyCounter::new("par.batches");
static WORKERS: LazyGauge = LazyGauge::new("par.workers");
static WORKER_TASKS: LazyHistogram = LazyHistogram::new("par.worker.tasks");
static TRIAL_PANICS: LazyCounter = LazyCounter::new("par.trial_panics");

/// Why a task failed: its own typed error, or a captured panic.
enum TaskFailure<E> {
    Err(E),
    Panic(String),
}

/// One worker's index-tagged results, or the first `(index, failure)` it hit.
type WorkerOutcome<T, E> = Result<Vec<(usize, T)>, (usize, TaskFailure<E>)>;

/// Best-effort rendering of a panic payload (`&str` and `String` cover
/// every `panic!` in this workspace).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Mixes an experiment seed and a trial index into one well-separated
/// 64-bit seed (two rounds of the SplitMix64 finalizer).
///
/// The map is injective in `index` for a fixed `seed` before mixing
/// (`seed + golden_gamma * (index + 1)` never collides for indices below
/// 2⁶⁴), and the finalizer is bijective, so distinct trials of one
/// experiment always get distinct streams.
#[must_use]
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(index.wrapping_add(1)));
    for _ in 0..2 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
    }
    z
}

/// A fixed-width scoped-thread executor for embarrassingly parallel
/// trial loops.
///
/// `Executor` owns no threads: every [`map`](Executor::map) call spawns
/// scoped workers and joins them before returning, so borrowed trial
/// state (`&TomographySystem`, `&AttackScenario`, …) flows into the
/// closure without `Arc` or cloning.
#[derive(Debug, Clone)]
pub struct Executor {
    threads: usize,
}

impl Executor {
    /// An executor with exactly `threads` workers (clamped to ≥ 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Executor {
            threads: threads.max(1),
        }
    }

    /// An executor sized from the environment: `TOMO_THREADS` when set
    /// to a positive integer, otherwise available parallelism.
    #[must_use]
    pub fn from_env() -> Self {
        if let Ok(v) = std::env::var("TOMO_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    return Executor::new(n);
                }
            }
            tomo_obs::warn!("par", "ignoring invalid TOMO_THREADS={v:?}");
        }
        Executor::new(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// A sequential executor (one worker, no thread spawns).
    #[must_use]
    pub fn single_threaded() -> Self {
        Executor::new(1)
    }

    /// Configured worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every index in `0..n` and returns the results in
    /// index order. The trial closure must derive any randomness from
    /// its index (see [`derive_seed`]) for thread-count-independent
    /// output.
    pub fn map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let out: Result<Vec<T>, NoError> = self.try_map(n, |i| Ok(f(i)));
        match out {
            Ok(v) => v,
            Err(e) => match e {},
        }
    }

    /// Fallible [`map`](Executor::map): stops handing out new work after
    /// the first error and returns the error with the **lowest trial
    /// index** among those observed, so the reported error does not
    /// depend on the schedule in the common case of an early
    /// deterministic failure.
    ///
    /// # Errors
    ///
    /// Returns the lowest-index error produced by `f`.
    ///
    /// # Panics
    ///
    /// A panicking task no longer kills the worker pool silently: the
    /// panic is captured per task, every worker drains, and the panic is
    /// re-raised on the caller's thread with the failing **trial index**
    /// and the original message attached (the lowest-index failure wins,
    /// like errors, so the report is schedule-independent).
    pub fn try_map<T, E, F>(&self, n: usize, f: F) -> Result<Vec<T>, E>
    where
        T: Send,
        E: Send,
        F: Fn(usize) -> Result<T, E> + Sync,
    {
        BATCHES.inc();
        TASKS.add(n as u64);
        let workers = self.threads.min(n.max(1));
        WORKERS.set(workers as f64);
        // Capture the caller's innermost traced span *before* fanning
        // out: worker threads start with an empty span stack, and
        // installing this context re-parents their spans under the
        // caller's (same hand-off discipline as derive_seed for RNG).
        let ctx = tomo_obs::TraceContext::current();
        let run_task = |i: usize| {
            let _trial = tomo_obs::tracing_enabled().then(|| tomo_obs::span("trial"));
            f(i)
        };
        if workers == 1 {
            WORKER_TASKS.record(n as f64);
            return (0..n).map(run_task).collect();
        }

        let cursor = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        let run_worker = || -> WorkerOutcome<T, E> {
            let _ctx = ctx.install();
            let _span = tomo_obs::span("par.worker");
            let mut done: Vec<(usize, T)> = Vec::new();
            loop {
                if failed.load(Ordering::Relaxed) {
                    break;
                }
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                match catch_unwind(AssertUnwindSafe(|| run_task(i))) {
                    Ok(Ok(v)) => done.push((i, v)),
                    Ok(Err(e)) => {
                        failed.store(true, Ordering::Relaxed);
                        return Err((i, TaskFailure::Err(e)));
                    }
                    Err(payload) => {
                        TRIAL_PANICS.inc();
                        failed.store(true, Ordering::Relaxed);
                        return Err((i, TaskFailure::Panic(panic_message(payload.as_ref()))));
                    }
                }
            }
            WORKER_TASKS.record(done.len() as f64);
            Ok(done)
        };

        let per_worker: Vec<WorkerOutcome<T, E>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(run_worker)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("tomo-par worker bookkeeping panicked"))
                .collect()
        });

        let mut indexed: Vec<(usize, T)> = Vec::with_capacity(n);
        let mut first_err: Option<(usize, TaskFailure<E>)> = None;
        for outcome in per_worker {
            match outcome {
                Ok(pairs) => indexed.extend(pairs),
                Err((i, e)) => {
                    if first_err.as_ref().is_none_or(|(j, _)| i < *j) {
                        first_err = Some((i, e));
                    }
                }
            }
        }
        match first_err {
            Some((_, TaskFailure::Err(e))) => return Err(e),
            Some((i, TaskFailure::Panic(msg))) => {
                panic!("tomo-par: trial {i} panicked: {msg}")
            }
            None => {}
        }
        debug_assert_eq!(indexed.len(), n, "every trial index must be covered once");
        indexed.sort_unstable_by_key(|&(i, _)| i);
        Ok(indexed.into_iter().map(|(_, v)| v).collect())
    }
}

impl Default for Executor {
    fn default() -> Self {
        Executor::from_env()
    }
}

/// Uninhabited error type backing the infallible [`Executor::map`].
#[derive(Debug)]
enum NoError {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn derive_seed_separates_streams() {
        let mut seen = std::collections::HashSet::new();
        for seed in [0u64, 1, 42, u64::MAX] {
            for index in 0..1000 {
                assert!(seen.insert(derive_seed(seed, index)), "collision");
            }
        }
        // Not the identity on (seed, 0).
        assert_ne!(derive_seed(5, 0), 5);
    }

    #[test]
    fn map_preserves_index_order() {
        let exec = Executor::new(4);
        let out = exec.map(100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn map_handles_empty_and_tiny_inputs() {
        let exec = Executor::new(8);
        assert_eq!(exec.map(0, |i| i), Vec::<usize>::new());
        assert_eq!(exec.map(1, |i| i + 10), vec![10]);
    }

    #[test]
    fn results_are_identical_across_thread_counts() {
        let per_trial = |i: usize| {
            let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(42, i as u64));
            rng.gen_range(0.0..1.0_f64).to_bits()
        };
        let seq = Executor::new(1).map(257, per_trial);
        for threads in [2, 3, 8] {
            assert_eq!(Executor::new(threads).map(257, per_trial), seq);
        }
    }

    #[test]
    fn try_map_reports_lowest_index_error_sequentially() {
        let exec = Executor::new(1);
        let r: Result<Vec<usize>, usize> =
            exec.try_map(10, |i| if i >= 3 { Err(i) } else { Ok(i) });
        assert_eq!(r, Err(3));
    }

    #[test]
    fn try_map_stops_early_in_parallel() {
        let exec = Executor::new(4);
        let r: Result<Vec<usize>, usize> =
            exec.try_map(1000, |i| if i == 0 { Err(i) } else { Ok(i) });
        assert_eq!(r, Err(0), "index-0 error must win");
    }

    #[test]
    fn executor_clamps_zero_threads() {
        assert_eq!(Executor::new(0).threads(), 1);
    }

    /// Silences the default panic hook for the duration of a closure so
    /// intentional test panics don't spam stderr. Global, so the tests
    /// using it serialize on a lock.
    fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
        use std::sync::Mutex;
        static HOOK_LOCK: Mutex<()> = Mutex::new(());
        let _guard = HOOK_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = catch_unwind(AssertUnwindSafe(f));
        std::panic::set_hook(prev);
        match out {
            Ok(v) => v,
            Err(p) => std::panic::resume_unwind(p),
        }
    }

    #[test]
    fn panicking_trial_no_longer_kills_the_run() {
        // Regression: the old join().expect aborted the whole process'
        // batch with "tomo-par worker panicked" and no trial context.
        // Now the panic is captured, drained workers still return their
        // results, and the re-raised panic names the failing trial.
        let exec = Executor::new(4);
        let payload = with_quiet_panics(|| {
            catch_unwind(AssertUnwindSafe(|| {
                exec.map(64, |i| {
                    if i == 23 {
                        panic!("injected fault in trial 23");
                    }
                    i
                })
            }))
            .expect_err("panic must propagate")
        });
        let msg = panic_message(payload.as_ref());
        assert!(msg.contains("trial 23"), "missing trial index: {msg}");
        assert!(
            msg.contains("injected fault"),
            "missing original message: {msg}"
        );
    }

    #[test]
    fn lowest_index_panic_wins_deterministically() {
        let exec = Executor::new(4);
        for _ in 0..5 {
            let payload = with_quiet_panics(|| {
                catch_unwind(AssertUnwindSafe(|| {
                    exec.map(100, |i| {
                        if i % 7 == 3 {
                            panic!("boom {i}");
                        }
                        i
                    })
                }))
                .expect_err("panic must propagate")
            });
            let msg = panic_message(payload.as_ref());
            assert!(msg.contains("trial 3"), "expected lowest index 3: {msg}");
        }
    }

    #[test]
    fn from_env_defaults_to_parallelism() {
        // TOMO_THREADS is not set under `cargo test`; just assert sanity.
        assert!(Executor::from_env().threads() >= 1);
    }

    #[test]
    fn traced_fanout_builds_one_connected_tree() {
        // Tracing state is process-global; this is the only test in the
        // crate that enables it, so no cross-test lock is needed.
        tomo_obs::reset_journal();
        tomo_obs::set_tracing(true);
        let root = tomo_obs::span("par.test.root");
        Executor::new(3).map(8, |i| i);
        drop(root);
        tomo_obs::set_tracing(false);

        let snap = tomo_obs::journal_snapshot();
        let mut root_id = 0;
        let mut spans = Vec::new();
        for event in &snap.events {
            if let tomo_obs::TraceEvent::Span {
                id, parent, path, ..
            } = event
            {
                let name = path.rsplit('/').next().unwrap_or(path);
                if name == "par.test.root" {
                    root_id = *id;
                }
                spans.push((*id, *parent, name.to_string()));
            }
        }
        assert_ne!(root_id, 0, "root span must be journaled");
        // Other tests may run (and journal spans) while tracing is on;
        // only spans reachable from our root are ours to assert on.
        let worker_ids: std::collections::HashSet<u64> = spans
            .iter()
            .filter(|&&(_, parent, ref n)| n == "par.worker" && parent == root_id)
            .map(|&(id, _, _)| id)
            .collect();
        assert!(
            !worker_ids.is_empty(),
            "workers must parent under the caller"
        );
        let trials = spans
            .iter()
            .filter(|&&(_, parent, ref n)| n == "trial" && worker_ids.contains(&parent))
            .count();
        assert_eq!(trials, 8, "one trial span per task, parented to a worker");
        tomo_obs::reset_journal();
    }
}
