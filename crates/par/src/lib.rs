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
//! 2. [`Executor::try_stream`] hands out trial indices dynamically (cheap
//!    work stealing) but delivers results to its consumer **in index
//!    order** on the calling thread, and may stop early on the
//!    consumer's word; [`Executor::map`]/[`Executor::try_map`] are that
//!    loop with a consumer that collects every result. Downstream
//!    aggregation is therefore schedule-independent too.
//!
//! Thread count resolution: explicit [`Executor::new`] >
//! `TOMO_THREADS` env var > [`std::thread::available_parallelism`]
//! (see [`Executor::from_env`]).
//!
//! Observability: `par.tasks`/`par.batches` counters, a `par.workers`
//! gauge, and a `par.worker.tasks` histogram (results each worker
//! delivered — a utilization/steal balance signal) are recorded through
//! `tomo-obs`; results computed past an early stop are dropped before
//! they reach any of them, so `par.tasks` is the same at any thread
//! count. Each worker, the calling thread included, opens a `par.worker`
//! span, so nested spans from trial code get per-worker paths for free.
//! When tracing is enabled ([`tomo_obs::set_tracing`]), the caller's
//! [`tomo_obs::TraceContext`] is captured before the fan-out and
//! installed in every spawned worker, and each task runs inside a
//! `trial` span — so the trace journal sees one connected tree
//! (`sim.fig7 → par.worker → trial → …`) regardless of thread count.

#![forbid(unsafe_code)]

use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use tomo_obs::{LazyCounter, LazyGauge, LazyHistogram};

static TASKS: LazyCounter = LazyCounter::new("par.tasks");
static BATCHES: LazyCounter = LazyCounter::new("par.batches");
static WORKERS: LazyGauge = LazyGauge::new("par.workers");
static WORKER_TASKS: LazyHistogram = LazyHistogram::new("par.worker.tasks");
static TRIAL_PANICS: LazyCounter = LazyCounter::new("par.trial_panics");

/// How far workers may run ahead of the consumer: no task starts at an
/// index ≥ delivered + `WINDOW`. It bounds the results held at once and
/// the work wasted past an early stop.
const WINDOW: usize = 64;

/// Why a task failed: its own typed error, or a captured panic.
enum TaskFailure<E> {
    Err(E),
    Panic(String),
}

/// A finished task: which worker ran it, and its result or failure.
type Done<T, E> = (usize, Result<T, TaskFailure<E>>);

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
/// `Executor` keeps no threads between calls: each
/// [`try_stream`](Executor::try_stream) (and so each map) with more than
/// one worker spawns `threads − 1` scoped workers, works alongside them
/// on the calling thread, and joins them before returning, so borrowed
/// trial state (`&TomographySystem`, `&AttackScenario`, …) flows into
/// the closure without `Arc` or cloning. One worker spawns nothing.
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
    /// index**, the one a sequential loop would have hit first.
    ///
    /// # Errors
    ///
    /// Returns the lowest-index error produced by `f`.
    ///
    /// # Panics
    ///
    /// A panicking task's panic is captured and re-raised on the caller's
    /// thread with the failing **trial index** and the original message
    /// attached (the lowest-index failure wins, like errors, so the report
    /// is schedule-independent).
    pub fn try_map<T, E, F>(&self, n: usize, f: F) -> Result<Vec<T>, E>
    where
        T: Send,
        E: Send,
        F: Fn(usize) -> Result<T, E> + Sync,
    {
        let mut out = Vec::with_capacity(n);
        self.try_stream(n, f, |_, v| {
            out.push(v);
            ControlFlow::Continue(())
        })?;
        Ok(out)
    }

    /// Ordered, early-stopping fan-out: runs `f` over `0..n` on
    /// [`threads`](Executor::threads) workers and hands each result to
    /// `consume(i, result)` on the calling thread, **in index order**,
    /// until `consume` returns [`ControlFlow::Break`] or every index is
    /// delivered.
    ///
    /// The calling thread is one of the workers. Workers start no task at
    /// an index ≥ delivered + a fixed window, so a stop wastes at most
    /// that many tasks. Results, errors and panics of tasks past the stop
    /// are dropped and reach no counter: `par.tasks` counts the results
    /// delivered, the same at any thread count. One worker is a plain
    /// loop on the caller that runs nothing past the stop.
    ///
    /// # Errors
    ///
    /// The first failure in index order ends the stream: a task's error
    /// is returned once every lower index has been delivered.
    ///
    /// # Panics
    ///
    /// A panicking task reached in index order is re-raised on the
    /// caller's thread with its trial index and original message.
    pub fn try_stream<T, E, F, C>(&self, n: usize, f: F, mut consume: C) -> Result<(), E>
    where
        T: Send,
        E: Send,
        F: Fn(usize) -> Result<T, E> + Sync,
        C: FnMut(usize, T) -> ControlFlow<()>,
    {
        BATCHES.inc();
        let workers = self.threads.min(n.max(1));
        WORKERS.set(workers as f64);
        let run_task = |i: usize| -> Result<T, TaskFailure<E>> {
            let _trial = tomo_obs::tracing_enabled().then(|| tomo_obs::span("trial"));
            match catch_unwind(AssertUnwindSafe(|| f(i))) {
                Ok(Ok(v)) => Ok(v),
                Ok(Err(e)) => Err(TaskFailure::Err(e)),
                Err(payload) => Err(TaskFailure::Panic(panic_message(payload.as_ref()))),
            }
        };
        // Results delivered per worker (the caller is worker 0). A stream
        // ends on a `Break`: `None` when the consumer stopped it, the index
        // and failure when a failed task was reached.
        let mut delivered = vec![0u64; workers];
        let mut deliver = |i: usize, (worker, done): Done<T, E>| match done {
            Ok(v) => {
                delivered[worker] += 1;
                consume(i, v).map_break(|()| None)
            }
            Err(failure) => ControlFlow::Break(Some((i, failure))),
        };
        let failure = if workers == 1 {
            (0..n)
                .try_for_each(|i| deliver(i, (0, run_task(i))))
                .break_value()
                .flatten()
        } else {
            // Capture the caller's innermost traced span *before* any
            // `par.worker` span opens: spawned threads start with an empty
            // span stack, and installing this context parents their spans
            // under the caller's (same hand-off discipline as derive_seed
            // for RNG), as siblings of the caller's own `par.worker`.
            let ctx = tomo_obs::TraceContext::current();
            let queue = Queue::new(n);
            std::thread::scope(|scope| {
                for worker in 1..workers {
                    let (queue, run_task) = (&queue, &run_task);
                    scope.spawn(move || {
                        let _ctx = ctx.install();
                        let _span = tomo_obs::span("par.worker");
                        queue.work(worker, run_task);
                    });
                }
                let _span = tomo_obs::span("par.worker");
                let _stop = StopOnDrop(&queue);
                queue.drive(&run_task, &mut deliver)
            })
        };
        TASKS.add(delivered.iter().sum());
        for &count in &delivered {
            WORKER_TASKS.record(count as f64);
        }
        match failure {
            None => Ok(()),
            Some((_, TaskFailure::Err(e))) => Err(e),
            Some((i, TaskFailure::Panic(msg))) => {
                TRIAL_PANICS.inc();
                panic!("tomo-par: trial {i} panicked: {msg}")
            }
        }
    }
}

impl Default for Executor {
    fn default() -> Self {
        Executor::from_env()
    }
}

/// A stream's end: `None` when the consumer stopped it or every result
/// was delivered, else the failed task's index and failure.
type Stop<E> = Option<(usize, TaskFailure<E>)>;

/// The work queue of one multi-worker [`Executor::try_stream`] call.
struct Queue<T, E> {
    /// Tasks in the stream.
    n: usize,
    state: Mutex<QueueState<T, E>>,
    /// Signals the waiting caller that the next result has arrived.
    ready: Condvar,
    /// Signals blocked workers that the window moved or the stream ended.
    room: Condvar,
}

struct QueueState<T, E> {
    /// The next index to hand out.
    next: usize,
    /// Results delivered to the consumer so far.
    delivered: usize,
    /// No index ≥ `end` starts: `n`, lowered to one past a failed task,
    /// and to 0 once the stream ends.
    end: usize,
    /// Finished tasks not yet delivered, index `i` at `i % slots.len()`.
    slots: Vec<Option<Done<T, E>>>,
    /// Spawned workers waiting for the window to move.
    blocked: usize,
    /// Whether the caller waits for the result at `delivered`.
    caller_waiting: bool,
}

impl<T, E> QueueState<T, E> {
    /// Hands out the next index, if it is below `end` and in the window.
    fn take(&mut self) -> Option<usize> {
        let i = self.next;
        if i < self.end && i < self.delivered + self.slots.len() {
            self.next += 1;
            Some(i)
        } else {
            None
        }
    }

    /// Keeps task `i`'s result for delivery, or hands it back when `i`
    /// lies past the stop. A failure stops the hand-out past `i`.
    fn put(&mut self, i: usize, done: Done<T, E>) -> Option<Done<T, E>> {
        if i >= self.end {
            return Some(done);
        }
        if done.1.is_err() {
            self.end = i + 1;
        }
        let slot = i % self.slots.len();
        self.slots[slot] = Some(done);
        None
    }
}

impl<T, E> Queue<T, E> {
    /// A queue over `0..n`, `n` ≥ 1.
    fn new(n: usize) -> Self {
        Queue {
            n,
            state: Mutex::new(QueueState {
                next: 0,
                delivered: 0,
                end: n,
                slots: (0..WINDOW.min(n)).map(|_| None).collect(),
                blocked: 0,
                caller_waiting: false,
            }),
            ready: Condvar::new(),
            room: Condvar::new(),
        }
    }

    /// No task, consumer or result `Drop` runs under the lock, and each
    /// update under it leaves the state whole, so a poisoned lock still
    /// guards consistent state.
    fn lock(&self) -> MutexGuard<'_, QueueState<T, E>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A spawned worker's loop: run tasks in the window until the
    /// hand-out ends.
    fn work(&self, worker: usize, run: &impl Fn(usize) -> Result<T, TaskFailure<E>>) {
        let mut st = self.lock();
        while st.next < st.end {
            let Some(i) = st.take() else {
                st.blocked += 1;
                st = self.room.wait(st).unwrap_or_else(PoisonError::into_inner);
                st.blocked -= 1;
                continue;
            };
            drop(st);
            let done = (worker, run(i));
            st = self.lock();
            if st.caller_waiting && i == st.delivered {
                self.ready.notify_one();
            }
            st = self.keep(st, i, done);
        }
    }

    /// [`QueueState::put`] under `st`; a result past the stop is dropped
    /// with the lock released, as dropping a `T` or `E` may run any code.
    fn keep<'a>(
        &'a self,
        mut st: MutexGuard<'a, QueueState<T, E>>,
        i: usize,
        done: Done<T, E>,
    ) -> MutexGuard<'a, QueueState<T, E>> {
        match st.put(i, done) {
            None => st,
            Some(past_stop) => {
                drop(st);
                drop(past_stop);
                self.lock()
            }
        }
    }

    /// The caller's loop: deliver the next result whenever it is ready,
    /// run a task of its own when it is not, and wait when it can do
    /// neither.
    fn drive(
        &self,
        run: &impl Fn(usize) -> Result<T, TaskFailure<E>>,
        deliver: &mut impl FnMut(usize, Done<T, E>) -> ControlFlow<Stop<E>>,
    ) -> Stop<E> {
        let mut st = self.lock();
        while st.delivered < self.n {
            let d = st.delivered;
            let slot = d % st.slots.len();
            if let Some(done) = st.slots[slot].take() {
                drop(st);
                if let ControlFlow::Break(stop) = deliver(d, done) {
                    return stop;
                }
                st = self.lock();
                st.delivered = d + 1;
                if st.blocked > 0 {
                    self.room.notify_one();
                }
            } else if let Some(i) = st.take() {
                drop(st);
                let done = (0, run(i));
                st = self.keep(self.lock(), i, done);
            } else {
                st.caller_waiting = true;
                st = self.ready.wait(st).unwrap_or_else(PoisonError::into_inner);
                st.caller_waiting = false;
            }
        }
        None
    }
}

/// Ends the hand-out when the caller leaves [`Queue::drive`] — by
/// returning or by a panicking consumer — so blocked workers exit and
/// the scope can join them.
struct StopOnDrop<'a, T, E>(&'a Queue<T, E>);

impl<T, E> Drop for StopOnDrop<'_, T, E> {
    fn drop(&mut self) {
        self.0.lock().end = 0;
        self.0.room.notify_all();
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

    /// Worker counts every ordered-stream test runs at.
    const THREADS: [usize; 4] = [1, 2, 3, 8];

    #[test]
    fn stream_delivers_in_index_order() {
        for threads in THREADS {
            let mut seen = Vec::new();
            let r: Result<(), ()> = Executor::new(threads).try_stream(
                300,
                |i| Ok(i * 3),
                |i, v| {
                    assert_eq!(v, i * 3);
                    seen.push(i);
                    ControlFlow::Continue(())
                },
            );
            assert_eq!(r, Ok(()));
            assert_eq!(seen, (0..300).collect::<Vec<_>>(), "{threads} threads");
        }
    }

    #[test]
    fn break_at_k_delivers_exactly_up_to_k() {
        for threads in THREADS {
            for k in [0, 1, 63, 64, 150, 299] {
                let mut seen = Vec::new();
                let r: Result<(), ()> = Executor::new(threads).try_stream(300, Ok, |i, v| {
                    assert_eq!(v, i);
                    seen.push(i);
                    if i == k {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                });
                assert_eq!(r, Ok(()));
                assert_eq!(seen, (0..=k).collect::<Vec<_>>(), "{threads} threads");
            }
        }
    }

    /// Spins until `flag` is set (at most 10 s, so a schedule that never
    /// sets it weakens the test instead of hanging it).
    fn wait_for(flag: &std::sync::atomic::AtomicBool) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !flag.load(std::sync::atomic::Ordering::SeqCst)
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(std::time::Duration::from_micros(100));
        }
    }

    #[test]
    fn failures_past_the_stop_are_never_reported() {
        use std::sync::atomic::{AtomicBool, Ordering};
        for threads in THREADS {
            for panics in [false, true] {
                // With workers, the stop index waits until a task past it
                // has failed, so the failure is in hand before the stop.
                let past_ran = AtomicBool::new(false);
                let r: Result<(), usize> = with_quiet_panics(|| {
                    Executor::new(threads).try_stream(
                        200,
                        |i| {
                            if i < 10 || (i == 10 && threads == 1) {
                                return Ok(i);
                            }
                            if i == 10 {
                                wait_for(&past_ran);
                                return Ok(i);
                            }
                            past_ran.store(true, Ordering::SeqCst);
                            if panics {
                                panic!("planted past the stop in {i}");
                            }
                            Err(i)
                        },
                        |i, _| {
                            if i == 10 {
                                ControlFlow::Break(())
                            } else {
                                ControlFlow::Continue(())
                            }
                        },
                    )
                });
                assert_eq!(r, Ok(()), "{threads} threads, panics: {panics}");
            }
        }
    }

    #[test]
    fn lowest_delivered_error_wins() {
        use std::sync::atomic::{AtomicBool, Ordering};
        for threads in THREADS {
            // With workers, index 5 fails only after a higher failure has
            // run, so the lower one arrives last.
            let higher_failed = AtomicBool::new(false);
            let r: Result<(), usize> = Executor::new(threads).try_stream(
                100,
                |i| {
                    if i == 5 && threads > 1 {
                        wait_for(&higher_failed);
                    }
                    if i % 5 != 0 || i == 0 {
                        return Ok(());
                    }
                    if i > 5 {
                        higher_failed.store(true, Ordering::SeqCst);
                    }
                    Err(i)
                },
                |_, ()| ControlFlow::Continue(()),
            );
            assert_eq!(r, Err(5), "{threads} threads");
        }
    }

    #[test]
    fn delivered_panic_names_its_trial() {
        for threads in THREADS {
            let payload = with_quiet_panics(|| {
                catch_unwind(AssertUnwindSafe(|| {
                    Executor::new(threads).try_stream(
                        100,
                        |i| {
                            if i == 23 || i == 57 {
                                panic!("planted in {i}");
                            }
                            Ok::<_, ()>(i)
                        },
                        |_, _| ControlFlow::Continue(()),
                    )
                }))
                .expect_err("panic must propagate")
            });
            let msg = panic_message(payload.as_ref());
            assert!(
                msg.contains("trial 23") && msg.contains("planted in 23"),
                "{threads} threads: {msg}"
            );
        }
    }

    #[test]
    fn no_task_starts_past_the_window() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::{Duration, Instant};
        for threads in THREADS {
            let highest = AtomicUsize::new(0);
            // How far past the delivered count a task started, at most.
            let mut ahead = 0;
            let r: Result<(), ()> = Executor::new(threads).try_stream(
                500,
                |i| {
                    highest.fetch_max(i, Ordering::SeqCst);
                    Ok(())
                },
                |i, ()| {
                    // `i` results were delivered before this one. Hold the
                    // first until the workers fill the window, then give
                    // them time to overrun it.
                    if i == 0 && threads > 1 {
                        let deadline = Instant::now() + Duration::from_secs(10);
                        while highest.load(Ordering::SeqCst) < WINDOW - 1
                            && Instant::now() < deadline
                        {
                            std::thread::sleep(Duration::from_micros(100));
                        }
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    let started = highest.load(Ordering::SeqCst);
                    assert!(
                        started < i + WINDOW,
                        "{threads} threads: task {started} started with {i} delivered"
                    );
                    ahead = ahead.max(started - i);
                    ControlFlow::Continue(())
                },
            );
            assert_eq!(r, Ok(()));
            let full = if threads == 1 { 0 } else { WINDOW - 1 };
            assert_eq!(ahead, full, "{threads} threads");
        }
    }

    #[test]
    fn panicking_consumer_releases_the_workers() {
        for threads in THREADS {
            let payload = with_quiet_panics(|| {
                catch_unwind(AssertUnwindSafe(|| {
                    Executor::new(threads).try_stream(1000, Ok::<_, ()>, |i, _| {
                        assert!(i < 5, "consumer gave up at {i}");
                        ControlFlow::Continue(())
                    })
                }))
                .expect_err("the consumer's panic must propagate")
            });
            let msg = panic_message(payload.as_ref());
            assert!(
                msg.contains("consumer gave up at 5"),
                "{threads} threads: {msg}"
            );
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
