//! Cross-thread trace trees and the per-trial provenance journal.
//!
//! Aggregated span statistics (see [`crate::span`]) answer "where does
//! the time go", but cannot answer "what happened in trial 731 of the
//! fig7 sweep". This module records *individual* events — completed
//! spans with explicit parent links, and per-trial provenance records —
//! into a bounded **journal**:
//!
//! * **Bounded memory.** The journal is one mutex around a queue of at
//!   most `TOMO_TRACE_CAP` events (default [`DEFAULT_JOURNAL_CAPACITY`]).
//!   When it is full, the oldest event is evicted and counted as
//!   dropped, so tracing can stay on for arbitrarily long runs. A
//!   snapshot copies the queue under the same lock, so
//!   `emitted = retained + dropped` holds exactly even while writers run.
//! * **Determinism.** Tracing is strictly passive: it draws no
//!   randomness, and nothing downstream reads the journal during an
//!   experiment, so artifacts remain byte-identical with tracing on or
//!   off, at any thread count. Only the journal itself (timestamps,
//!   event interleaving) is schedule-dependent.
//! * **Cross-thread trees.** A [`TraceContext`] captures the calling
//!   thread's innermost open span; installing it on a worker thread
//!   re-parents the worker's spans under that span, so a Monte-Carlo
//!   fan-out appears as one tree (`sim.fig7 → par.worker → trial → …`)
//!   rather than a forest of rootless worker spans.
//!
//! [`write_chrome_trace`] renders the journal as Chrome trace-event JSON
//! (loadable at <https://ui.perfetto.dev>); `tomo-sim run … --trace-out`
//! drives it from the CLI.
//!
//! Tracing is off by default; [`set_tracing`] enables it. Disabled, it
//! adds one relaxed atomic load to each span (the span's own cost is in
//! [`crate::span`]).

use std::cell::Cell;
use std::collections::VecDeque;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json;
use crate::lock;

/// Default journal capacity (events) when `TOMO_TRACE_CAP` is not set.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 1 << 16;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Innermost traced span id on this thread (0 = none).
    static CURRENT_PARENT: Cell<u64> = const { Cell::new(0) };
    /// Small dense id for this thread in trace output (0 = unassigned).
    static THREAD_TID: Cell<u64> = const { Cell::new(0) };
}

/// Enables or disables event recording into the trace journal.
pub fn set_tracing(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether trace recording is enabled.
#[must_use]
pub fn tracing_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The process-wide trace epoch: all timestamps are nanoseconds since
/// the first call to this function.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch.
#[must_use]
pub fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Allocates a fresh span id (process-unique, never 0).
pub(crate) fn next_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

/// The small dense id of the calling thread, assigned on first use.
#[must_use]
pub fn thread_tid() -> u64 {
    THREAD_TID.with(|t| {
        let mut id = t.get();
        if id == 0 {
            id = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            t.set(id);
        }
        id
    })
}

/// Makes `id` the calling thread's current trace parent, returning the
/// previous parent (for restore on drop).
pub(crate) fn swap_current_parent(id: u64) -> u64 {
    CURRENT_PARENT.with(|p| p.replace(id))
}

/// Restores a previously swapped-out trace parent.
pub(crate) fn restore_parent(prev: u64) {
    CURRENT_PARENT.with(|p| p.set(prev));
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A completed span with explicit tree linkage.
    Span {
        /// Process-unique span id.
        id: u64,
        /// Parent span id (0 = root).
        parent: u64,
        /// `/`-joined aggregation path (see [`crate::span`]); the span's
        /// name is its last `/` segment.
        path: String,
        /// Dense id of the thread the span ran on.
        tid: u64,
        /// Start time, ns since the trace epoch.
        start_ns: u64,
        /// Wall-clock duration in ns.
        dur_ns: u64,
    },
    /// A per-trial provenance record (rendered as an instant event).
    Trial {
        /// The provenance payload.
        provenance: TrialProvenance,
        /// Enclosing span id (0 = root).
        parent: u64,
        /// Dense id of the emitting thread.
        tid: u64,
        /// Emission time, ns since the trace epoch.
        ts_ns: u64,
    },
}

/// Everything needed to re-derive one Monte-Carlo trial: which
/// experiment, which index, which RNG stream, and what the solver and
/// detector did with it.
///
/// Fields that do not apply to an experiment stay `None`/`false`; the
/// record is still worth emitting — the trial index and seed alone let a
/// surprising artifact point be replayed in isolation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrialProvenance {
    /// Experiment label, e.g. `fig7.wireline.s0` or `chaos.x2`.
    pub experiment: String,
    /// Trial index within the experiment.
    pub trial: u64,
    /// The derived per-trial RNG stream seed.
    pub seed: u64,
    /// Digest of the trial's fault plan (`None` when no fault layer).
    pub fault_digest: Option<u64>,
    /// Whether estimation fell back to the degraded (rank-deficient) path.
    pub degraded: bool,
    /// Whether the degraded path used the ridge-regularized solve.
    pub used_ridge: bool,
    /// Detector verdict, where a detector ran.
    pub verdict: Option<bool>,
    /// Consistency residual `‖R x̂ − y′‖₁`, where a detector ran.
    pub residual: Option<f64>,
    /// Attack feasibility, where an attack LP ran.
    pub success: Option<bool>,
}

/// Records a per-trial provenance event (no-op while tracing is off).
pub fn record_trial(provenance: TrialProvenance) {
    if !tracing_enabled() {
        return;
    }
    let event = TraceEvent::Trial {
        provenance,
        parent: CURRENT_PARENT.with(Cell::get),
        tid: thread_tid(),
        ts_ns: now_ns(),
    };
    push(event);
}

pub(crate) fn record_span_event(id: u64, parent: u64, path: String, start_ns: u64, dur_ns: u64) {
    push(TraceEvent::Span {
        id,
        parent,
        path,
        tid: thread_tid(),
        start_ns,
        dur_ns,
    });
}

/// A handle to the calling thread's innermost traced span, for
/// re-parenting spans opened on *other* threads.
///
/// Capture it with [`TraceContext::current`] before fanning work out,
/// hand it (it is `Copy + Send + Sync`) to each worker, and
/// [`install`](TraceContext::install) it there: spans the worker opens
/// while the guard lives become children of the captured span. This is
/// the same hand-off discipline as `derive_seed` for RNG streams — the
/// context travels with the closure, not with the thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceContext {
    parent: u64,
}

impl TraceContext {
    /// Captures the calling thread's innermost traced span (root context
    /// when no span is open or tracing is disabled).
    #[must_use]
    pub fn current() -> TraceContext {
        TraceContext {
            parent: CURRENT_PARENT.with(Cell::get),
        }
    }

    /// Installs this context on the calling thread until the guard
    /// drops; spans opened meanwhile parent under the captured span.
    #[must_use = "the context is only installed while the guard lives"]
    pub fn install(self) -> ContextGuard {
        ContextGuard {
            prev: swap_current_parent(self.parent),
        }
    }
}

/// RAII guard from [`TraceContext::install`]; restores the thread's
/// previous trace parent on drop.
pub struct ContextGuard {
    prev: u64,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        restore_parent(self.prev);
    }
}

/// The bounded journal: the newest `capacity` events, oldest first, and
/// how many were ever pushed.
struct Journal {
    events: VecDeque<TraceEvent>,
    emitted: u64,
    capacity: usize,
}

fn journal() -> &'static Mutex<Journal> {
    static JOURNAL: OnceLock<Mutex<Journal>> = OnceLock::new();
    JOURNAL.get_or_init(|| {
        let capacity = std::env::var("TOMO_TRACE_CAP")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 16)
            .unwrap_or(DEFAULT_JOURNAL_CAPACITY);
        Mutex::new(Journal {
            events: VecDeque::new(),
            emitted: 0,
            capacity,
        })
    })
}

fn push(event: TraceEvent) {
    let mut j = lock(journal());
    // Counted before it is stored, so `emitted >= events.len()` holds at
    // every step.
    j.emitted += 1;
    let evicted = if j.events.len() == j.capacity {
        j.events.pop_front()
    } else {
        None
    };
    j.events.push_back(event);
    drop(j);
    // Free the evicted event's strings outside the lock.
    drop(evicted);
}

/// A point-in-time copy of the journal's contents.
#[derive(Debug, Clone)]
pub struct JournalSnapshot {
    /// Surviving events in emission order.
    pub events: Vec<TraceEvent>,
    /// Total events emitted since the journal was created or reset.
    pub emitted: u64,
    /// Events evicted because the journal was full (`emitted − retained`).
    pub dropped: u64,
}

/// Copies the journal's surviving events out, oldest first.
#[must_use]
pub fn journal_snapshot() -> JournalSnapshot {
    let j = lock(journal());
    JournalSnapshot {
        events: j.events.iter().cloned().collect(),
        emitted: j.emitted,
        dropped: j.emitted - j.events.len() as u64,
    }
}

/// Clears the journal (events and the emitted/dropped tallies).
pub fn reset_journal() {
    let mut j = lock(journal());
    j.events.clear();
    j.emitted = 0;
}

/// Summary statistics returned by [`write_chrome_trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChromeTraceStats {
    /// Events written to the file (excluding metadata events).
    pub events: usize,
    /// Events evicted from the full journal before export.
    pub dropped: u64,
}

fn push_arg(args: &mut String, key: &str, rendered: String) {
    if !args.is_empty() {
        args.push_str(", ");
    }
    args.push_str(&json::string(key));
    args.push_str(": ");
    args.push_str(&rendered);
}

fn chrome_event(out: &mut String, event: &TraceEvent) {
    const US: f64 = 1e-3; // ns → Chrome's microsecond timestamps
    match event {
        TraceEvent::Span {
            id,
            parent,
            path,
            tid,
            start_ns,
            dur_ns,
        } => {
            let name = crate::span::leaf_name(path);
            let mut args = String::new();
            push_arg(&mut args, "span_id", id.to_string());
            push_arg(&mut args, "parent_id", parent.to_string());
            push_arg(&mut args, "path", json::string(path));
            out.push_str(&format!(
                "{{\"ph\": \"X\", \"pid\": 1, \"tid\": {tid}, \"name\": {}, \
                 \"cat\": \"span\", \"ts\": {}, \"dur\": {}, \"args\": {{{args}}}}}",
                json::string(name),
                json::float(*start_ns as f64 * US),
                json::float(*dur_ns as f64 * US),
            ));
        }
        TraceEvent::Trial {
            provenance: p,
            parent,
            tid,
            ts_ns,
        } => {
            let mut args = String::new();
            push_arg(&mut args, "parent_id", parent.to_string());
            push_arg(&mut args, "trial", p.trial.to_string());
            push_arg(&mut args, "seed", p.seed.to_string());
            if let Some(d) = p.fault_digest {
                push_arg(&mut args, "fault_digest", format!("\"{d:#018x}\""));
            }
            push_arg(&mut args, "degraded", p.degraded.to_string());
            push_arg(&mut args, "used_ridge", p.used_ridge.to_string());
            if let Some(v) = p.verdict {
                push_arg(&mut args, "verdict", v.to_string());
            }
            if let Some(r) = p.residual {
                push_arg(&mut args, "residual", json::float(r));
            }
            if let Some(s) = p.success {
                push_arg(&mut args, "success", s.to_string());
            }
            out.push_str(&format!(
                "{{\"ph\": \"i\", \"pid\": 1, \"tid\": {tid}, \"name\": {}, \
                 \"cat\": \"provenance\", \"ts\": {}, \"s\": \"t\", \"args\": {{{args}}}}}",
                json::string(&format!("{} trial {}", p.experiment, p.trial)),
                json::float(*ts_ns as f64 * US),
            ));
        }
    }
}

/// Renders the journal as Chrome trace-event JSON (the object form, with
/// a `traceEvents` array), loadable in Perfetto or `chrome://tracing`.
#[must_use]
pub fn chrome_trace_json() -> (String, ChromeTraceStats) {
    let snap = journal_snapshot();
    let mut out = String::from("{\"traceEvents\": [\n");
    out.push_str(
        "  {\"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"name\": \"process_name\", \
         \"args\": {\"name\": \"tomo-sim\"}}",
    );
    for event in &snap.events {
        out.push_str(",\n  ");
        chrome_event(&mut out, event);
    }
    out.push_str("\n]}\n");
    (
        out,
        ChromeTraceStats {
            events: snap.events.len(),
            dropped: snap.dropped,
        },
    )
}

/// Writes [`chrome_trace_json`] to `path`, creating parent directories
/// as needed.
///
/// # Errors
///
/// Returns the underlying I/O error on failure.
pub fn write_chrome_trace(path: &Path) -> std::io::Result<ChromeTraceStats> {
    let (rendered, stats) = chrome_trace_json();
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut f = std::fs::File::create(path)?;
    f.write_all(rendered.as_bytes())?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The journal and the enabled flag are process-global; tests that
    // record serialize on this lock and reset state around themselves.
    fn with_tracing<T>(f: impl FnOnce() -> T) -> T {
        static GUARD: Mutex<()> = Mutex::new(());
        let _g = GUARD
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        reset_journal();
        set_tracing(true);
        let out = f();
        set_tracing(false);
        reset_journal();
        out
    }

    fn span_events(snap: &JournalSnapshot) -> Vec<(u64, u64, String)> {
        snap.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Span {
                    id, parent, path, ..
                } => Some((*id, *parent, crate::span::leaf_name(path).to_string())),
                TraceEvent::Trial { .. } => None,
            })
            .collect()
    }

    #[test]
    fn nested_spans_link_parents() {
        let snap = with_tracing(|| {
            let outer = crate::span("trace.test.outer");
            {
                let _inner = crate::span("trace.test.inner");
            }
            drop(outer);
            journal_snapshot()
        });
        let spans = span_events(&snap);
        // Inner closes first.
        assert_eq!(spans.len(), 2, "{spans:?}");
        let (inner_id, inner_parent, ref inner_name) = spans[0];
        let (outer_id, outer_parent, ref outer_name) = spans[1];
        assert_eq!(inner_name, "trace.test.inner");
        assert_eq!(outer_name, "trace.test.outer");
        assert_eq!(inner_parent, outer_id);
        assert_eq!(outer_parent, 0);
        assert_ne!(inner_id, outer_id);
    }

    #[test]
    fn context_reparents_across_threads() {
        let snap = with_tracing(|| {
            let outer = crate::span("trace.test.root");
            let ctx = TraceContext::current();
            std::thread::scope(|s| {
                s.spawn(move || {
                    let _g = ctx.install();
                    let _w = crate::span("trace.test.worker");
                });
            });
            drop(outer);
            journal_snapshot()
        });
        let spans = span_events(&snap);
        assert_eq!(spans.len(), 2);
        let worker = spans.iter().find(|(_, _, n)| n == "trace.test.worker");
        let root = spans.iter().find(|(_, _, n)| n == "trace.test.root");
        let &(root_id, _, _) = root.expect("root span recorded");
        let &(_, worker_parent, _) = worker.expect("worker span recorded");
        assert_eq!(worker_parent, root_id, "worker must parent under root");
    }

    #[test]
    fn provenance_records_carry_parent() {
        let snap = with_tracing(|| {
            let _s = crate::span("trace.test.trial");
            record_trial(TrialProvenance {
                experiment: "unit".into(),
                trial: 7,
                seed: 99,
                success: Some(true),
                ..TrialProvenance::default()
            });
            drop(_s);
            journal_snapshot()
        });
        let trial = snap
            .events
            .iter()
            .find_map(|e| match e {
                TraceEvent::Trial {
                    provenance, parent, ..
                } => Some((provenance.clone(), *parent)),
                TraceEvent::Span { .. } => None,
            })
            .expect("trial event recorded");
        assert_eq!(trial.0.trial, 7);
        assert_eq!(trial.0.seed, 99);
        assert_ne!(trial.1, 0, "provenance must nest under the open span");
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        let snap = with_tracing(|| {
            set_tracing(false);
            let _s = crate::span("trace.test.dark");
            record_trial(TrialProvenance::default());
            drop(_s);
            journal_snapshot()
        });
        assert_eq!(snap.events.len(), 0);
        assert_eq!(snap.emitted, 0);
    }

    #[test]
    fn chrome_export_renders_all_event_kinds() {
        let (rendered, stats) = with_tracing(|| {
            {
                let _s = crate::span("trace.test.\"quoted\\name\"");
                record_trial(TrialProvenance {
                    experiment: "fig7.wireline".into(),
                    trial: 3,
                    seed: 42,
                    fault_digest: Some(0xdead_beef),
                    degraded: true,
                    verdict: Some(false),
                    residual: Some(0.25),
                    success: Some(true),
                    ..TrialProvenance::default()
                });
            }
            chrome_trace_json()
        });
        assert_eq!(stats.events, 2);
        assert_eq!(stats.dropped, 0);
        assert!(rendered.contains("\"traceEvents\""));
        assert!(rendered.contains("\"ph\": \"X\""));
        assert!(rendered.contains("\"ph\": \"i\""));
        // The quoted/backslashed span name survives escaping.
        assert!(rendered.contains("trace.test.\\\"quoted\\\\name\\\""));
        assert!(rendered.contains("\"degraded\": true"));
        assert!(rendered.contains("\"fault_digest\""));
        assert!(rendered.contains("\"residual\": 0.25"));
    }

    #[test]
    fn trace_context_is_root_when_no_span_open() {
        assert_eq!(TraceContext::current(), TraceContext::default());
    }

    #[test]
    fn thread_tids_are_stable_and_distinct() {
        let a = thread_tid();
        assert_eq!(a, thread_tid(), "tid stable within a thread");
        let b = std::thread::spawn(thread_tid).join().unwrap();
        assert_ne!(a, b, "distinct threads get distinct tids");
    }
}
