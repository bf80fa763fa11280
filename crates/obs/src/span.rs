//! Hierarchical wall-clock spans.
//!
//! A [`SpanGuard`] times the region between its creation and drop. Spans
//! nest per thread: a span opened while another is active records under
//! the `/`-joined path `parent/child`, so the registry aggregates each
//! distinct call path separately. In verbose mode (see
//! [`set_verbose`]) every span prints an indented line to stderr as it
//! closes — children appear above their parent, deepest first.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

thread_local! {
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

static VERBOSE: AtomicBool = AtomicBool::new(false);

/// Enables or disables printing span timings to stderr on close.
pub fn set_verbose(on: bool) {
    VERBOSE.store(on, Ordering::Relaxed);
}

/// Whether verbose span printing is enabled.
#[must_use]
pub fn verbose() -> bool {
    VERBOSE.load(Ordering::Relaxed)
}

/// Aggregated statistics of one span path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanSummary {
    /// Number of times the span closed.
    pub count: u64,
    /// Total wall-clock time across all closes, in nanoseconds.
    pub duration_ns: u64,
    /// Fastest single close, in nanoseconds.
    pub min_ns: u64,
    /// Slowest single close, in nanoseconds.
    pub max_ns: u64,
}

impl SpanSummary {
    pub(crate) fn observe(&mut self, ns: u64) {
        self.count += 1;
        self.duration_ns += ns;
        self.min_ns = if self.count == 1 {
            ns
        } else {
            self.min_ns.min(ns)
        };
        self.max_ns = self.max_ns.max(ns);
    }
}

/// RAII timer for one span; records into the global registry on drop.
///
/// The span's path lives on the thread's span stack while the guard is
/// open; the guard keeps only its depth there, and takes the path back
/// when it closes.
///
/// When tracing is enabled (see [`crate::set_tracing`]) the guard also
/// carries a process-unique span id and an explicit parent link, and
/// pushes a [`crate::TraceEvent::Span`] into the trace journal on drop.
pub struct SpanGuard {
    depth: usize,
    start: Instant,
    /// Trace identity: 0 when tracing was off at open time.
    trace_id: u64,
    /// This span's parent id in the trace tree, restored as the thread's
    /// current parent when the span closes.
    trace_parent: u64,
    /// Open timestamp, ns since the trace epoch (only when traced).
    start_ns: u64,
}

/// Opens a span named `name`, nested under the thread's innermost open
/// span (if any).
#[must_use = "a span measures the region until the guard is dropped"]
pub fn span(name: &str) -> SpanGuard {
    let depth = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let path = match stack.last() {
            Some(parent) => format!("{parent}/{name}"),
            None => name.to_string(),
        };
        stack.push(path);
        stack.len() - 1
    });
    let (trace_id, trace_parent, start_ns) = if crate::tracing_enabled() {
        let id = crate::trace::next_span_id();
        let parent = crate::trace::swap_current_parent(id);
        (id, parent, crate::trace::now_ns())
    } else {
        (0, 0, 0)
    };
    SpanGuard {
        depth,
        start: Instant::now(),
        trace_id,
        trace_parent,
        start_ns,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if self.trace_id != 0 {
            crate::trace::restore_parent(self.trace_parent);
        }
        let path = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Guards normally drop LIFO and pop their own entry. One
            // dropped out of order leaves its entry in place, as the
            // spans opened under it still extend that path.
            if stack.len() == self.depth + 1 {
                stack.pop()
            } else {
                stack.get(self.depth).cloned()
            }
        });
        // No entry at our depth: the guard was dropped on another thread.
        let Some(path) = path else { return };
        crate::record_span(&path, ns);
        if verbose() {
            let name = leaf_name(&path);
            eprintln!(
                "{:indent$}[span] {name} {}",
                "",
                fmt_ns(ns),
                indent = 2 * self.depth
            );
        }
        if self.trace_id != 0 {
            // Still journal the close even if tracing was switched off
            // mid-span: a tree with holes is worse than a few extra
            // events at the shutdown boundary.
            crate::trace::record_span_event(
                self.trace_id,
                self.trace_parent,
                path,
                self.start_ns,
                ns,
            );
        }
    }
}

/// A span's name: the last `/` segment of its path.
pub(crate) fn leaf_name(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

/// Formats a nanosecond duration for humans.
#[must_use]
pub fn fmt_ns(ns: u64) -> String {
    let secs = ns as f64 / 1e9;
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} us", secs * 1e6)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_tracks_min_max_total() {
        let mut s = SpanSummary {
            count: 0,
            duration_ns: 0,
            min_ns: 0,
            max_ns: 0,
        };
        s.observe(10);
        s.observe(30);
        s.observe(20);
        assert_eq!(s.count, 3);
        assert_eq!(s.duration_ns, 60);
        assert_eq!(s.min_ns, 10);
        assert_eq!(s.max_ns, 30);
    }

    #[test]
    fn durations_format_by_magnitude() {
        assert_eq!(fmt_ns(500), "500 ns");
        assert_eq!(fmt_ns(1_500_000), "1.500 ms");
        assert_eq!(fmt_ns(2_000_000_000), "2.000 s");
        assert!(fmt_ns(3_000).contains("us"));
    }
}
