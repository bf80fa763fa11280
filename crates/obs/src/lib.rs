//! Zero-dependency observability for the scapegoating reproduction.
//!
//! Every other crate in the workspace can afford to depend on this one:
//! it is pure `std` (no tracing/metrics ecosystems, which the offline
//! build environment could not fetch anyway). Three instrument families
//! share one global registry:
//!
//! * **metrics** — named [`Counter`]s, [`Gauge`]s, and log-scale
//!   [`Histogram`]s with p50/p90/p99 summaries. Hot call sites declare a
//!   `static` [`LazyCounter`]/[`LazyHistogram`] handle so the name lookup
//!   happens once; each update is then a few relaxed atomics.
//! * **spans** — RAII wall-clock timers ([`span`]) that nest per thread
//!   and aggregate per `/`-joined call path; `--verbose` printing via
//!   [`set_verbose`]. A span is not free even untraced: it formats its
//!   path on open and takes the registry mutex on close. On a 2-core
//!   x86-64 host (release build) that is ~130–160 ns for a root span and
//!   ~300–370 ns one level deep on one thread, and ~400–650 ns when two
//!   threads contend for the registry.
//! * **events** — a level-filtered log ([`info!`], [`debug!`], …)
//!   controlled by the `TOMO_LOG` environment variable, rendering
//!   human-readable lines to stderr.
//! * **traces** — opt-in ([`set_tracing`]) per-event recording of span
//!   trees with explicit parent links that survive `tomo-par` thread
//!   hops ([`TraceContext`]), plus per-trial provenance records
//!   ([`record_trial`]), in a bounded journal exportable as Chrome
//!   trace-event JSON ([`write_chrome_trace`]). The registry is
//!   scrapeable as Prometheus text ([`prometheus_text`],
//!   [`metrics_handler`]).
//!
//! Metric names follow `<crate>.<component>.<name>`, e.g.
//! `lp.simplex.pivots` or `attack.chosen_victim.damage`.
//!
//! [`snapshot`] captures everything recorded so far; its JSON form backs
//! `tomo-sim run … --metrics FILE`.
//!
//! ```
//! static SOLVES: tomo_obs::LazyCounter = tomo_obs::LazyCounter::new("doc.solver.solves");
//!
//! fn solve() {
//!     let _span = tomo_obs::span("doc.solve");
//!     SOLVES.inc();
//! }
//! solve();
//! let snap = tomo_obs::snapshot();
//! assert_eq!(snap.counter("doc.solver.solves"), Some(1));
//! assert!(snap.span("doc.solve").is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod http;
mod json;
mod log;
mod metrics;
mod prometheus;
mod span;
mod trace;

pub use http::{metrics_handler, Handler, HttpRequest, HttpResponse, HttpServer, HttpServerHandle};
pub use log::{log_enabled, log_record, set_max_level, Level};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSummary, HistogramTimer, LazyCounter, LazyGauge,
    LazyHistogram, HISTOGRAM_BUCKETS,
};
pub use prometheus::prometheus_text;
pub use span::{fmt_ns, set_verbose, span, verbose, SpanGuard, SpanSummary};
pub use trace::{
    chrome_trace_json, journal_snapshot, now_ns, record_trial, reset_journal, set_tracing,
    thread_tid, tracing_enabled, write_chrome_trace, ChromeTraceStats, ContextGuard,
    JournalSnapshot, TraceContext, TraceEvent, TrialProvenance, DEFAULT_JOURNAL_CAPACITY,
};

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

struct Registry {
    counters: Mutex<BTreeMap<&'static str, &'static Counter>>,
    gauges: Mutex<BTreeMap<&'static str, &'static Gauge>>,
    histograms: Mutex<BTreeMap<&'static str, &'static Histogram>>,
    spans: Mutex<BTreeMap<String, SpanSummary>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(BTreeMap::new()),
        gauges: Mutex::new(BTreeMap::new()),
        histograms: Mutex::new(BTreeMap::new()),
        spans: Mutex::new(BTreeMap::new()),
    })
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The counter registered under `name` (registering it on first use).
///
/// Instrument handles live for the program's lifetime (they are leaked
/// once per name), so [`reset`] zeroes values without invalidating them.
pub fn counter(name: &'static str) -> &'static Counter {
    lock(&registry().counters)
        .entry(name)
        .or_insert_with(|| Box::leak(Box::new(Counter::new())))
}

/// The gauge registered under `name` (registering it on first use).
pub fn gauge(name: &'static str) -> &'static Gauge {
    lock(&registry().gauges)
        .entry(name)
        .or_insert_with(|| Box::leak(Box::new(Gauge::new())))
}

/// The histogram registered under `name` (registering it on first use).
pub fn histogram(name: &'static str) -> &'static Histogram {
    lock(&registry().histograms)
        .entry(name)
        .or_insert_with(|| Box::leak(Box::new(Histogram::new())))
}

pub(crate) fn record_span(path: &str, ns: u64) {
    let mut spans = lock(&registry().spans);
    match spans.get_mut(path) {
        Some(stats) => stats.observe(ns),
        None => {
            let mut stats = SpanSummary {
                count: 0,
                duration_ns: 0,
                min_ns: 0,
                max_ns: 0,
            };
            stats.observe(ns);
            spans.insert(path.to_string(), stats);
        }
    }
}

/// Zeroes every registered instrument and clears span statistics.
///
/// Registered names (and the `&'static` handles pointing at them) stay
/// valid; only their recorded values are discarded.
pub fn reset() {
    for c in lock(&registry().counters).values() {
        c.reset();
    }
    for g in lock(&registry().gauges).values() {
        g.reset();
    }
    for h in lock(&registry().histograms).values() {
        h.reset();
    }
    lock(&registry().spans).clear();
}

/// A point-in-time copy of everything the registry has recorded.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram summaries by name.
    pub histograms: Vec<(String, HistogramSummary)>,
    /// Span statistics by `/`-joined path.
    pub spans: Vec<(String, SpanSummary)>,
}

/// Captures the current state of all instruments (sorted by name).
#[must_use]
pub fn snapshot() -> Snapshot {
    Snapshot {
        counters: lock(&registry().counters)
            .iter()
            .map(|(&n, c)| (n.to_string(), c.get()))
            .collect(),
        gauges: lock(&registry().gauges)
            .iter()
            .map(|(&n, g)| (n.to_string(), g.get()))
            .collect(),
        histograms: lock(&registry().histograms)
            .iter()
            .map(|(&n, h)| (n.to_string(), h.summary()))
            .collect(),
        spans: lock(&registry().spans)
            .iter()
            .map(|(n, s)| (n.clone(), *s))
            .collect(),
    }
}

impl Snapshot {
    /// Looks up a counter value by name.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a gauge value by name.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Looks up a histogram summary by name.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
    }

    /// Looks up span statistics by exact path.
    #[must_use]
    pub fn span(&self, path: &str) -> Option<&SpanSummary> {
        self.spans.iter().find(|(n, _)| n == path).map(|(_, s)| s)
    }

    /// Renders the snapshot as pretty JSON:
    ///
    /// ```json
    /// {
    ///   "counters": { "lp.simplex.pivots": 42 },
    ///   "gauges": { },
    ///   "histograms": { "name": { "count": 1, "sum": …, "p50": …, … } },
    ///   "spans": { "sim.fig4": { "count": 1, "duration_ns": …, … } }
    /// }
    /// ```
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        push_section(
            &mut out,
            "counters",
            self.counters
                .iter()
                .map(|(n, v)| (n.as_str(), v.to_string())),
            false,
        );
        push_section(
            &mut out,
            "gauges",
            self.gauges
                .iter()
                .map(|(n, v)| (n.as_str(), json::float(*v))),
            false,
        );
        push_section(
            &mut out,
            "histograms",
            self.histograms.iter().map(|(n, s)| {
                (
                    n.as_str(),
                    format!(
                        "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                         \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                        s.count,
                        json::float(s.sum),
                        json::float(s.min),
                        json::float(s.max),
                        json::float(s.p50),
                        json::float(s.p90),
                        json::float(s.p99),
                    ),
                )
            }),
            false,
        );
        push_section(
            &mut out,
            "spans",
            self.spans.iter().map(|(n, s)| {
                (
                    n.as_str(),
                    format!(
                        "{{\"count\": {}, \"duration_ns\": {}, \"min_ns\": {}, \"max_ns\": {}}}",
                        s.count, s.duration_ns, s.min_ns, s.max_ns,
                    ),
                )
            }),
            true,
        );
        out.push('}');
        out
    }

    /// Writes [`Snapshot::to_json`] to `path`, creating parent
    /// directories as needed.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error on failure.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json())
    }
}

fn push_section<'a>(
    out: &mut String,
    title: &str,
    entries: impl Iterator<Item = (&'a str, String)>,
    last: bool,
) {
    out.push_str(&format!("  {}: {{", json::string(title)));
    let mut first = true;
    for (name, rendered) in entries {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\n    {}: {rendered}", json::string(name)));
    }
    if !first {
        out.push_str("\n  ");
    }
    out.push('}');
    out.push_str(if last { "\n" } else { ",\n" });
}

/// Emits a log event at an explicit level.
///
/// ```
/// tomo_obs::event!(tomo_obs::Level::Warn, "doc.target", "x = {}", 1);
/// ```
#[macro_export]
macro_rules! event {
    ($level:expr, $target:expr, $($arg:tt)+) => {
        if $crate::log_enabled($level) {
            $crate::log_record($level, $target, &format!($($arg)+));
        }
    };
}

/// Emits an [`Level::Error`] event.
#[macro_export]
macro_rules! error {
    ($target:expr, $($arg:tt)+) => { $crate::event!($crate::Level::Error, $target, $($arg)+) };
}

/// Emits a [`Level::Warn`] event.
#[macro_export]
macro_rules! warn {
    ($target:expr, $($arg:tt)+) => { $crate::event!($crate::Level::Warn, $target, $($arg)+) };
}

/// Emits an [`Level::Info`] event.
#[macro_export]
macro_rules! info {
    ($target:expr, $($arg:tt)+) => { $crate::event!($crate::Level::Info, $target, $($arg)+) };
}

/// Emits a [`Level::Debug`] event.
#[macro_export]
macro_rules! debug {
    ($target:expr, $($arg:tt)+) => { $crate::event!($crate::Level::Debug, $target, $($arg)+) };
}

/// Emits a [`Level::Trace`] event.
#[macro_export]
macro_rules! trace {
    ($target:expr, $($arg:tt)+) => { $crate::event!($crate::Level::Trace, $target, $($arg)+) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_returns_stable_handles() {
        let a = counter("lib.test.stable");
        a.inc();
        let b = counter("lib.test.stable");
        assert_eq!(b.get(), 1);
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn snapshot_lookup_helpers() {
        counter("lib.test.lookup").add(3);
        gauge("lib.test.gauge").set(1.25);
        histogram("lib.test.hist").record(2.0);
        let snap = snapshot();
        assert_eq!(snap.counter("lib.test.lookup"), Some(3));
        assert_eq!(snap.gauge("lib.test.gauge"), Some(1.25));
        assert_eq!(snap.histogram("lib.test.hist").unwrap().count, 1);
        assert_eq!(snap.counter("lib.test.absent"), None);
    }

    #[test]
    fn snapshot_json_is_shapely() {
        counter("lib.test.json").add(7);
        let json = snapshot().to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with('}'));
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"lib.test.json\": 7"));
        assert!(json.contains("\"spans\""));
    }
}
