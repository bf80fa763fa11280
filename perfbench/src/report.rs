//! What one workload run hands back, the metric catalogue, and the
//! statistics and layer accounting shared by every workload.

use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics, reported by every workload on an untraced run.
/// `(name, unit)`; the order is the order they are printed in.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, reported by every workload on a traced run. A layer
/// a workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.generate_ms", "ms"),
    ("core.placement_ms", "ms"),
    ("core.placement.paths", "count"),
    ("core.placement.monitors", "count"),
    ("core.estimator_cache_ms", "ms"),
    ("attack.trial_p50_us", "us"),
    ("attack.trial_p99_us", "us"),
    ("attack.trials", "count"),
    ("attack.trials_per_s", "1/s"),
    ("attack.degenerate", "count"),
    ("attack.chosen_victim_ms", "ms"),
    ("attack.max_damage_ms", "ms"),
    ("attack.obfuscation_ms", "ms"),
    ("attack.stealthy_success_frac", "ratio"),
    ("detect.inspect_us", "us"),
    ("detect.rescore_us", "us"),
    ("lp.solves", "count"),
    ("lp.pivots", "count"),
    ("lp.iterations", "count"),
    ("par.busy_frac", "ratio"),
    ("serve.ingest_batches_per_s", "1/s"),
    ("serve.client.window_ms", "ms"),
    ("serve.client.queue_full_rejects", "count"),
    ("serve.queue.pushed", "count"),
    ("serve.queue.rejects", "count"),
    ("serve.engine.applied", "count"),
    ("serve.engine.reordered", "count"),
    ("serve.engine.deduped", "count"),
    ("serve.snapshot.publishes", "count"),
    ("serve.snapshot.batches_per_publish", "count"),
    ("serve.snapshot.answer_ms", "ms"),
    ("serve.query.fresh_solve_frac", "ratio"),
    ("serve.query.p50_ms", "ms"),
    ("serve.query.p99_ms", "ms"),
    ("serve.ack.p50_ms", "ms"),
    ("serve.ack.p99_ms", "ms"),
    ("serve.http.state_ms", "ms"),
    ("serve.journal.bytes_per_batch", "B"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.run_s", "s"),
    ("trace.unattributed_frac", "ratio"),
];

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (trials, batches, queries).
    pub attempted: u64,
    /// Of those, operations that returned an error, were left unacked or
    /// quarantined, or whose query failed.
    pub failed: u64,
    /// Oracle violations; empty when every output checked out.
    pub violations: Vec<String>,
    /// Metric values by name (end-to-end and per-layer alike).
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records an oracle violation unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values` (0 when empty).
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values` (0 when empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Mean of `values` (0 when empty).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Quantile `q` of `values` when at least ten samples lie above it, and 0
/// otherwise, so a tail is only reported where it was observed.
#[must_use]
pub fn tail(values: &[f64], q: f64) -> f64 {
    let beyond = (values.len() as f64 * (1.0 - q)).floor();
    if beyond >= 10.0 {
        quantile(values, q)
    } else {
        0.0
    }
}

/// Milliseconds since `start`.
#[must_use]
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `f` inside a `tomo_obs` span named `name` when tracing is on, and
/// bare otherwise, so the untraced run pays nothing for the
/// instrumentation.
pub fn layer<T>(name: &str, f: impl FnOnce() -> T) -> T {
    if tomo_obs::tracing_enabled() {
        let _span = tomo_obs::span(name);
        f()
    } else {
        f()
    }
}

/// One row of the per-layer table: a span path with its call count,
/// total time and self time (total minus the direct children recorded on
/// the same thread).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    /// `/`-joined span path.
    pub path: String,
    /// Times the span closed.
    pub count: u64,
    /// Total wall time, ms.
    pub total_ms: f64,
    /// Total minus direct children, ms.
    pub self_ms: f64,
}

/// Builds the per-layer table from the span registry, and the share of
/// `root`'s wall time that no child span covers.
#[must_use]
pub fn layer_table(root: &str) -> (Vec<LayerRow>, f64) {
    let snap = tomo_obs::snapshot();
    let spans: Vec<(String, tomo_obs::SpanSummary)> = snap
        .spans
        .iter()
        .map(|(path, summary)| (path.clone(), *summary))
        .collect();
    let mut rows = Vec::with_capacity(spans.len());
    for (path, summary) in &spans {
        let prefix = format!("{path}/");
        let children_ns: u64 = spans
            .iter()
            .filter(|(p, _)| {
                p.strip_prefix(&prefix)
                    .is_some_and(|rest| !rest.contains('/'))
            })
            .map(|(_, s)| s.duration_ns)
            .sum();
        rows.push(LayerRow {
            path: path.clone(),
            count: summary.count,
            total_ms: summary.duration_ns as f64 / 1e6,
            self_ms: summary.duration_ns.saturating_sub(children_ns) as f64 / 1e6,
        });
    }
    rows.sort_by(|a, b| a.path.cmp(&b.path));
    let unattributed = rows
        .iter()
        .find(|r| r.path == root)
        .filter(|r| r.total_ms > 0.0)
        .map_or(0.0, |r| r.self_ms / r.total_ms);
    (rows, unattributed)
}

/// Renders the per-layer table as aligned text.
#[must_use]
pub fn render_layer_table(rows: &[LayerRow], unattributed: f64) -> String {
    let width = rows.iter().map(|r| r.path.len()).max().unwrap_or(4).max(4);
    let mut out = format!(
        "{:<width$}  {:>9}  {:>12}  {:>12}\n",
        "span", "count", "total_ms", "self_ms"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<width$}  {:>9}  {:>12.3}  {:>12.3}\n",
            r.path, r.count, r.total_ms, r.self_ms
        ));
    }
    out.push_str(&format!("unattributed_frac {unattributed:.4}\n"));
    out
}
