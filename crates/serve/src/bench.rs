//! The serve benchmark workload behind `BENCH_serve.json`.
//!
//! One in-process daemon, one probe client streaming full-coverage
//! batches as fast as the lockstep protocol allows, and one query
//! thread hammering the engine *while* ingest is running — so the
//! reported p50/p99 query latency is measured under load, which is what
//! the SLO promises.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tomo_core::fig1::fig1_system;
use tomo_detect::ConsistencyDetector;
use tomo_linalg::Vector;

use crate::client::ProbeClient;
use crate::server::{ServeConfig, Server};
use crate::wire::ProbeRow;

/// Batches built and streamed per call.
const CHUNK: usize = 1024;

/// Workload knobs.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Batches to stream (each covers every path).
    pub batches: usize,
    /// The p99 SLO the report is judged against, milliseconds.
    pub slo_ms: f64,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            batches: 400,
            slo_ms: 5.0,
        }
    }
}

/// What the workload measured.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Batches acknowledged durable.
    pub batches: u64,
    /// Rows per batch (= paths in the fig. 1 system).
    pub rows_per_batch: usize,
    /// Wall-clock seconds spent streaming.
    pub ingest_secs: f64,
    /// Acked batches per second.
    pub batches_per_sec: f64,
    /// Measurement rows per second.
    pub rows_per_sec: f64,
    /// Queries answered while ingest was running.
    pub queries: u64,
    /// Median query latency, microseconds.
    pub query_p50_us: f64,
    /// Tail query latency, microseconds.
    pub query_p99_us: f64,
    /// The SLO judged against, milliseconds.
    pub slo_ms: f64,
    /// `true` when `query_p99_us` stayed under the SLO.
    pub slo_met: bool,
}

impl BenchReport {
    /// Renders the report as a JSON object (the `BENCH_serve.json`
    /// payload body).
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"batches\": {}, \"rows_per_batch\": {}, \"ingest_secs\": {:.6}, \
             \"batches_per_sec\": {:.1}, \"rows_per_sec\": {:.1}, \"queries\": {}, \
             \"query_p50_us\": {:.1}, \"query_p99_us\": {:.1}, \"slo_ms\": {}, \
             \"slo_met\": {}}}",
            self.batches,
            self.rows_per_batch,
            self.ingest_secs,
            self.batches_per_sec,
            self.rows_per_sec,
            self.queries,
            self.query_p50_us,
            self.query_p99_us,
            self.slo_ms,
            self.slo_met,
        )
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Runs the ingest-throughput / query-latency workload against a fresh
/// in-process daemon over the fig. 1 system.
///
/// # Panics
///
/// Panics when the fig. 1 system cannot be built or the daemon cannot
/// bind (both indicate a broken environment, not a measurement).
#[must_use]
pub fn run(config: &BenchConfig) -> BenchReport {
    let system = Arc::new(fig1_system().expect("fig1 system builds"));
    let num_paths = system.num_paths();
    let x = Vector::filled(system.num_links(), 10.0);
    let y = system.measure(&x).expect("fig1 measurement");

    let server = Server::start(
        Arc::clone(&system),
        ConsistencyDetector::recommended(),
        ServeConfig {
            queue_capacity: 256,
            ..ServeConfig::default()
        },
    )
    .expect("daemon binds ephemeral ports");

    // Built one chunk at a time, so memory does not grow with `batches`;
    // the committed 400 are one chunk, built untimed.
    let chunk = |first: usize| -> Vec<Vec<ProbeRow>> {
        (first..config.batches.min(first + CHUNK))
            .map(|b| {
                (0..num_paths)
                    .map(|i| {
                        // Vary values so every batch forces a real apply.
                        ProbeRow::new(u32::try_from(i).expect("path fits"), y[i] + b as f64 * 1e-9)
                    })
                    .collect()
            })
            .collect()
    };
    let ((acked, ingest_secs), latencies) = while_querying(
        || {
            let _ = server.query();
        },
        || {
            let mut client = ProbeClient::new(server.ingest_addr(), 0xBEEF);
            let mut next = chunk(0);
            let start = Instant::now();
            let (mut acked, mut sent) = (0, 0);
            while !next.is_empty() {
                sent += next.len();
                acked += client
                    .stream(next, None)
                    .expect("clean stream delivers")
                    .acked;
                next = chunk(sent);
            }
            (acked, start.elapsed().as_secs_f64())
        },
    );

    drop(server);

    let mut sorted = latencies;
    sorted.sort_by(f64::total_cmp);
    let p50 = percentile(&sorted, 0.50);
    let p99 = percentile(&sorted, 0.99);
    BenchReport {
        batches: acked,
        rows_per_batch: num_paths,
        ingest_secs,
        batches_per_sec: acked as f64 / ingest_secs.max(1e-9),
        rows_per_sec: (acked as f64 * num_paths as f64) / ingest_secs.max(1e-9),
        queries: sorted.len() as u64,
        query_p50_us: p50,
        query_p99_us: p99,
        slo_ms: config.slo_ms,
        slo_met: p99 < config.slo_ms * 1000.0,
    }
}

/// Runs `ingest` while a second thread calls `query` every 500 µs, and
/// returns what `ingest` returns with each query's latency in µs. The
/// reader stops when `ingest` returns and also when it panics: the flag
/// is set by a guard that unwinding drops, so the scope can join the
/// reader and re-raise the panic instead of waiting forever.
fn while_querying<T>(query: impl Fn() + Sync, ingest: impl FnOnce() -> T) -> (T, Vec<f64>) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut lat = Vec::new();
            while !stop.load(Ordering::Acquire) {
                let start = Instant::now();
                query();
                lat.push(start.elapsed().as_secs_f64() * 1e6);
                std::thread::sleep(Duration::from_micros(500));
            }
            lat
        });
        let out = {
            let _stop = StopOnDrop(&stop);
            ingest()
        };
        (out, reader.join().expect("query thread joins"))
    })
}

/// Sets its flag when dropped, on a return or an unwind alike.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_workload_produces_a_sane_report() {
        let report = run(&BenchConfig {
            batches: 8,
            slo_ms: 1000.0,
        });
        assert_eq!(report.batches, 8);
        assert!(report.batches_per_sec > 0.0);
        assert!(report.queries > 0, "queries ran during ingest");
        assert!(report.query_p99_us >= report.query_p50_us);
        let json = report.to_json();
        assert!(json.contains("\"slo_met\": true"), "json: {json}");
    }

    #[test]
    fn a_panicking_ingest_stops_the_reader_and_returns() {
        let (tx, rx) = std::sync::mpsc::channel();
        // A thread of its own, so a hang fails the test after 10 s
        // instead of stalling it.
        let caller = std::thread::spawn(move || {
            let caught = std::panic::catch_unwind(|| {
                while_querying(|| {}, || -> u64 { panic!("ingest failed") })
            });
            let _ = tx.send(caught.is_err());
        });
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(10)),
            Ok(true),
            "the panic must reach the caller within 10 s"
        );
        caller.join().expect("the caller ends once it has reported");
    }
}
