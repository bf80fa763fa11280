//! Serve-load — `tomo-serve` under many concurrent clients.
//!
//! The snapshot query path exists so the daemon can take a fleet of
//! probes without the answers degrading: this sweep proves it. Each
//! point boots one daemon and aims `N` concurrent [`ProbeClient`]s at
//! it, for `N` in `config.client_counts`. Client `c` of `N` sends
//! exactly the batch ids `{b : b % N == c}` via start id `c` + stride
//! `N`, so the fleet partitions the global id sequence a single client
//! would have produced — and because the engine's final state is a pure
//! function of the applied-batch set, every point must land
//! **bit-identical** to a single-client reference run. A sidecar thread
//! hammers queries throughout, checking every loaded snapshot
//! ([`tomo_serve::EngineSnapshot::self_check`]) and that versions never
//! regress — the query path's invariants are asserted live, under real
//! contention, not just in unit tests.
//!
//! Batch content is grouped: batch `b` carries rows for the paths
//! `{p : p % groups == b % groups}` (value `y[p] + b·1e-9`), so
//! consecutive batches write different slots, while the content of
//! batch `b` stays independent of the client count. Clients deliver through
//! [`ProbeClient::stream_windowed`], pipelining [`SEND_WINDOW`] batches
//! per ack round trip — the sweep measures ingest, not per-batch
//! round-trip stalls.
//!
//! Three invariants are enforced, not just reported: byte-identical
//! final state at every client count, query p99 under the SLO at every
//! client count, and full delivery (every batch acked exactly once
//! across the fleet). Throughput (aggregate batches/s) is reported and
//! gated downstream by `tomo-bench` against the committed
//! `BENCH_serve_load.json` baseline.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use tomo_core::{fig1, TomographySystem};
use tomo_detect::ConsistencyDetector;
use tomo_linalg::Vector;
use tomo_par::derive_seed;
use tomo_serve::{ProbeClient, ProbeRow, ServeConfig, Server};

use crate::serve_chaos::percentile;
use crate::SimError;

/// Serve-load configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeLoadConfig {
    /// Concurrent-client counts, one sweep point each.
    pub client_counts: Vec<usize>,
    /// Batches delivered per point, in total across the fleet.
    pub batches_total: usize,
    /// Path groups: batch `b` carries the paths `p % groups == b %
    /// groups`.
    pub groups: usize,
    /// The p99 query-latency SLO, milliseconds.
    pub slo_ms: f64,
}

impl Default for ServeLoadConfig {
    fn default() -> Self {
        ServeLoadConfig {
            client_counts: vec![1, 4, 16, 64],
            batches_total: 16384,
            groups: 8,
            slo_ms: 5.0,
        }
    }
}

impl ServeLoadConfig {
    /// The `--quick` smoke-test configuration: fewer clients, fewer
    /// batches, a debug-build-tolerant SLO.
    #[must_use]
    pub fn quick() -> Self {
        ServeLoadConfig {
            client_counts: vec![1, 4],
            batches_total: 512,
            slo_ms: 250.0,
            ..ServeLoadConfig::default()
        }
    }
}

/// One sweep point: a full daemon lifecycle at one client count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeLoadPoint {
    /// Concurrent clients aimed at the daemon.
    pub clients: usize,
    /// Batches acked across the fleet (must equal `batches_total`).
    pub batches: u64,
    /// Wall-clock seconds from first client spawn to last join.
    pub elapsed_s: f64,
    /// Aggregate ingest throughput.
    pub batches_per_sec: f64,
    /// Queries answered while ingest was running.
    pub queries: u64,
    /// Median in-flight query latency, microseconds.
    pub query_p50_us: f64,
    /// Tail in-flight query latency, microseconds.
    pub query_p99_us: f64,
    /// p99 stayed under the SLO.
    pub slo_ok: bool,
    /// Final estimate bits equal the single-client reference, bit for
    /// bit.
    pub byte_identical: bool,
    /// Snapshot version after the last publish (monotone across the
    /// point; > 0 proves the snapshot path was exercised).
    pub snapshot_version: u64,
    /// Batches admitted to the ingest queue.
    pub queue_pushed: u64,
    /// Pushes the ingest queue refused at capacity.
    pub queue_rejects: u64,
    /// Client reconnects summed across the fleet.
    pub reconnects: u64,
    /// `Reject(QueueFull)` backpressure events honored by the fleet.
    pub queue_full_rejects: u64,
}

/// Structured serve-load result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeLoadResult {
    /// Master seed.
    pub seed: u64,
    /// Configuration used.
    pub config: ServeLoadConfig,
    /// Cores available when the sweep ran (throughput baselines are
    /// only comparable on machines with at least this many).
    pub cores: u64,
    /// One entry per client count, in `config.client_counts` order.
    pub points: Vec<ServeLoadPoint>,
}

/// Batches pipelined per ack round trip (well under the client's
/// default `max_unacked` resend buffer).
pub const SEND_WINDOW: usize = 32;

/// The rows of batch `b`: deterministic, grouped, independent of the
/// client count. `y` is the full consistent measurement vector.
fn batch_rows(y: &Vector, num_paths: usize, groups: usize, b: usize) -> Vec<ProbeRow> {
    (0..num_paths)
        .filter(|p| p % groups == b % groups)
        .map(|p| ProbeRow::new(u32::try_from(p).unwrap_or(u32::MAX), y[p] + b as f64 * 1e-9))
        .collect()
}

fn serve_config(slo_ms: f64) -> ServeConfig {
    ServeConfig {
        // Pipelined fleets keep up to clients × SEND_WINDOW batches in
        // flight; provision the queue so backpressure measures the
        // apply path, not an undersized test queue.
        queue_capacity: 4096,
        slo_ms,
        ..ServeConfig::default()
    }
}

/// The single-client run every point must match bit for bit.
fn reference_bits(
    system: &Arc<TomographySystem>,
    rows: &[Vec<ProbeRow>],
    seed: u64,
    slo_ms: f64,
) -> Result<Vec<u64>, SimError> {
    let server = Server::start(
        Arc::clone(system),
        ConsistencyDetector::recommended(),
        serve_config(slo_ms),
    )
    .map_err(|e| SimError(format!("serve-load: reference daemon: {e}")))?;
    let mut client = ProbeClient::new(server.ingest_addr(), derive_seed(seed, u64::MAX));
    client
        .stream_windowed(rows.to_vec(), SEND_WINDOW)
        .map_err(|e| SimError(format!("serve-load: reference stream: {e}")))?;
    Ok(server
        .query()
        .map_err(|e| SimError(format!("serve-load: reference query: {e}")))?
        .estimate_bits)
}

/// Hammers the snapshot query path until `stop`: every loaded snapshot
/// must self-check and versions must never regress. Signals `started`
/// once its first query has run (dropping it on an early error). Returns
/// query latencies (µs).
fn query_hammer(
    server: &Server,
    stop: &AtomicBool,
    started: Sender<()>,
) -> Result<Vec<f64>, String> {
    let mut latencies = Vec::new();
    let mut last_version = 0u64;
    while !stop.load(Ordering::Acquire) {
        let snap = server.snapshot();
        if !snap.self_check() {
            return Err(format!("torn snapshot at version {}", snap.version()));
        }
        if snap.version() < last_version {
            return Err(format!(
                "snapshot version regressed: {} after {last_version}",
                snap.version()
            ));
        }
        last_version = snap.version();
        let start = Instant::now();
        let _ = server.query();
        latencies.push(start.elapsed().as_secs_f64() * 1e6);
        if latencies.len() == 1 {
            let _ = started.send(());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(latencies)
}

struct ClientTally {
    acked: u64,
    reconnects: u64,
    queue_full_rejects: u64,
}

fn run_point(
    system: &Arc<TomographySystem>,
    all_rows: &[Vec<ProbeRow>],
    reference: &[u64],
    clients: usize,
    seed: u64,
    config: &ServeLoadConfig,
) -> Result<ServeLoadPoint, SimError> {
    let server = Server::start(
        Arc::clone(system),
        ConsistencyDetector::recommended(),
        serve_config(config.slo_ms),
    )
    .map_err(|e| SimError(format!("serve-load: daemon ({clients} clients): {e}")))?;
    let addr = server.ingest_addr();
    let stop = AtomicBool::new(false);

    let (tallies, latencies, elapsed) = std::thread::scope(
        |scope| -> Result<(Vec<ClientTally>, Vec<f64>, f64), SimError> {
            // The fleet starts only once the hammer is querying: on a
            // loaded machine the scheduler may otherwise run the whole
            // ingest before the hammer's first query.
            let (started, hammer_started) = mpsc::channel();
            let hammer = scope.spawn(|| query_hammer(&server, &stop, started));
            let _ = hammer_started.recv();
            let start = Instant::now();
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    scope.spawn(move || -> Result<ClientTally, String> {
                        let mut client = ProbeClient::new(addr, derive_seed(seed, c as u64))
                            .with_start_batch_id(c as u64)
                            .with_batch_id_stride(clients as u64);
                        let mine: Vec<Vec<ProbeRow>> = (c..all_rows.len())
                            .step_by(clients)
                            .map(|b| all_rows[b].clone())
                            .collect();
                        let outcome = client
                            .stream_windowed(mine, SEND_WINDOW)
                            .map_err(|e| format!("client {c}: {e}"))?;
                        Ok(ClientTally {
                            acked: outcome.acked,
                            reconnects: outcome.reconnects,
                            queue_full_rejects: outcome.queue_full_rejects,
                        })
                    })
                })
                .collect();
            let mut tallies = Vec::with_capacity(clients);
            for h in handles {
                let tally = h
                    .join()
                    .map_err(|_| SimError("serve-load: client thread panicked".into()))?
                    .map_err(|e| SimError(format!("serve-load: {e}")))?;
                tallies.push(tally);
            }
            let elapsed = start.elapsed().as_secs_f64();
            stop.store(true, Ordering::Release);
            let latencies = hammer
                .join()
                .map_err(|_| SimError("serve-load: query thread panicked".into()))?
                .map_err(|e| SimError(format!("serve-load ({clients} clients): {e}")))?;
            Ok((tallies, latencies, elapsed))
        },
    )?;

    let answer = server
        .query()
        .map_err(|e| SimError(format!("serve-load: final query: {e}")))?;
    let snapshot_version = server.snapshot().version();
    let queue = server.queue_stats();

    let mut sorted = latencies;
    sorted.sort_by(f64::total_cmp);
    let p50 = percentile(&sorted, 0.50);
    let p99 = percentile(&sorted, 0.99);
    let acked: u64 = tallies.iter().map(|t| t.acked).sum();

    Ok(ServeLoadPoint {
        clients,
        batches: acked,
        elapsed_s: elapsed,
        batches_per_sec: if elapsed > 0.0 {
            acked as f64 / elapsed
        } else {
            0.0
        },
        queries: sorted.len() as u64,
        query_p50_us: p50,
        query_p99_us: p99,
        slo_ok: p99 < config.slo_ms * 1000.0,
        byte_identical: answer.estimate_bits == reference,
        snapshot_version,
        queue_pushed: queue.pushed,
        queue_rejects: queue.rejects,
        reconnects: tallies.iter().map(|t| t.reconnects).sum(),
        queue_full_rejects: tallies.iter().map(|t| t.queue_full_rejects).sum(),
    })
}

/// Runs the serve-load sweep. Points run sequentially so each client
/// fleet owns the machine.
///
/// # Errors
///
/// Returns [`SimError`] on substrate failure, a lost or duplicated
/// batch, a torn or regressing snapshot, a reconvergence mismatch, or a
/// busted SLO — the invariants are the experiment.
pub fn run(seed: u64, config: &ServeLoadConfig) -> Result<ServeLoadResult, SimError> {
    let _span = tomo_obs::span("sim.serve_load");
    if config.client_counts.is_empty() || config.client_counts.contains(&0) {
        return Err(SimError(
            "serve-load: need at least one client count, all positive".into(),
        ));
    }
    if config.groups == 0 {
        return Err(SimError("serve-load: groups must be positive".into()));
    }
    let max_clients = *config.client_counts.iter().max().unwrap_or(&1);
    if config.batches_total < 2 * max_clients {
        return Err(SimError(format!(
            "serve-load: {} batches cannot exercise {max_clients} clients (need at least {})",
            config.batches_total,
            2 * max_clients
        )));
    }
    let system = Arc::new(fig1::fig1_system()?);

    let x = Vector::filled(system.num_links(), 10.0);
    let y = system.measure(&x)?;
    let groups = config.groups.min(system.num_paths());
    let all_rows: Vec<Vec<ProbeRow>> = (0..config.batches_total)
        .map(|b| batch_rows(&y, system.num_paths(), groups, b))
        .collect();

    let reference = reference_bits(&system, &all_rows, seed, config.slo_ms)?;
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get) as u64;

    let mut points = Vec::with_capacity(config.client_counts.len());
    for &clients in &config.client_counts {
        let point = run_point(&system, &all_rows, &reference, clients, seed, config)?;
        if point.batches != config.batches_total as u64 {
            return Err(SimError(format!(
                "serve-load {clients} clients: {} of {} batches acked",
                point.batches, config.batches_total
            )));
        }
        if !point.byte_identical {
            return Err(SimError(format!(
                "serve-load {clients} clients: final state diverged from the single-client reference"
            )));
        }
        if !point.slo_ok {
            return Err(SimError(format!(
                "serve-load {clients} clients: p99 query latency {:.0}µs busts the {:.0}ms SLO",
                point.query_p99_us, config.slo_ms
            )));
        }
        if point.snapshot_version == 0 {
            return Err(SimError(format!(
                "serve-load {clients} clients: no snapshot was ever published"
            )));
        }
        points.push(point);
    }
    Ok(ServeLoadResult {
        seed,
        config: config.clone(),
        cores,
        points,
    })
}

/// Renders the sweep as a table of throughput and tail latency vs
/// client count.
#[must_use]
pub fn render(result: &ServeLoadResult) -> String {
    let mut rows = Vec::new();
    for p in &result.points {
        rows.push((
            format!("{:>3} clients", p.clients),
            format!(
                "{:>9.0} batches/s  p50 {:>6.0}µs  p99 {:>7.0}µs {}  rejects {:>3}  {}",
                p.batches_per_sec,
                p.query_p50_us,
                p.query_p99_us,
                if p.slo_ok { "ok" } else { "SLO-BUST" },
                p.queue_rejects,
                if p.byte_identical {
                    "bit-exact"
                } else {
                    "DIVERGED"
                },
            ),
        ));
    }
    let mut out = crate::report::two_column_table(
        &format!(
            "Serve-load — {} batches (seed {}, {} core(s))",
            result.config.batches_total, result.seed, result.cores
        ),
        ("fleet", "aggregate throughput, query tail, identity"),
        &rows,
    );
    out.push_str(
        "every point byte-identical to the single-client reference; \
         snapshots self-checked under load\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ServeLoadConfig {
        ServeLoadConfig {
            client_counts: vec![1, 3],
            batches_total: 48,
            groups: 4,
            slo_ms: 1000.0, // debug builds on shared CI cores
        }
    }

    #[test]
    fn sweep_is_bit_exact_across_client_counts() {
        let r = run(11, &tiny()).unwrap();
        assert_eq!(r.points.len(), 2);
        for p in &r.points {
            assert_eq!(
                p.batches, 48,
                "all batches delivered at {} clients",
                p.clients
            );
            assert!(p.byte_identical);
            assert!(p.slo_ok);
            assert!(p.queries > 0, "queries ran during ingest");
            assert!(p.snapshot_version > 0);
            assert_eq!(p.queue_pushed, 48, "every batch queued once");
        }
        // The 3-client fleet handshakes at least once per client.
        assert!(r.points[1].reconnects >= 3);
    }

    #[test]
    fn grouped_batches_partition_the_paths() {
        let system = fig1::fig1_system().unwrap();
        let x = Vector::filled(system.num_links(), 10.0);
        let y = system.measure(&x).unwrap();
        let groups = 4;
        // Every path appears in exactly one group's batches; a full
        // cycle of `groups` consecutive batches covers every path once.
        let mut covered = vec![0u32; system.num_paths()];
        for b in 0..groups {
            for row in batch_rows(&y, system.num_paths(), groups, b) {
                covered[row.path as usize] += 1;
            }
        }
        assert!(covered.iter().all(|&c| c == 1), "{covered:?}");
        // Content depends only on the batch id, not who sends it.
        assert_eq!(
            batch_rows(&y, system.num_paths(), groups, 7),
            batch_rows(&y, system.num_paths(), groups, 7)
        );
    }

    #[test]
    fn render_contains_table_and_identity() {
        let r = run(11, &tiny()).unwrap();
        let s = render(&r);
        assert!(s.contains("Serve-load"));
        assert!(s.contains("bit-exact"));
        assert!(!s.contains("DIVERGED"));
        assert!(!s.contains("SLO-BUST"));
    }

    #[test]
    fn rejects_degenerate_sweeps() {
        assert!(run(
            1,
            &ServeLoadConfig {
                client_counts: vec![],
                ..tiny()
            },
        )
        .is_err());
        assert!(run(
            1,
            &ServeLoadConfig {
                client_counts: vec![0],
                ..tiny()
            },
        )
        .is_err());
        assert!(run(
            1,
            &ServeLoadConfig {
                batches_total: 4,
                ..tiny()
            },
        )
        .is_err());
        assert!(run(
            1,
            &ServeLoadConfig {
                groups: 0,
                ..tiny()
            },
        )
        .is_err());
    }
}
