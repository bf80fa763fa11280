//! Live-daemon chaos — `tomo-serve` under wire faults, backpressure,
//! and a mid-sweep kill-and-restart.
//!
//! Unlike [`crate::chaos`], which sabotages *trials inside one process*,
//! this experiment stands up the real streaming daemon and attacks the
//! seams between processes: each sweep point boots a fresh `tomo-serve`
//! (journal on disk), streams full-coverage measurement batches through
//! a fleet of `config.clients` concurrent [`ProbeClient`]s — client `c`
//! of `C` sends the batch ids `{b : b % C == c}` via start id + stride,
//! each client's wire independently sabotaged at the point's `frame=`
//! rate (truncated frames, garbled type bytes, duplicates, reorders) —
//! queries link state *while* ingest is running to measure bounded
//! latency against the SLO, then kills the daemon at the midpoint and
//! restarts it on the same journal with the whole fleet mid-stream.
//!
//! Three invariants are enforced, not just reported:
//!
//! 1. **Ledger balance** — every injected wire fault is either handled
//!    (duplicate/reorder absorbed by dedup + last-writer-wins) or
//!    quarantined (truncate/garble discarded server-side, rows
//!    re-delivered cleanly): `injected == handled + quarantined`.
//! 2. **Byte-identical reconvergence** — after replaying the journal
//!    and ingesting the remaining batches, the final estimate bits must
//!    equal an uninterrupted fault-free run over the same measurements.
//! 3. **Bounded latency** — p99 of queries issued during ingest stays
//!    under the configured SLO.
//!
//! Determinism: batch values and fault draws derive from the seed; only
//! the latency numbers in the artifact are wall-clock.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use tomo_core::{fig1, TomographySystem};
use tomo_detect::ConsistencyDetector;
use tomo_fault::{FaultPlan, FaultReport, FaultSpec};
use tomo_linalg::Vector;
use tomo_par::derive_seed;
use tomo_serve::{ProbeClient, ProbeRow, ServeConfig, Server};

use crate::SimError;

/// Default fault mix for `tomo-sim run serve-chaos` when `--faults` is
/// not given: a quarter of all frames are sabotaged at scale 1.
pub const DEFAULT_FAULTS: &str = "frame=0.25";

/// Stream salts separating the per-point fault plan from the client's
/// backoff jitter.
const PLAN_SALT: u64 = 0x7769_7265; // "wire"
const JITTER_SALT: u64 = 0x6a69_7474; // "jitt"

/// Serve-chaos configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeChaosConfig {
    /// Measurement batches streamed per sweep point, in total across
    /// the client fleet.
    pub batches_per_point: usize,
    /// Concurrent faulted clients per daemon (client `c` of `C` sends
    /// the batch ids `{b : b % C == c}`).
    pub clients: usize,
    /// Rate multipliers applied to the base spec, one sweep point each.
    pub scales: Vec<f64>,
    /// The p99 query-latency SLO, milliseconds. Generous by default:
    /// the fig. 1 solve is microseconds, but CI machines share cores.
    pub slo_ms: f64,
}

impl Default for ServeChaosConfig {
    fn default() -> Self {
        ServeChaosConfig {
            batches_per_point: 80,
            clients: 2,
            scales: vec![0.0, 0.5, 1.0],
            slo_ms: 50.0,
        }
    }
}

impl ServeChaosConfig {
    /// The `--quick` smoke-test configuration.
    #[must_use]
    pub fn quick() -> Self {
        ServeChaosConfig {
            batches_per_point: 24,
            ..ServeChaosConfig::default()
        }
    }
}

/// One sweep point: a full daemon lifecycle at one fault scale.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeChaosPoint {
    /// Rate multiplier applied to the base spec.
    pub scale: f64,
    /// The scaled spec actually injected on the wire.
    pub spec: FaultSpec,
    /// Concurrent clients that delivered this point.
    pub clients: usize,
    /// Batches delivered across the fleet (all of them, or the run
    /// failed).
    pub batches: u64,
    /// Client reconnects (handshake count, including the restart).
    pub reconnects: u64,
    /// `Reject(QueueFull)` backpressure events honored.
    pub queue_full_rejects: u64,
    /// Session epoch after the mid-sweep restart.
    pub epoch_after_restart: u64,
    /// Batches the restarted daemon recovered by journal replay.
    pub replay_applied: u64,
    /// Final estimate bits equal the uninterrupted reference, bit for
    /// bit.
    pub byte_identical: bool,
    /// The Eq. 23 verdict on the final state (must be clean: the
    /// streamed measurements are consistent).
    pub detected: bool,
    /// Queries answered while ingest was running.
    pub queries: u64,
    /// Median in-flight query latency, microseconds.
    pub query_p50_us: f64,
    /// Tail in-flight query latency, microseconds.
    pub query_p99_us: f64,
    /// p99 stayed under the SLO.
    pub slo_ok: bool,
    /// The point's wire-fault ledger.
    pub report: FaultReport,
}

/// Structured serve-chaos result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeChaosResult {
    /// Master seed.
    pub seed: u64,
    /// Base (unscaled) fault spec.
    pub spec: FaultSpec,
    /// Configuration used.
    pub config: ServeChaosConfig,
    /// One entry per scale, in `config.scales` order.
    pub points: Vec<ServeChaosPoint>,
    /// Ledger merged across all points.
    pub totals: FaultReport,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Full-coverage batches with deterministic per-batch-distinct values:
/// consistent measurements (`y = Rx`) so the detector must stay quiet.
fn make_batches(system: &TomographySystem, count: usize) -> Result<Vec<Vec<ProbeRow>>, SimError> {
    let x = Vector::filled(system.num_links(), 10.0);
    let y = system.measure(&x)?;
    Ok((0..count)
        .map(|b| {
            (0..system.num_paths())
                .map(|i| {
                    ProbeRow::new(u32::try_from(i).unwrap_or(u32::MAX), y[i] + b as f64 * 1e-9)
                })
                .collect()
        })
        .collect())
}

fn temp_journal(seed: u64, point: usize) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "tomo-serve-chaos-{}-{seed}-{point}.journal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

fn serve_config(journal: Option<PathBuf>, slo_ms: f64) -> ServeConfig {
    ServeConfig {
        journal_path: journal,
        snapshot_every: 16,
        slo_ms,
        ..ServeConfig::default()
    }
}

struct PointRun {
    outcome: tomo_serve::StreamOutcome,
    epoch_after_restart: u64,
    replay_applied: u64,
    estimate_bits: Vec<u64>,
    detected: bool,
    latencies: Vec<f64>,
}

/// Streams `batches` through a daemon that is killed and restarted at
/// the midpoint, with `clients` concurrent faulted clients and queries
/// in flight throughout. Returns what the point observed.
fn run_point_daemon(
    system: &Arc<TomographySystem>,
    batches: Vec<Vec<ProbeRow>>,
    spec: FaultSpec,
    point_seed: u64,
    slo_ms: f64,
    journal: &Path,
    clients: usize,
) -> Result<PointRun, SimError> {
    let mid = batches.len() / 2;

    let mut outcome = tomo_serve::StreamOutcome::default();
    let mut latencies = Vec::new();

    // Phase 1: ids [0, mid) into daemon A, split across the fleet.
    let server_a = Server::start(
        Arc::clone(system),
        ConsistencyDetector::recommended(),
        serve_config(Some(journal.to_path_buf()), slo_ms),
    )
    .map_err(|e| SimError(format!("serve-chaos: daemon A start: {e}")))?;
    let (delta, mut lat) = fleet_stream(&server_a, &batches, 0, mid, spec, point_seed, clients, 0)?;
    merge_outcome(&mut outcome, &delta);
    latencies.append(&mut lat);
    drop(server_a); // kill mid-sweep, every client's stream severed

    // Phase 2: restart on the same journal; the fleet continues with
    // ids [mid, len) — each client resuming its own id residue class.
    let server_b = Server::start(
        Arc::clone(system),
        ConsistencyDetector::recommended(),
        serve_config(Some(journal.to_path_buf()), slo_ms),
    )
    .map_err(|e| SimError(format!("serve-chaos: daemon B start: {e}")))?;
    let epoch_after_restart = server_b.epoch();
    let replay_applied = server_b.engine_stats().applied;
    let (delta, mut lat) = fleet_stream(
        &server_b,
        &batches,
        mid,
        batches.len(),
        spec,
        point_seed,
        clients,
        1,
    )?;
    merge_outcome(&mut outcome, &delta);
    latencies.append(&mut lat);

    let answer = server_b
        .query()
        .map_err(|e| SimError(format!("serve-chaos: final query: {e}")))?;
    Ok(PointRun {
        outcome,
        epoch_after_restart,
        replay_applied,
        estimate_bits: answer.estimate_bits,
        detected: answer.verdict.detected,
        latencies,
    })
}

/// Streams the batch ids `[from, to)` through `clients` concurrent
/// probe clients (client `c` takes the ids `≡ c (mod clients)`, via
/// start id + stride) while a sidecar thread queries the daemon.
/// Returns the fleet's merged outcome and the observed query latencies
/// (µs). `phase` salts each client's fault stream so the two halves of
/// the sweep draw independent faults.
#[allow(clippy::too_many_arguments)]
fn fleet_stream(
    server: &Server,
    batches: &[Vec<ProbeRow>],
    from: usize,
    to: usize,
    spec: FaultSpec,
    point_seed: u64,
    clients: usize,
    phase: u64,
) -> Result<(tomo_serve::StreamOutcome, Vec<f64>), SimError> {
    let stop = AtomicBool::new(false);
    let addr = server.ingest_addr();
    // The fleet starts only once the sidecar is querying: on a loaded
    // machine the scheduler may otherwise run the whole phase before the
    // sidecar's first query.
    let (started, sidecar_started) = mpsc::channel();
    std::thread::scope(|scope| {
        let stop = &stop;
        // Owning `started` drops it if the sidecar panics, so the fleet
        // never waits on a dead sidecar.
        let query_thread = scope.spawn(move || {
            let mut lat = Vec::new();
            while !stop.load(Ordering::Acquire) {
                let start = Instant::now();
                let _ = server.query();
                lat.push(start.elapsed().as_secs_f64() * 1e6);
                if lat.len() == 1 {
                    let _ = started.send(());
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            lat
        });
        let _ = sidecar_started.recv();
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || -> Result<tomo_serve::StreamOutcome, String> {
                    let Some(first) = (from..to).find(|b| b % clients == c) else {
                        return Ok(tomo_serve::StreamOutcome::default());
                    };
                    let mine: Vec<Vec<ProbeRow>> = (first..to)
                        .step_by(clients)
                        .map(|b| batches[b].clone())
                        .collect();
                    let salt = phase * clients as u64 + c as u64;
                    let mut trial =
                        FaultPlan::new(spec, derive_seed(point_seed ^ PLAN_SALT, salt)).trial(0);
                    let jitter = derive_seed(point_seed ^ JITTER_SALT, salt);
                    let mut client = ProbeClient::new(addr, jitter)
                        .with_start_batch_id(first as u64)
                        .with_batch_id_stride(clients as u64);
                    client
                        .stream(mine, Some(&mut trial))
                        .map_err(|e| format!("client {c}: {e}"))
                })
            })
            .collect();
        let mut total = tomo_serve::StreamOutcome::default();
        let mut failure = None;
        for h in handles {
            match h.join() {
                Ok(Ok(delta)) => merge_outcome(&mut total, &delta),
                Ok(Err(e)) => failure = Some(SimError(format!("serve-chaos: stream failed: {e}"))),
                Err(_) => failure = Some(SimError("serve-chaos: client thread panicked".into())),
            }
        }
        stop.store(true, Ordering::Release);
        let latencies = query_thread.join().unwrap_or_default();
        match failure {
            Some(e) => Err(e),
            None => Ok((total, latencies)),
        }
    })
}

fn merge_outcome(total: &mut tomo_serve::StreamOutcome, delta: &tomo_serve::StreamOutcome) {
    total.acked += delta.acked;
    total.server_quarantined += delta.server_quarantined;
    total.reconnects += delta.reconnects;
    total.queue_full_rejects += delta.queue_full_rejects;
    total.stale_epoch_rejects += delta.stale_epoch_rejects;
    total.injected.merge(&delta.injected);
    total.handled += delta.handled;
    total.quarantined += delta.quarantined;
}

fn run_point(
    system: &Arc<TomographySystem>,
    reference_bits: &[u64],
    base: &FaultSpec,
    scale: f64,
    point_index: usize,
    seed: u64,
    config: &ServeChaosConfig,
) -> Result<ServeChaosPoint, SimError> {
    let spec = base.scaled(scale);
    let point_seed = derive_seed(seed, point_index as u64);
    let batches = make_batches(system, config.batches_per_point)?;
    let journal = temp_journal(seed, point_index);
    let run = run_point_daemon(
        system,
        batches,
        spec,
        point_seed,
        config.slo_ms,
        &journal,
        config.clients,
    );
    let _ = std::fs::remove_file(&journal);
    let run = run?;

    let mut sorted = run.latencies;
    sorted.sort_by(f64::total_cmp);
    let p50 = percentile(&sorted, 0.50);
    let p99 = percentile(&sorted, 0.99);

    let injected_total = run.outcome.injected.frame_total();
    let report = FaultReport {
        injected: injected_total,
        handled: run.outcome.handled,
        quarantined: run.outcome.quarantined,
        by_kind: run.outcome.injected,
        ..FaultReport::default()
    };

    Ok(ServeChaosPoint {
        scale,
        spec,
        clients: config.clients,
        batches: run.outcome.acked,
        reconnects: run.outcome.reconnects,
        queue_full_rejects: run.outcome.queue_full_rejects,
        epoch_after_restart: run.epoch_after_restart,
        replay_applied: run.replay_applied,
        byte_identical: run.estimate_bits == reference_bits,
        detected: run.detected,
        queries: sorted.len() as u64,
        query_p50_us: p50,
        query_p99_us: p99,
        slo_ok: p99 < config.slo_ms * 1000.0,
        report,
    })
}

/// Runs the serve-chaos sweep. The daemon is multithreaded internally;
/// sweep points run sequentially so each owns the machine.
///
/// # Errors
///
/// Returns [`SimError`] on substrate failure, an unbalanced ledger, a
/// detector false positive, a reconvergence mismatch, or a busted SLO —
/// the invariants are the experiment.
pub fn run(
    seed: u64,
    spec: &FaultSpec,
    config: &ServeChaosConfig,
) -> Result<ServeChaosResult, SimError> {
    let _span = tomo_obs::span("sim.serve_chaos");
    if config.batches_per_point < 4 || config.scales.is_empty() {
        return Err(SimError(
            "serve-chaos: need at least one scale and four batches per point".into(),
        ));
    }
    if config.clients == 0 || config.batches_per_point < 2 * config.clients {
        return Err(SimError(format!(
            "serve-chaos: {} batches cannot exercise {} concurrent clients across a restart \
             (need at least {})",
            config.batches_per_point,
            config.clients,
            2 * config.clients.max(1)
        )));
    }
    let system = Arc::new(fig1::fig1_system()?);

    // The uninterrupted fault-free reference every point must hit.
    let reference = Server::start(
        Arc::clone(&system),
        ConsistencyDetector::recommended(),
        serve_config(None, config.slo_ms),
    )
    .map_err(|e| SimError(format!("serve-chaos: reference daemon: {e}")))?;
    let mut ref_client = ProbeClient::new(reference.ingest_addr(), derive_seed(seed, u64::MAX));
    ref_client
        .stream(make_batches(&system, config.batches_per_point)?, None)
        .map_err(|e| SimError(format!("serve-chaos: reference stream: {e}")))?;
    let reference_bits = reference
        .query()
        .map_err(|e| SimError(format!("serve-chaos: reference query: {e}")))?
        .estimate_bits;
    drop(reference);

    let mut points = Vec::with_capacity(config.scales.len());
    let mut totals = FaultReport::default();
    for (pi, &scale) in config.scales.iter().enumerate() {
        let point = run_point(&system, &reference_bits, spec, scale, pi, seed, config)?;
        if !point.report.is_balanced() {
            return Err(SimError(format!(
                "serve-chaos ×{scale}: ledger unbalanced: {:?}",
                point.report
            )));
        }
        if !point.byte_identical {
            return Err(SimError(format!(
                "serve-chaos ×{scale}: restart reconvergence diverged from the reference"
            )));
        }
        if point.detected {
            return Err(SimError(format!(
                "serve-chaos ×{scale}: detector false positive on consistent measurements"
            )));
        }
        if !point.slo_ok {
            return Err(SimError(format!(
                "serve-chaos ×{scale}: p99 query latency {:.0}µs busts the {:.0}ms SLO",
                point.query_p99_us, config.slo_ms
            )));
        }
        totals.merge(&point.report);
        points.push(point);
    }
    Ok(ServeChaosResult {
        seed,
        spec: *spec,
        config: config.clone(),
        points,
        totals,
    })
}

/// Renders the sweep as a table of daemon survival vs. wire-fault scale.
#[must_use]
pub fn render(result: &ServeChaosResult) -> String {
    let mut rows = Vec::new();
    for p in &result.points {
        rows.push((
            format!("×{:<4.2} ({})", p.scale, p.spec),
            format!(
                "acked {:>3}  inj {:>3} (h {:>3}/q {:>2})  reconn {:>2}  p99 {:>7.0}µs {}  {}",
                p.batches,
                p.report.injected,
                p.report.handled,
                p.report.quarantined,
                p.reconnects,
                p.query_p99_us,
                if p.slo_ok { "ok" } else { "SLO-BUST" },
                if p.byte_identical {
                    "bit-exact"
                } else {
                    "DIVERGED"
                },
            ),
        ));
    }
    let ledger = format!(
        "ledger: injected {} = handled {} + quarantined {} ({}); every point restarted mid-sweep (epoch 2) and reconverged bit-exactly",
        result.totals.injected,
        result.totals.handled,
        result.totals.quarantined,
        if result.totals.is_balanced() {
            "balanced"
        } else {
            "UNBALANCED"
        },
    );
    let mut out = crate::report::two_column_table(
        &format!(
            "Serve-chaos — live daemon under wire faults + kill/restart, {} concurrent clients (seed {})",
            result.config.clients, result.seed
        ),
        ("fault scale", "delivery, latency, reconvergence"),
        &rows,
    );
    out.push_str(&ledger);
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ServeChaosConfig {
        ServeChaosConfig {
            batches_per_point: 12,
            scales: vec![0.0, 1.0],
            slo_ms: 1000.0, // debug builds on shared CI cores
            ..ServeChaosConfig::default()
        }
    }

    #[test]
    fn sweep_balances_restarts_and_reconverges() {
        let spec = FaultSpec::parse(DEFAULT_FAULTS).unwrap();
        let r = run(9, &spec, &tiny()).unwrap();
        assert!(r.totals.is_balanced());
        for p in &r.points {
            assert_eq!(p.batches, 12, "every batch delivered at ×{}", p.scale);
            assert_eq!(p.clients, 2, "the default fleet is two clients");
            assert!(p.byte_identical);
            assert!(!p.detected);
            assert_eq!(p.epoch_after_restart, 2, "one restart per point");
            assert!(p.queries > 0, "queries ran during ingest");
        }
        // Scale 0 injects nothing; scale 1 at rate 0.25 over 12 draws
        // (split over two independent fault streams) fires with
        // overwhelming probability under the fixed seed.
        assert_eq!(r.points[0].report.injected, 0);
        assert!(r.points[1].report.injected > 0);
        // Each of the two clients handshakes in both phases.
        assert!(r.points[0].reconnects >= 4);
    }

    #[test]
    fn a_three_client_fleet_reconverges_under_faults() {
        let spec = FaultSpec::parse(DEFAULT_FAULTS).unwrap();
        let config = ServeChaosConfig {
            clients: 3,
            scales: vec![1.0],
            ..tiny()
        };
        let r = run(17, &spec, &config).unwrap();
        assert!(r.totals.is_balanced());
        let p = &r.points[0];
        assert_eq!(p.clients, 3);
        assert_eq!(p.batches, 12);
        assert!(p.byte_identical, "fleet delivery is order-independent");
        assert_eq!(p.epoch_after_restart, 2);
        assert!(p.reconnects >= 6, "three clients × two phases");
    }

    #[test]
    fn render_contains_table_and_ledger() {
        let spec = FaultSpec::parse(DEFAULT_FAULTS).unwrap();
        let r = run(9, &spec, &tiny()).unwrap();
        let s = render(&r);
        assert!(s.contains("Serve-chaos"));
        assert!(s.contains("balanced"));
        assert!(!s.contains("UNBALANCED"));
        assert!(s.contains("bit-exact"));
    }

    #[test]
    fn rejects_degenerate_sweeps() {
        let spec = FaultSpec::default();
        assert!(run(
            1,
            &spec,
            &ServeChaosConfig {
                scales: vec![],
                ..tiny()
            },
        )
        .is_err());
        assert!(run(
            1,
            &spec,
            &ServeChaosConfig {
                batches_per_point: 2,
                ..tiny()
            },
        )
        .is_err());
        assert!(run(
            1,
            &spec,
            &ServeChaosConfig {
                clients: 0,
                ..tiny()
            },
        )
        .is_err());
        // 12 batches cannot keep 7 clients busy on both sides of the
        // restart.
        assert!(run(
            1,
            &spec,
            &ServeChaosConfig {
                clients: 7,
                ..tiny()
            },
        )
        .is_err());
    }
}
