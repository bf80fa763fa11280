//! Live-daemon chaos — `tomo-serve` under wire faults, backpressure,
//! and a mid-sweep kill-and-restart.
//!
//! Unlike [`crate::chaos`], which sabotages *trials inside one process*,
//! this experiment stands up the real streaming daemon and attacks the
//! seams between processes: each sweep point boots a fresh `tomo-serve`
//! (journal on disk), streams full-coverage measurement batches through
//! the crate's one fleet runner — `config.clients` concurrent
//! [`ProbeClient`](tomo_serve::ProbeClient)s, client `c` of `C` sending
//! the batch ids `{b : b % C == c}`, each client's wire independently
//! sabotaged at the point's `frame=` rate (truncated frames, garbled
//! type bytes, duplicates, reorders) — while the runner's query hammer
//! measures latency against the SLO and fails the point on a torn or
//! regressing snapshot, then kills the daemon at the midpoint and
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
//!    equal an offline engine fed the same batches in id order.
//! 3. **Bounded latency** — p99 of queries issued during ingest stays
//!    under the configured SLO.
//!
//! Determinism: batch values and fault draws derive from the seed; only
//! the latency numbers in the artifact are wall-clock.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use tomo_core::{fig1, TomographySystem};
use tomo_detect::ConsistencyDetector;
use tomo_fault::{FaultPlan, FaultReport, FaultSpec};
use tomo_linalg::Vector;
use tomo_par::derive_seed;
use tomo_serve::{ProbeRow, ServeConfig, Server, StreamOutcome};

use crate::fleet::{self, percentile};
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
    /// Final estimate bits equal the offline reference, bit for bit.
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

/// Full-coverage batches with deterministic per-batch-distinct values:
/// consistent measurements (`y = Rx`) so the detector must stay quiet.
pub(crate) fn batches(
    system: &TomographySystem,
    count: usize,
) -> Result<Vec<Vec<ProbeRow>>, SimError> {
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

fn temp_journal(point_seed: u64) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "tomo-serve-chaos-{}-{point_seed:016x}.journal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

struct PointRun {
    outcome: StreamOutcome,
    epoch_after_restart: u64,
    replay_applied: u64,
    estimate_bits: Vec<u64>,
    detected: bool,
    latencies: Vec<f64>,
}

/// Streams `batches` through a daemon that is killed and restarted at
/// the midpoint, with `config.clients` concurrent faulted clients and
/// queries in flight throughout. Returns what the point observed.
fn run_point_daemon(
    system: &Arc<TomographySystem>,
    batches: &[Vec<ProbeRow>],
    spec: FaultSpec,
    point_seed: u64,
    journal: &Path,
    config: &ServeChaosConfig,
) -> Result<PointRun, SimError> {
    let (mid, clients) = (batches.len() / 2, config.clients);
    // One phase of the fleet: the ids `ids`, each client on its own
    // fault and jitter streams, salted by phase so the two halves of the
    // sweep draw independent faults.
    let phase = |server: &Server, ids: std::ops::Range<usize>, phase: u64| {
        let salt = |c: usize| phase * clients as u64 + c as u64;
        fleet::run(
            server,
            batches,
            ids,
            clients,
            |c| derive_seed(point_seed ^ JITTER_SALT, salt(c)),
            |c, client, share| {
                let mut trial =
                    FaultPlan::new(spec, derive_seed(point_seed ^ PLAN_SALT, salt(c))).trial(0);
                client.stream(share, Some(&mut trial))
            },
        )
        .map_err(|e| SimError(format!("serve-chaos: phase {}: {e}", phase + 1)))
    };
    let start = |label: &str| {
        Server::start(
            Arc::clone(system),
            ConsistencyDetector::recommended(),
            ServeConfig {
                journal_path: Some(journal.to_path_buf()),
                snapshot_every: 16,
                slo_ms: config.slo_ms,
                ..ServeConfig::default()
            },
        )
        .map_err(|e| SimError(format!("serve-chaos: daemon {label} start: {e}")))
    };

    // Phase 1: ids [0, mid) into daemon A, split across the fleet.
    let server_a = start("A")?;
    let first = phase(&server_a, 0..mid, 0)?;
    drop(server_a); // kill mid-sweep, every client's stream severed

    // Phase 2: restart on the same journal; the fleet continues with
    // ids [mid, len) — each client resuming its own id residue class.
    let server_b = start("B")?;
    let epoch_after_restart = server_b.epoch();
    let replay_applied = server_b.engine_stats().applied;
    let second = phase(&server_b, mid..batches.len(), 1)?;

    let answer = server_b
        .query()
        .map_err(|e| SimError(format!("serve-chaos: final query: {e}")))?;
    let mut outcome = first.outcome;
    outcome.merge(&second.outcome);
    let mut latencies = first.latencies_us;
    latencies.extend(second.latencies_us);
    latencies.sort_by(f64::total_cmp);
    Ok(PointRun {
        outcome,
        epoch_after_restart,
        replay_applied,
        estimate_bits: answer.estimate_bits,
        detected: answer.verdict.detected,
        latencies,
    })
}

fn run_point(
    system: &Arc<TomographySystem>,
    batches: &[Vec<ProbeRow>],
    reference_bits: &[u64],
    base: &FaultSpec,
    scale: f64,
    point_seed: u64,
    config: &ServeChaosConfig,
) -> Result<ServeChaosPoint, SimError> {
    let spec = base.scaled(scale);
    let journal = temp_journal(point_seed);
    let run = run_point_daemon(system, batches, spec, point_seed, &journal, config);
    let _ = std::fs::remove_file(&journal);
    let run = run?;
    let p99 = percentile(&run.latencies, 0.99);

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
        queries: run.latencies.len() as u64,
        query_p50_us: percentile(&run.latencies, 0.50),
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
    let batches = batches(&system, config.batches_per_point)?;
    let reference_bits = fleet::offline_reference(&system, &batches)
        .map_err(|e| SimError(format!("serve-chaos: {e}")))?;

    let mut points = Vec::with_capacity(config.scales.len());
    let mut totals = FaultReport::default();
    for (pi, &scale) in config.scales.iter().enumerate() {
        let point_seed = derive_seed(seed, pi as u64);
        let point = run_point(
            &system,
            &batches,
            &reference_bits,
            spec,
            scale,
            point_seed,
            config,
        )?;
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
