//! The client fleet both daemon sweeps run, and the offline reference
//! they must land on.
//!
//! [`run`] streams a range of batch ids into one daemon through `C`
//! concurrent [`ProbeClient`]s: client `c` sends the ids `≡ c (mod C)`
//! from its own start id with stride `C`, so the fleet partitions
//! exactly the ids one client would have sent, and batch content is a
//! function of the id alone. One query hammer reads the daemon for the
//! whole fleet and fails the run on a snapshot that does not
//! [`self_check`](tomo_serve::EngineSnapshot::self_check) or whose
//! version goes backwards.
//!
//! The engine's final state is a pure function of the applied-batch set
//! (DESIGN §5i), so every fleet, however it interleaves, faults or
//! restarts, must reach the estimate of [`offline_reference`]: an
//! [`Engine`] fed the same batches in id order, with no daemon at all.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tomo_core::TomographySystem;
use tomo_detect::ConsistencyDetector;
use tomo_serve::{
    ApplyOutcome, ClientError, Engine, ProbeBatch, ProbeClient, ProbeRow, Server, StreamOutcome,
};

/// What one fleet run observed.
pub(crate) struct FleetRun {
    /// Every client's outcome, merged.
    pub outcome: StreamOutcome,
    /// The hammer's query latencies, µs, ascending.
    pub latencies_us: Vec<f64>,
    /// Seconds from the fleet's start to its last client's finish.
    pub elapsed_s: f64,
}

/// Streams the ids `ids` of `batches` into `server` through `clients`
/// concurrent probe clients while one hammer queries it. Client `c`
/// draws its backoff jitter from `jitter_seed(c)` and delivers its share
/// through `deliver(c, client, share)`; a client with no id in `ids`
/// sends nothing.
///
/// # Errors
///
/// The first failed client, a panicked thread, or a torn or regressing
/// snapshot, as a message.
pub(crate) fn run<J, D>(
    server: &Server,
    batches: &[Vec<ProbeRow>],
    ids: Range<usize>,
    clients: usize,
    jitter_seed: J,
    deliver: D,
) -> Result<FleetRun, String>
where
    J: Fn(usize) -> u64 + Sync,
    D: Fn(usize, &mut ProbeClient, Vec<Vec<ProbeRow>>) -> Result<StreamOutcome, ClientError> + Sync,
{
    let addr = server.ingest_addr();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // The fleet starts only once the hammer is querying: on a loaded
        // machine the scheduler may otherwise run the whole ingest before
        // the hammer's first query.
        let (started, hammer_started) = mpsc::channel();
        let hammer = scope.spawn(|| query_hammer(server, &stop, started));
        let _ = hammer_started.recv();
        let start = Instant::now();
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (ids, jitter_seed, deliver) = (ids.clone(), &jitter_seed, &deliver);
                scope.spawn(move || -> Result<StreamOutcome, String> {
                    let Some(first) = ids.clone().find(|b| b % clients == c) else {
                        return Ok(StreamOutcome::default());
                    };
                    let share = (first..ids.end)
                        .step_by(clients)
                        .map(|b| batches[b].clone())
                        .collect();
                    let mut client = ProbeClient::new(addr, jitter_seed(c))
                        .with_start_batch_id(first as u64)
                        .with_batch_id_stride(clients as u64);
                    deliver(c, &mut client, share).map_err(|e| format!("client {c}: {e}"))
                })
            })
            .collect();
        let mut outcome = StreamOutcome::default();
        let mut failure = None;
        for h in handles {
            match h.join() {
                Ok(Ok(share)) => outcome.merge(&share),
                Ok(Err(e)) => failure = failure.or(Some(e)),
                Err(_) => failure = failure.or(Some("client thread panicked".to_string())),
            }
        }
        let elapsed_s = start.elapsed().as_secs_f64();
        // Stopped on every path, so a failed client cannot leave the
        // scope waiting on the hammer.
        stop.store(true, Ordering::Release);
        let hammered = hammer
            .join()
            .unwrap_or_else(|_| Err("query hammer panicked".to_string()));
        if let Some(e) = failure {
            return Err(e);
        }
        let mut latencies_us = hammered?;
        latencies_us.sort_by(f64::total_cmp);
        Ok(FleetRun {
            outcome,
            latencies_us,
            elapsed_s,
        })
    })
}

/// The nearest-rank `p`-quantile of ascending `sorted` (0 when empty).
pub(crate) fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Queries `server` until `stop`: every loaded snapshot must self-check
/// and versions must never go backwards. Signals `started` once its
/// first query has run (dropping it on an early error). Returns the
/// query latencies, µs.
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

/// The estimate bits every fleet must reach: an offline [`Engine`] fed
/// `batches` in id order (batch `b` carries id `b`).
///
/// # Errors
///
/// A batch the engine refuses, or a failed solve, as a message.
pub(crate) fn offline_reference(
    system: &Arc<TomographySystem>,
    batches: &[Vec<ProbeRow>],
) -> Result<Vec<u64>, String> {
    let mut engine = Engine::new(Arc::clone(system), ConsistencyDetector::recommended());
    engine.bump_epoch(1);
    for (id, rows) in batches.iter().enumerate() {
        let batch = ProbeBatch {
            batch_id: id as u64,
            epoch: 1,
            rows: rows.clone(),
        };
        match engine.apply(&batch) {
            ApplyOutcome::Applied { .. } => {}
            refused => return Err(format!("offline reference refused batch {id}: {refused:?}")),
        }
    }
    engine
        .query()
        .map(|answer| answer.estimate_bits)
        .map_err(|e| format!("offline reference: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve_chaos::{self, ServeChaosConfig};
    use crate::serve_load::{self, ServeLoadConfig, SEND_WINDOW};
    use tomo_core::fig1;
    use tomo_serve::ServeConfig;

    /// The offline reference is what a daemon reaches: each sweep's
    /// fault-free batches, streamed through one client into a fresh
    /// daemon (serve-load windowed, serve-chaos lockstep), end on the
    /// same bits.
    #[test]
    fn offline_reference_matches_a_single_client_daemon() {
        let system = Arc::new(fig1::fig1_system().unwrap());
        let load = serve_load::batches(&system, &ServeLoadConfig::default()).unwrap();
        let chaos =
            serve_chaos::batches(&system, ServeChaosConfig::default().batches_per_point).unwrap();
        for (name, batches, window) in [
            ("serve-load", load, Some(SEND_WINDOW)),
            ("serve-chaos", chaos, None),
        ] {
            let server = Server::start(
                Arc::clone(&system),
                ConsistencyDetector::recommended(),
                ServeConfig::default(),
            )
            .unwrap();
            let mut client = ProbeClient::new(server.ingest_addr(), 1);
            let outcome = match window {
                Some(window) => client.stream_windowed(batches.clone(), window),
                None => client.stream(batches.clone(), None),
            }
            .unwrap();
            assert_eq!(outcome.acked, batches.len() as u64, "{name}");
            assert_eq!(
                server.query().unwrap().estimate_bits,
                offline_reference(&system, &batches).unwrap(),
                "{name}: the daemon and the offline engine disagree"
            );
        }
    }

    #[test]
    fn offline_reference_refuses_an_out_of_range_row() {
        let system = Arc::new(fig1::fig1_system().unwrap());
        let err = offline_reference(&system, &[vec![ProbeRow::new(9999, 1.0)]]).unwrap_err();
        assert!(err.contains("batch 0"), "{err}");
    }
}
