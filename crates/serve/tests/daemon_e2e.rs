//! End-to-end daemon tests: a live `tomo-serve` under wire faults,
//! adversarial bytes, backpressure, restart-and-reconverge, and the
//! HTTP query front.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use tomo_core::fig1::fig1_system;
use tomo_core::TomographySystem;
use tomo_detect::ConsistencyDetector;
use tomo_fault::{FaultPlan, FaultSpec};
use tomo_linalg::Vector;
use tomo_serve::{
    read_frame, write_frame, ClientConfig, ClientError, Frame, ProbeBatch, ProbeClient, ProbeRow,
    RejectCode, ServeConfig, Server, WIRE_VERSION,
};

fn system() -> Arc<TomographySystem> {
    Arc::new(fig1_system().expect("fig1 builds"))
}

fn start(config: ServeConfig) -> Server {
    Server::start(system(), ConsistencyDetector::recommended(), config).expect("daemon starts")
}

/// Full-coverage batches with per-batch-distinct values, so the final
/// slot table depends on which batch id won each slot.
fn make_batches(sys: &TomographySystem, count: usize, base_offset: usize) -> Vec<Vec<ProbeRow>> {
    let x = Vector::filled(sys.num_links(), 10.0);
    let y = sys.measure(&x).expect("measure");
    (0..count)
        .map(|b| {
            (0..sys.num_paths())
                .map(|i| {
                    ProbeRow::new(
                        u32::try_from(i).expect("path fits"),
                        y[i] + (base_offset + b) as f64 * 1e-9,
                    )
                })
                .collect()
        })
        .collect()
}

fn temp_journal(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "tomo-serve-e2e-{}-{name}.journal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

#[test]
fn live_faults_keep_the_ledger_balanced_and_the_answer_exact() {
    let server = start(ServeConfig::default());
    let sys = system();
    let batches = make_batches(&sys, 40, 0);

    // Reference: the same batches against a fault-free daemon.
    let reference = start(ServeConfig::default());
    let mut ref_client = ProbeClient::new(reference.ingest_addr(), 7);
    ref_client
        .stream(batches.clone(), None)
        .expect("clean stream");
    let want = reference.query().expect("reference answer");

    // Faulted: nearly half the frames are damaged on the wire.
    let spec = FaultSpec::parse("frame=0.4").expect("spec parses");
    let mut trial = FaultPlan::new(spec, 0xC0FFEE).trial(0);
    let mut client = ProbeClient::new(server.ingest_addr(), 7);
    let outcome = client
        .stream(batches, Some(&mut trial))
        .expect("faulted stream still delivers");

    assert_eq!(outcome.acked, 40, "every batch eventually acked");
    let injected = outcome.injected.frame_total();
    assert!(injected > 0, "rate 0.4 over 40 draws injected something");
    assert_eq!(
        injected,
        outcome.handled + outcome.quarantined,
        "ledger balances: {outcome:?}"
    );

    // Server-side cross-check: counters match the client's attribution.
    let stats = server.engine_stats();
    assert_eq!(stats.applied, 40);
    assert_eq!(stats.deduped, outcome.injected.frame_duplicate);
    assert_eq!(stats.reordered, outcome.injected.frame_reorder);
    assert_eq!(stats.quarantined, 0, "wire faults never corrupt a batch");
    let counters = server.counters();
    assert_eq!(
        counters
            .truncated_frames
            .load(std::sync::atomic::Ordering::Relaxed),
        outcome.injected.frame_truncate
    );
    assert_eq!(
        counters
            .garbled_frames
            .load(std::sync::atomic::Ordering::Relaxed),
        outcome.injected.frame_garble
    );

    // The answer is bit-identical to the fault-free run.
    let got = server.query().expect("faulted answer");
    assert_eq!(got.estimate_bits, want.estimate_bits, "byte-identical");
    assert!(!got.verdict.detected);
}

#[test]
fn kill_and_restart_reconverges_byte_identically() {
    let journal = temp_journal("restart");
    let sys = system();
    let first = make_batches(&sys, 12, 0);
    let second = make_batches(&sys, 12, 12);

    // Uninterrupted reference run.
    let reference = start(ServeConfig::default());
    let mut ref_client = ProbeClient::new(reference.ingest_addr(), 3);
    ref_client
        .stream(first.clone(), None)
        .expect("ref 1st half");
    ref_client
        .stream(second.clone(), None)
        .expect("ref 2nd half");
    let want = reference.query().expect("reference answer");

    // Interrupted run: first half, kill, restart on the same journal.
    let config = ServeConfig {
        journal_path: Some(journal.clone()),
        snapshot_every: 5, // force a snapshot + batch suffix in replay
        ..ServeConfig::default()
    };
    let server_a = start(config.clone());
    assert_eq!(server_a.epoch(), 1);
    let mut client = ProbeClient::new(server_a.ingest_addr(), 3);
    client.stream(first, None).expect("1st half");
    drop(server_a); // kill mid-sweep

    let server_b = start(config);
    assert_eq!(server_b.epoch(), 2, "restart bumps the epoch");
    // A client resending an already-acked batch (as it would after a
    // crash swallowed the ack) must get a dedup re-ack, proving the
    // replayed engine remembers the applied-batch set.
    {
        let mut s = TcpStream::connect(server_b.ingest_addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        write_frame(
            &mut s,
            &Frame::Hello {
                version: WIRE_VERSION,
            },
        )
        .expect("hello");
        assert!(matches!(
            read_frame(&mut s),
            Ok(Some(Frame::HelloAck { epoch: 2, .. }))
        ));
        let resend = Frame::Batch(ProbeBatch {
            batch_id: 5,
            epoch: 2,
            rows: vec![ProbeRow::new(0, 0.0)],
        });
        write_frame(&mut s, &resend).expect("resend");
        match read_frame(&mut s) {
            Ok(Some(Frame::Ack { batch_id: 5, .. })) => {}
            other => panic!("expected dedup re-ack, got {other:?}"),
        }
        assert_eq!(server_b.engine_stats().deduped, 1);
    }
    let mut client_b =
        ProbeClient::new(server_b.ingest_addr(), 3).with_start_batch_id(client.next_batch_id());
    client_b.stream(second, None).expect("2nd half");

    let got = server_b.query().expect("restarted answer");
    assert_eq!(
        got.estimate_bits, want.estimate_bits,
        "restart + replay reconverges byte-identically"
    );
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn double_restart_replays_batches_from_every_epoch() {
    let journal = temp_journal("double-restart");
    let sys = system();
    let first = make_batches(&sys, 6, 0);
    let second = make_batches(&sys, 6, 6);
    let third = make_batches(&sys, 6, 12);

    // Uninterrupted reference run.
    let reference = start(ServeConfig::default());
    let mut ref_client = ProbeClient::new(reference.ingest_addr(), 3);
    for part in [first.clone(), second.clone(), third.clone()] {
        ref_client.stream(part, None).expect("ref stream");
    }
    let want = reference.query().expect("reference answer");

    // No snapshots: the third boot must replay the epoch-1 batches that
    // sit *before* the epoch-2 mark in the journal — the regression was
    // bumping the engine to the last recorded epoch before re-applying,
    // which dropped them all as stale.
    let config = ServeConfig {
        journal_path: Some(journal.clone()),
        snapshot_every: 0,
        ..ServeConfig::default()
    };
    let server_a = start(config.clone());
    assert_eq!(server_a.epoch(), 1);
    let mut client = ProbeClient::new(server_a.ingest_addr(), 3);
    client.stream(first, None).expect("epoch-1 batches");
    drop(server_a);

    let server_b = start(config.clone());
    assert_eq!(server_b.epoch(), 2);
    assert_eq!(server_b.engine_stats().applied, 6, "epoch-1 replayed");
    let mut client_b =
        ProbeClient::new(server_b.ingest_addr(), 3).with_start_batch_id(client.next_batch_id());
    client_b.stream(second, None).expect("epoch-2 batches");
    drop(server_b);

    let server_c = start(config);
    assert_eq!(server_c.epoch(), 3);
    assert_eq!(
        server_c.engine_stats().applied,
        12,
        "batches from both earlier epochs replayed, none dropped as stale"
    );
    let mut client_c =
        ProbeClient::new(server_c.ingest_addr(), 3).with_start_batch_id(client_b.next_batch_id());
    client_c.stream(third, None).expect("epoch-3 batches");
    let got = server_c.query().expect("answer after two restarts");
    assert_eq!(
        got.estimate_bits, want.estimate_bits,
        "double restart reconverges byte-identically"
    );
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn connection_churn_does_not_accumulate_thread_handles() {
    let server = start(ServeConfig::default());
    let addr = server.ingest_addr();
    for _ in 0..20 {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        write_frame(
            &mut s,
            &Frame::Hello {
                version: WIRE_VERSION,
            },
        )
        .expect("hello");
        assert!(matches!(
            read_frame(&mut s),
            Ok(Some(Frame::HelloAck { .. }))
        ));
        // Dropping the stream closes it; the handler exits promptly.
    }
    // Let the handlers observe the closes, then accept once more to
    // trigger the opportunistic reap.
    std::thread::sleep(Duration::from_millis(300));
    let _last = TcpStream::connect(addr).expect("connect");
    std::thread::sleep(Duration::from_millis(100));
    let live = server.conn_thread_count();
    assert!(live <= 2, "finished handlers reaped, {live} still held");
}

#[test]
fn adversarial_bytes_quarantine_without_killing_the_daemon() {
    let server = start(ServeConfig::default());
    let addr = server.ingest_addr();

    let handshake = |addr: SocketAddr| -> TcpStream {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        write_frame(
            &mut s,
            &Frame::Hello {
                version: WIRE_VERSION,
            },
        )
        .expect("hello");
        match read_frame(&mut s) {
            Ok(Some(Frame::HelloAck { .. })) => s,
            other => panic!("handshake failed: {other:?}"),
        }
    };

    // 1. Oversized length prefix: rejected before allocation.
    {
        let mut s = handshake(addr);
        s.write_all(&(u32::MAX).to_be_bytes()).unwrap();
        s.write_all(&[3u8; 16]).unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(s.read(&mut buf).unwrap_or(0), 0, "server dropped us");
    }
    // 2. Garbage after a valid handshake.
    {
        let mut s = handshake(addr);
        s.write_all(&[0, 0, 0, 5, 0xEE, 1, 2, 3, 4]).unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(s.read(&mut buf).unwrap_or(0), 0, "server dropped us");
    }
    // 3. A batch with a stale epoch: typed Reject, connection survives.
    {
        let mut s = handshake(addr);
        let stale = Frame::Batch(ProbeBatch {
            batch_id: 99,
            epoch: 0, // server is at epoch 1
            rows: vec![ProbeRow::new(0, 1.0)],
        });
        write_frame(&mut s, &stale).expect("send stale");
        match read_frame(&mut s) {
            Ok(Some(Frame::Reject { code, .. })) => assert_eq!(code, RejectCode::StaleEpoch),
            other => panic!("expected stale reject, got {other:?}"),
        }
    }
    // 4. A wrong-version handshake is refused.
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        write_frame(&mut s, &Frame::Hello { version: 9999 }).expect("bad hello");
        let mut buf = [0u8; 16];
        assert_eq!(s.read(&mut buf).unwrap_or(0), 0, "server dropped us");
    }

    let counters = server.counters();
    assert!(counters.quarantined_frames() >= 2, "damage was counted");
    assert_eq!(
        counters
            .handshake_rejects
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );

    // The daemon still serves a clean client perfectly afterwards.
    let sys = system();
    let mut client = ProbeClient::new(addr, 1);
    let outcome = client
        .stream(make_batches(&sys, 4, 0), None)
        .expect("daemon survived the abuse");
    assert_eq!(outcome.acked, 4);
    assert!(server.query().is_ok());
}

#[test]
fn nan_batches_are_rejected_and_reported() {
    let server = start(ServeConfig::default());
    let mut client = ProbeClient::new(server.ingest_addr(), 5);
    // First a clean batch so the daemon has *some* state.
    let sys = system();
    client
        .stream(make_batches(&sys, 1, 0), None)
        .expect("clean batch");
    // Then a poisoned one.
    let poisoned = vec![ProbeRow::new(0, f64::NAN), ProbeRow::new(1, 2.0)];
    client.send_batch(poisoned).expect("send resolves");
    assert_eq!(client.outcome().server_quarantined, 1);
    let stats = server.engine_stats();
    assert_eq!(stats.quarantined, 1);
    assert_eq!(stats.applied, 1, "the clean batch alone was applied");
    // The poisoned batch left no trace on the answer.
    let a = server.query().expect("answer");
    assert_eq!(a.coverage, sys.num_paths());
}

/// A scripted fake server: handshakes, then answers each incoming batch
/// with a canned reply sequence — deterministic backpressure and
/// stale-epoch behavior without timing games.
fn fake_server(replies: Vec<Frame>) -> (SocketAddr, std::thread::JoinHandle<u64>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake server");
    let addr = listener.local_addr().expect("addr");
    let handle = std::thread::spawn(move || {
        let mut replies = replies.into_iter();
        let mut batches_seen = 0u64;
        'accept: loop {
            let Ok((mut s, _)) = listener.accept() else {
                break;
            };
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            match read_frame(&mut s) {
                Ok(Some(Frame::Hello { .. })) => {}
                _ => continue,
            }
            write_frame(
                &mut s,
                &Frame::HelloAck {
                    epoch: 1,
                    num_paths: 4,
                },
            )
            .expect("hello ack");
            loop {
                match read_frame(&mut s) {
                    Ok(Some(Frame::Batch(_))) => {
                        batches_seen += 1;
                        match replies.next() {
                            Some(reply) => {
                                if write_frame(&mut s, &reply).is_err() {
                                    continue 'accept;
                                }
                                if matches!(reply, Frame::Ack { .. }) {
                                    return batches_seen;
                                }
                            }
                            None => return batches_seen,
                        }
                    }
                    _ => continue 'accept,
                }
            }
        }
        batches_seen
    });
    (addr, handle)
}

#[test]
fn client_honors_queue_full_backpressure_then_delivers() {
    // Two QueueFull rejections, then an Ack: the client must retry
    // after the hint, not give up, not duplicate-count the ack.
    let reject = |id| Frame::Reject {
        batch_id: id,
        code: RejectCode::QueueFull,
        retry_after_ms: 5,
    };
    let (addr, handle) = fake_server(vec![
        reject(0),
        reject(0),
        Frame::Ack {
            batch_id: 0,
            epoch: 1,
        },
    ]);
    let mut client = ProbeClient::new(addr, 11);
    let id = client
        .send_batch(vec![ProbeRow::new(0, 1.0)])
        .expect("delivered after backpressure");
    assert_eq!(id, 0);
    let outcome = client.outcome();
    assert_eq!(outcome.queue_full_rejects, 2);
    assert_eq!(outcome.acked, 1);
    let seen = handle.join().expect("fake server");
    assert_eq!(seen, 3, "client sent exactly one retry per rejection");
}

#[test]
fn client_rehandshakes_on_stale_epoch() {
    let (addr, handle) = fake_server(vec![
        Frame::Reject {
            batch_id: 0,
            code: RejectCode::StaleEpoch,
            retry_after_ms: 0,
        },
        Frame::Ack {
            batch_id: 0,
            epoch: 1,
        },
    ]);
    let mut client = ProbeClient::new(addr, 13);
    client
        .send_batch(vec![ProbeRow::new(0, 1.0)])
        .expect("delivered after re-handshake");
    let outcome = client.outcome();
    assert_eq!(outcome.stale_epoch_rejects, 1);
    assert!(outcome.reconnects >= 2, "stale epoch forced a re-handshake");
    handle.join().expect("fake server");
}

fn http_get(addr: SocketAddr, target: &str) -> (String, String) {
    http_request(addr, "GET", target)
}

fn http_request(addr: SocketAddr, method: &str, target: &str) -> (String, String) {
    let mut s = TcpStream::connect(addr).expect("connect http");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write!(
        s,
        "{method} {target} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    s.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("header split");
    let status = head.lines().next().expect("status line").to_string();
    (status, body.to_string())
}

#[test]
fn http_front_serves_health_state_verdict_stats_and_shutdown() {
    let server = start(ServeConfig::default());
    let addr = server.http_addr();

    let (status, body) = http_get(addr, "/healthz");
    assert!(status.contains("200"), "{status}");
    assert_eq!(body, "ok\n");

    // Not ready before full coverage.
    let (status, _) = http_get(addr, "/readyz");
    assert!(status.contains("503"), "{status}");
    let (status, _) = http_get(addr, "/state");
    assert!(status.contains("503"), "no measurements yet: {status}");

    // Ingest full coverage, then everything turns 200.
    let sys = system();
    let mut client = ProbeClient::new(server.ingest_addr(), 2);
    client
        .stream(make_batches(&sys, 2, 0), None)
        .expect("ingest");
    let (status, _) = http_get(addr, "/readyz");
    assert!(status.contains("200"), "{status}");

    let (status, body) = http_get(addr, "/state");
    assert!(status.contains("200"), "{status}");
    let state = serde_json::parse_value(&body).expect("state is JSON");
    assert_eq!(
        state.get("coverage").and_then(serde::Value::as_u64),
        Some(sys.num_paths() as u64)
    );
    assert!(matches!(
        state.get("degraded"),
        Some(serde::Value::Bool(false))
    ));
    let (bits, floats) = match (state.get("estimate_bits"), state.get("estimate")) {
        (Some(serde::Value::Array(b)), Some(serde::Value::Array(f))) => (b, f),
        other => panic!("estimate arrays missing: {other:?}"),
    };
    assert_eq!(bits.len(), sys.num_links());
    // Hex bits must agree with the float rendering.
    let first_bits =
        u64::from_str_radix(bits[0].as_str().expect("hex string"), 16).expect("parses");
    let first_float = floats[0].as_f64().expect("float");
    assert!((f64::from_bits(first_bits) - first_float).abs() < 1e-9);

    let (status, body) = http_get(addr, "/verdict");
    assert!(status.contains("200"), "{status}");
    let verdict = serde_json::parse_value(&body).expect("verdict is JSON");
    assert!(matches!(
        verdict.get("detected"),
        Some(serde::Value::Bool(false))
    ));

    let (status, body) = http_get(addr, "/stats");
    assert!(status.contains("200"), "{status}");
    let stats = serde_json::parse_value(&body).expect("stats is JSON");
    assert_eq!(stats.get("applied").and_then(serde::Value::as_u64), Some(2));
    assert!(
        stats
            .get("slo_ms")
            .and_then(serde::Value::as_f64)
            .expect("slo")
            > 0.0
    );

    let (status, _) = http_get(addr, "/nope");
    assert!(status.contains("404"), "{status}");

    // POST /shutdown unblocks the waiter.
    let waiter = std::thread::spawn({
        let server = Arc::new(server);
        let server2 = Arc::clone(&server);
        move || {
            let requested = server2.wait_for_shutdown_request(Duration::from_secs(10));
            (server2, requested)
        }
    });
    std::thread::sleep(Duration::from_millis(50));
    let (status, _) = http_request(addr, "POST", "/shutdown");
    assert!(status.contains("200"), "{status}");
    let (_server, requested) = waiter.join().expect("waiter joins");
    assert!(requested, "shutdown request observed");
}

/// Queries read a published snapshot, never the engine: a client
/// hammering the apply worker with hundreds of batches must not push
/// the typical in-process query above a millisecond (debug build,
/// single core — a query path that waited on the apply worker fails
/// this by orders of magnitude).
#[test]
fn queries_stay_fast_while_ingest_is_saturated() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let server = Arc::new(start(ServeConfig {
        queue_capacity: 512,
        ..ServeConfig::default()
    }));
    let addr = server.ingest_addr();
    let stop = Arc::new(AtomicBool::new(false));

    let ingest = std::thread::spawn({
        let stop = Arc::clone(&stop);
        move || {
            let sys = system();
            let mut client = ProbeClient::new(addr, 9);
            let mut delivered = 0usize;
            while !stop.load(Ordering::Acquire) {
                client
                    .stream(make_batches(&sys, 50, delivered), None)
                    .expect("saturating stream delivers");
                delivered += 50;
            }
            delivered
        }
    });

    // Give the hammering a head start, then sample query latencies.
    std::thread::sleep(Duration::from_millis(100));
    let mut latencies: Vec<Duration> = (0..300)
        .map(|_| {
            let t = std::time::Instant::now();
            let _ = server.query();
            t.elapsed()
        })
        .collect();
    stop.store(true, Ordering::Release);
    let delivered = ingest.join().expect("ingest thread");
    assert!(delivered >= 50, "apply path was actually busy");

    latencies.sort();
    let p50 = latencies[latencies.len() / 2];
    assert!(
        p50 < Duration::from_millis(1),
        "snapshot query p50 {p50:?} under saturated ingest"
    );
    // And the answers were real, not errors-returned-quickly.
    let answer = server.query().expect("covered answer");
    assert_eq!(answer.coverage, system().num_paths());
}

/// Read-your-writes under coalesced publishing: the moment an ack is
/// readable on the wire, the published snapshot already covers that
/// batch — even when the queue never drains mid-window and
/// `publish_coalesce` is too large to force intermediate publishes.
#[test]
fn acks_imply_snapshot_visibility_under_coalesced_load() {
    let server = start(ServeConfig {
        publish_coalesce: 1_000_000,
        queue_capacity: 256,
        ..ServeConfig::default()
    });
    let sys = system();
    let batches = make_batches(&sys, 48, 0);

    let mut stream = TcpStream::connect(server.ingest_addr()).expect("connect");
    write_frame(
        &mut stream,
        &Frame::Hello {
            version: WIRE_VERSION,
        },
    )
    .expect("hello");
    let hello_ack = read_frame(&mut stream).expect("read").expect("frame");
    assert!(matches!(hello_ack, Frame::HelloAck { .. }));

    // Pipeline the whole window before reading a single reply, so the
    // apply worker sees a deep queue and would coalesce acks ahead of
    // any publish if it could.
    for (i, rows) in batches.iter().enumerate() {
        let frame = Frame::Batch(ProbeBatch {
            batch_id: i as u64 + 1,
            epoch: 1,
            rows: rows.clone(),
        });
        write_frame(&mut stream, &frame).expect("send batch");
    }

    // Batches flow through one connection and one FIFO, so acks come
    // back in apply order: on reading the k-th ack, the published
    // snapshot must already show at least k applied batches.
    let mut acked = 0u64;
    while acked < 48 {
        match read_frame(&mut stream).expect("read").expect("reply") {
            Frame::Ack { .. } => {
                acked += 1;
                let snap = server.snapshot();
                assert!(
                    snap.stats().applied >= acked,
                    "ack {acked} outran the published snapshot (applied {})",
                    snap.stats().applied
                );
            }
            other => panic!("unexpected reply: {other:?}"),
        }
    }
    assert_eq!(server.engine_stats().applied, 48);
}

/// `Server::start` with a Rocketfuel-parsed system: the daemon answers
/// queries over the real topology, not just the fig. 1 toy.
#[test]
fn topology_daemon_serves_a_rocketfuel_system() {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/as65530.cch");
    let system = Arc::new(tomo_serve::load_system(&path, 4, 42).expect("topology loads"));
    let server = Server::start(
        Arc::clone(&system),
        ConsistencyDetector::recommended(),
        ServeConfig::default(),
    )
    .expect("daemon starts");

    let x = Vector::filled(system.num_links(), 2.0);
    let y = system.measure(&x).expect("measure");
    let rows: Vec<ProbeRow> = (0..system.num_paths())
        .map(|i| ProbeRow::new(u32::try_from(i).expect("fits"), y[i]))
        .collect();
    let mut client = ProbeClient::new(server.ingest_addr(), 3);
    client.send_batch(rows).expect("delivers");

    let answer = server.query().expect("answers");
    assert_eq!(answer.num_paths, system.num_paths());
    assert_eq!(answer.coverage, system.num_paths());
    assert!(!answer.degraded, "full coverage solves exactly");
    assert_eq!(answer.estimate_bits.len(), system.num_links());
    for &bits in &answer.estimate_bits {
        assert!(
            (f64::from_bits(bits) - 2.0).abs() < 1e-6,
            "uniform link state recovered"
        );
    }
    assert!(!answer.verdict.detected);
}

/// `/stats` exposes the ingest queue's counters and the snapshot
/// version, and the in-process accessor agrees with the HTTP view.
#[test]
fn stats_reports_queue_and_snapshot_version() {
    let server = start(ServeConfig::default());
    let sys = system();
    let mut client = ProbeClient::new(server.ingest_addr(), 2);
    client
        .stream(make_batches(&sys, 3, 0), None)
        .expect("ingest");

    let (status, body) = http_get(server.http_addr(), "/stats");
    assert!(status.contains("200"), "{status}");
    let stats = serde_json::parse_value(&body).expect("stats is JSON");
    let field = |key: &str| {
        stats
            .get(key)
            .and_then(serde::Value::as_u64)
            .unwrap_or_else(|| panic!("{key} missing from {body}"))
    };
    assert_eq!(field("queue_pushed"), 3, "every batch was queued once");
    assert_eq!(field("queue_rejects"), 0);
    assert_eq!(field("queue_depth"), 0, "the last ack waited for a drain");
    assert!(
        field("snapshot_version") >= 1,
        "ingest published at least one snapshot"
    );

    let in_process = server.queue_stats();
    assert_eq!(in_process.pushed, 3);
    assert_eq!(in_process.rejects, 0);
}

/// One client streaming in id order is applied in id order: the ingest
/// queue is one FIFO, so a pipelined window never reorders. Batch `k`
/// carries the paths `p % 8 == k % 8`, so consecutive batches start at
/// different path ids.
#[test]
fn single_client_stream_applies_in_order() {
    let server = start(ServeConfig::default());
    let sys = system();
    let x = Vector::filled(sys.num_links(), 10.0);
    let y = sys.measure(&x).expect("measure");
    let batches: Vec<Vec<ProbeRow>> = (0..256usize)
        .map(|k| {
            (0..sys.num_paths())
                .filter(|p| p % 8 == k % 8)
                .map(|p| ProbeRow::new(u32::try_from(p).expect("fits"), y[p] + k as f64 * 1e-9))
                .collect()
        })
        .collect();
    let mut client = ProbeClient::new(server.ingest_addr(), 4);
    let outcome = client
        .stream_windowed(batches, 32)
        .expect("stream delivers");
    assert_eq!(outcome.acked, 256);
    assert_eq!(outcome.queue_full_rejects, 0, "a window fits the queue");
    let stats = server.engine_stats();
    assert_eq!(stats.applied, 256);
    assert_eq!(
        stats.reordered, 0,
        "an in-order client was applied out of order"
    );
}

/// A batch that arrives after `shutdown()` began, but before its
/// connection handler next checks the stop flag, is still applied and
/// answered, and `shutdown()` returns: the apply worker outlives every
/// handler. The schedule puts the batch between the apply worker's
/// first idle poll after the stop flag and the handler's; should a
/// loaded machine push the batch past the handler's poll instead, the
/// handler closes the connection unread and nothing is applied.
#[test]
fn shutdown_does_not_strand_a_late_batch() {
    let mut server = start(ServeConfig {
        poll_interval: Duration::from_millis(500),
        ..ServeConfig::default()
    });
    let sys = system();
    let t0 = Instant::now();
    let at = |ms: u64| {
        let due = t0 + Duration::from_millis(ms);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
    };

    at(250);
    let mut stream = TcpStream::connect(server.ingest_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write_frame(
        &mut stream,
        &Frame::Hello {
            version: WIRE_VERSION,
        },
    )
    .expect("hello");
    let hello_ack = read_frame(&mut stream).expect("read").expect("frame");
    assert!(matches!(hello_ack, Frame::HelloAck { .. }));

    at(300);
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        let _ = done_tx.send(server);
    });

    at(625);
    let rows = make_batches(&sys, 1, 0).remove(0);
    write_frame(
        &mut stream,
        &Frame::Batch(ProbeBatch {
            batch_id: 0,
            epoch: 1,
            rows,
        }),
    )
    .expect("late batch");

    let server = done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("shutdown() returns within 10 s");
    let applied = server.engine_stats().applied;
    match read_frame(&mut stream) {
        Ok(Some(Frame::Ack { batch_id: 0, .. })) => {
            assert_eq!(applied, 1, "an acked batch is applied");
        }
        Ok(None) | Err(_) => assert_eq!(applied, 0, "an unread batch is not applied"),
        Ok(Some(other)) => panic!("unexpected reply: {other:?}"),
    }
}

/// A zero-capacity queue is a configuration error, not a panic, both in
/// the library and in the `tomo-serve` binary.
#[test]
fn zero_queue_capacity_is_an_invalid_input() {
    let err = Server::start(
        system(),
        ConsistencyDetector::recommended(),
        ServeConfig {
            queue_capacity: 0,
            ..ServeConfig::default()
        },
    )
    .err()
    .expect("zero capacity is refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_tomo-serve"))
        .args(["--ingest-port", "0", "--http-port", "0"])
        .args(["--queue-capacity", "0", "--max-secs", "1"])
        .output()
        .expect("tomo-serve runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("queue capacity must be positive"),
        "{stderr}"
    );
}

/// An injected reorder widens the resend window to two unacked batches;
/// with `max_unacked: 1` that is a typed overflow error *before* any
/// wire activity, and the default cap delivers the same stream fine.
#[test]
fn resend_overflow_is_a_typed_error() {
    let spec = FaultSpec::parse("frame=1.0").expect("spec parses");
    let seed = (0..10_000u64)
        .find(|&s| {
            matches!(
                FaultPlan::new(spec, s).trial(0).frame_fault(true),
                Some(tomo_fault::FrameFaultKind::Reorder)
            )
        })
        .expect("some seed draws Reorder first");
    let server = start(ServeConfig::default());
    let sys = system();

    let mut client = ProbeClient::new(server.ingest_addr(), 1).with_config(ClientConfig {
        max_unacked: 1,
        ..ClientConfig::default()
    });
    let mut trial = FaultPlan::new(spec, seed).trial(0);
    let err = client
        .stream(make_batches(&sys, 2, 0), Some(&mut trial))
        .expect_err("two unacked batches exceed a cap of one");
    assert_eq!(
        err,
        ClientError::ResendOverflow {
            unacked: 2,
            capacity: 1
        }
    );

    // The default cap absorbs the same reorder without complaint.
    let mut client = ProbeClient::new(server.ingest_addr(), 1);
    let mut trial = FaultPlan::new(spec, seed).trial(0);
    let outcome = client
        .stream(make_batches(&sys, 2, 0), Some(&mut trial))
        .expect("default cap delivers");
    assert_eq!(outcome.acked, 2);
    assert_eq!(outcome.injected.frame_reorder, 1);
}

#[test]
fn windowed_stream_matches_lockstep_and_respects_the_resend_cap() {
    let sys = system();
    let batches = make_batches(&sys, 20, 0);

    let lockstep_server = start(ServeConfig::default());
    let mut lockstep = ProbeClient::new(lockstep_server.ingest_addr(), 7);
    lockstep
        .stream(batches.clone(), None)
        .expect("lockstep stream");
    let lockstep_bits = lockstep_server.query().expect("query").estimate_bits;

    // Pipelined windows (including a ragged final window) deliver the
    // same batch set and therefore the same final state, bit for bit.
    let windowed_server = start(ServeConfig::default());
    let mut windowed = ProbeClient::new(windowed_server.ingest_addr(), 7);
    let outcome = windowed
        .stream_windowed(batches.clone(), 8)
        .expect("windowed stream");
    assert_eq!(outcome.acked, 20);
    assert_eq!(
        windowed_server.query().expect("query").estimate_bits,
        lockstep_bits
    );

    // A window wider than the resend buffer is refused before any wire
    // traffic, as a typed overflow.
    let mut capped = ProbeClient::new(windowed_server.ingest_addr(), 7).with_config(ClientConfig {
        max_unacked: 4,
        ..ClientConfig::default()
    });
    match capped.stream_windowed(batches, 8) {
        Err(ClientError::ResendOverflow { unacked, capacity }) => {
            assert_eq!(unacked, 8);
            assert_eq!(capacity, 4);
        }
        other => panic!("expected ResendOverflow, got {other:?}"),
    }
}
