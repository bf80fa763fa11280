//! The two `tomo-serve` workloads, both against an in-process daemon on
//! the Rocketfuel fixture (`tests/fixtures/as65530.cch`, 320 links) plus
//! 1000 seeded multi-hop paths, with the journal on (no fsync) and four
//! ingest shards:
//!
//! * `serve-ingest` — one closed-loop [`ProbeClient`] streams a fixed
//!   number of grouped full-coverage batches through `stream_windowed`,
//!   one window per call, while an open-loop reader sends `GET /state` at
//!   a fixed rate.
//! * `serve-degraded` — one of the eight path groups is never sent, so
//!   every query solves a partial-coverage snapshot. A fixed number of
//!   rounds each sends one batch and then queries, so every query solves
//!   a fresh snapshot.
//!
//! Both runs are fixed work sized to the budget, so `run_s` is the time
//! the daemon takes to reach the final state.
//!
//! Both check the daemon's final estimate bit for bit against an offline
//! [`Engine`] fed the same batches, that every batch was acked exactly
//! once, and that snapshot versions never went backwards.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use tomo_core::{params, TomographySystem};
use tomo_detect::ConsistencyDetector;
use tomo_linalg::Vector;
use tomo_par::derive_seed;
use tomo_serve::{load_system, Engine, ProbeBatch, ProbeClient, ProbeRow, ServeConfig, Server};

use crate::report::{layer, median, ms_since, quantile, tail, Outcome};
use crate::Run;

/// The Rocketfuel map the daemon serves, relative to the repository root.
const TOPOLOGY: &str = "tests/fixtures/as65530.cch";
/// Seeded multi-hop paths added to the one-hop path per link.
const EXTRA_PATHS: usize = 1000;
/// Seed of the extra paths: the served system is the same for every
/// workload seed, which varies the link delays behind the readings.
const PATHS_SEED: u64 = 42;
/// Path groups: batch `k` of group `g` carries the paths `p % GROUPS == g`.
const GROUPS: usize = 8;
/// The path group `serve-degraded` never sends. Fixed, like the system:
/// which group is missing sets the cost of every degraded solve.
const DEAD_GROUP: usize = 0;
/// Ingest queue shards on the daemon.
const SHARDS: usize = 4;
/// Batches pipelined per `stream_windowed` call.
const WINDOW: usize = 32;
/// Daemon starts per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// `serve-ingest` batches per second of the run's budget: the ingest
/// takes about half the budget on 2 cores.
const INGEST_BATCHES_PER_SECOND: f64 = 20_000.0;
/// `serve-ingest` reader rate, queries per second.
const INGEST_QUERY_HZ: f64 = 200.0;
/// `serve-degraded` rounds per second of the run's budget; a round's
/// degraded solve takes about 0.7 s on 2 cores.
const DEGRADED_ROUNDS_PER_SECOND: f64 = 1.0;

/// The daemon under test and what the batches are generated from.
struct Daemon {
    server: Server,
    system: Arc<TomographySystem>,
    /// The consistent measurement vector batches are drawn from.
    y: Vector,
    journal: PathBuf,
}

/// Loads the topology, warms the estimator and starts the daemon —
/// `SETUPS` times, keeping the last daemon and returning the median
/// start-up time (seconds).
fn start_daemon(run: &Run) -> Result<(Daemon, f64), String> {
    let extra = if run.tiny { 40 } else { EXTRA_PATHS };
    std::fs::create_dir_all(&run.out).map_err(|e| format!("create {}: {e}", run.out.display()))?;
    let journal = run
        .out
        .join(format!("{}-seed{}.journal", run.workload, run.seed));
    let mut times = Vec::with_capacity(SETUPS);
    let mut daemon = None;
    for _ in 0..SETUPS {
        // A fresh journal each time: replay would otherwise carry state
        // from the previous start.
        drop(daemon.take());
        remove_journal(&journal);
        let start = Instant::now();
        let system = layer("serve.load_system", || {
            load_system(Path::new(TOPOLOGY), extra, PATHS_SEED)
        })
        .map_err(|e| format!("load {TOPOLOGY}: {e}"))?;
        layer("core.estimator_cache", || system.warm_estimator_cache())
            .map_err(|e| format!("estimator cache: {e}"))?;
        let system = Arc::new(system);
        let config = ServeConfig {
            ingest_shards: SHARDS,
            // Room for a full window on every shard: backpressure then
            // measures the apply path, not an undersized queue.
            queue_capacity: 4096,
            journal_path: Some(journal.clone()),
            journal_sync: false,
            ..ServeConfig::default()
        };
        let server = layer("serve.start", || {
            Server::start(
                Arc::clone(&system),
                ConsistencyDetector::recommended(),
                config,
            )
        })
        .map_err(|e| format!("daemon start: {e}"))?;
        times.push(start.elapsed().as_secs_f64());
        daemon = Some((server, system));
    }
    let (server, system) = daemon.expect("SETUPS > 0");
    let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(run.seed, 2));
    let x = params::default_delay_model().sample(system.num_links(), &mut rng);
    let y = system.measure(&x).map_err(|e| e.to_string())?;
    Ok((
        Daemon {
            server,
            system,
            y,
            journal,
        },
        median(&times),
    ))
}

fn remove_journal(path: &Path) {
    // Absent is fine; anything else shows up when the daemon opens it.
    let _ = std::fs::remove_file(path);
}

/// The rows of batch `k`: every path of `group`, each reading
/// `y[p] + k·1e-9` so later batches overwrite earlier ones visibly.
fn batch_rows(y: &Vector, group: usize, k: u64) -> Vec<ProbeRow> {
    (group..y.len())
        .step_by(GROUPS)
        .map(|p| {
            let path = u32::try_from(p).expect("path index fits the wire format");
            ProbeRow::new(path, y[p] + k as f64 * 1e-9)
        })
        .collect()
}

/// Streams batches `first..first + count` of the group cycle as one
/// window and returns the window's round trip, ms, once all are acked.
fn send_window(
    client: &mut ProbeClient,
    daemon: &Daemon,
    groups: &[usize],
    first: u64,
    count: usize,
) -> Result<f64, String> {
    let batches: Vec<Vec<ProbeRow>> = (first..first + count as u64)
        .map(|k| batch_rows(&daemon.y, groups[(k % groups.len() as u64) as usize], k))
        .collect();
    let start = Instant::now();
    layer("serve.client.window", || {
        client.stream_windowed(batches, count)
    })
    .map(|_| ms_since(start))
    .map_err(|e| e.to_string())
}

/// The groups a workload sends, in the order batches cycle through them:
/// all of them, or all but [`DEAD_GROUP`].
fn live_groups(degraded: bool) -> Vec<usize> {
    (0..GROUPS)
        .filter(|&g| !(degraded && g == DEAD_GROUP))
        .collect()
}

/// One `GET` against the daemon's HTTP front; `Ok` only on `200`.
fn http_get(addr: SocketAddr, target: &str) -> Result<(), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("send: {e}"))?;
    let mut response = Vec::new();
    stream
        .read_to_end(&mut response)
        .map_err(|e| format!("receive: {e}"))?;
    let status = response.split(|&b| b == b'\r').next().unwrap_or_default();
    if status.starts_with(b"HTTP/1.1 200") {
        Ok(())
    } else {
        Err(String::from_utf8_lossy(status).into_owned())
    }
}

/// What the reader observed.
#[derive(Debug, Default)]
struct ReaderLog {
    /// Latency from each query's due time to its response, ms.
    query_ms: Vec<f64>,
    /// How late each query was sent, ms.
    late_ms: Vec<f64>,
    /// In-process snapshot solve time (traced runs), ms.
    answer_ms: Vec<f64>,
    /// HTTP `/state` round trip (traced runs), ms.
    state_ms: Vec<f64>,
    /// Queries that saw a snapshot version not seen before.
    fresh: u64,
    failed: u64,
    version_regressions: u64,
    last_version: Option<u64>,
}

impl ReaderLog {
    /// Sends one `GET /state` that was due at `due`, and records it.
    fn query(&mut self, server: &Server, due: Instant) {
        self.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
        let snap = server.snapshot();
        let version = snap.version();
        if self.last_version.is_some_and(|last| version < last) {
            self.version_regressions += 1;
        }
        if self.last_version != Some(version) {
            self.fresh += 1;
        }
        self.last_version = Some(version);
        let result = if tomo_obs::tracing_enabled() {
            // Solve in-process first, so the HTTP round trip below is
            // the front and the rendering alone (the answer is cached).
            let t = Instant::now();
            let answer = layer("serve.snapshot.answer", || snap.answer().map(|_| ()));
            self.answer_ms.push(ms_since(t));
            let t = Instant::now();
            let http = layer("serve.http.state", || {
                http_get(server.http_addr(), "/state")
            });
            self.state_ms.push(ms_since(t));
            answer.map_err(|e| e.to_string()).and(http)
        } else {
            http_get(server.http_addr(), "/state")
        };
        drop(snap);
        self.query_ms.push(due.elapsed().as_secs_f64() * 1e3);
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("query failed: {e}");
        }
    }
}

/// Sends `GET /state` on a fixed schedule until `stop`, timing each query
/// from when it was due.
fn open_loop_reader(server: &Server, hz: f64, stop: &AtomicBool) -> ReaderLog {
    let mut log = ReaderLog::default();
    let period = Duration::from_secs_f64(1.0 / hz);
    let mut due = Instant::now();
    while !stop.load(Ordering::Acquire) {
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        log.query(server, due);
        due += period;
    }
    log
}

/// The offline reference: an [`Engine`] fed batches `0..batches` of the
/// given group cycle, with the daemon's epoch.
fn offline_bits(daemon: &Daemon, groups: &[usize], batches: u64) -> Result<Vec<u64>, String> {
    let mut engine = Engine::new(
        Arc::clone(&daemon.system),
        ConsistencyDetector::recommended(),
    );
    let epoch = daemon.server.epoch();
    engine.bump_epoch(epoch);
    for k in 0..batches {
        let batch = ProbeBatch {
            batch_id: k,
            epoch,
            rows: batch_rows(&daemon.y, groups[(k % groups.len() as u64) as usize], k),
        };
        engine.apply(&batch);
    }
    engine
        .query()
        .map(|a| a.estimate_bits)
        .map_err(|e| format!("offline engine: {e}"))
}

/// The daemon's final estimate, and `run_s`: the median start-up plus
/// the time from `drive` to that estimate.
fn final_state(daemon: &Daemon, setup_s: f64, drive: Instant) -> Result<(Vec<u64>, f64), String> {
    let bits = daemon
        .server
        .query()
        .map_err(|e| format!("final query: {e}"))?
        .estimate_bits;
    Ok((bits, setup_s + drive.elapsed().as_secs_f64()))
}

/// The oracles and daemon-side counters shared by both workloads.
fn finish(
    daemon: &Daemon,
    out: &mut Outcome,
    groups: &[usize],
    sent: u64,
    acked: u64,
    served: &[u64],
    reader: &ReaderLog,
) -> Result<(), String> {
    let stats = daemon.server.engine_stats();
    out.check(acked == sent, || format!("{acked} of {sent} batches acked"));
    out.check(stats.applied == sent && stats.deduped == 0, || {
        format!(
            "{sent} batches sent, {} applied, {} deduplicated",
            stats.applied, stats.deduped
        )
    });
    out.check(reader.version_regressions == 0, || {
        format!(
            "snapshot version regressed {} times",
            reader.version_regressions
        )
    });
    let reference = offline_bits(daemon, groups, sent)?;
    out.check(served == reference, || {
        "final estimate differs from the offline engine".to_string()
    });

    let shards = daemon.server.shard_stats();
    out.set(
        "serve.queue.pushed",
        shards.iter().map(|s| s.pushed).sum::<u64>() as f64,
    );
    out.set(
        "serve.queue.rejects",
        shards.iter().map(|s| s.rejects).sum::<u64>() as f64,
    );
    out.set("serve.engine.applied", stats.applied as f64);
    out.set("serve.engine.reordered", stats.reordered as f64);
    out.set("serve.engine.deduped", stats.deduped as f64);
    let publishes = daemon.server.snapshot().version() as f64;
    out.set("serve.snapshot.publishes", publishes);
    out.set(
        "serve.snapshot.batches_per_publish",
        stats.applied as f64 / publishes.max(1.0),
    );
    let journal_bytes = std::fs::metadata(&daemon.journal).map_or(0, |m| m.len());
    out.set(
        "serve.journal.bytes_per_batch",
        journal_bytes as f64 / sent.max(1) as f64,
    );

    out.set("serve.query.p50_ms", median(&reader.query_ms));
    out.set("serve.query.p99_ms", tail(&reader.query_ms, 0.99));
    out.set(
        "serve.query.fresh_solve_frac",
        reader.fresh as f64 / reader.query_ms.len().max(1) as f64,
    );
    out.set("serve.snapshot.answer_ms", median(&reader.answer_ms));
    out.set("serve.http.state_ms", median(&reader.state_ms));
    out.set("loadgen.late_p99_ms", quantile(&reader.late_ms, 0.99));
    out.attempted += sent + reader.query_ms.len() as u64;
    out.failed += sent - acked.min(sent) + reader.failed;
    Ok(())
}

/// `serve-ingest`: a fixed number of batches, closed-loop and windowed,
/// beside an open-loop reader.
pub fn serve_ingest(run: &Run) -> Result<Outcome, String> {
    let root = format!("bench.{}", run.workload);
    let root_span = tomo_obs::tracing_enabled().then(|| tomo_obs::span(&root));
    let (daemon, setup_s) = start_daemon(run)?;
    let groups = live_groups(false);
    let mut out = Outcome::default();
    out.set("setup_s", setup_s);
    let windows = if run.tiny {
        4
    } else {
        (run.seconds * INGEST_BATCHES_PER_SECOND / WINDOW as f64).round() as usize
    };

    let drive = Instant::now();
    let mut client = ProbeClient::new(daemon.server.ingest_addr(), derive_seed(run.seed, 4));
    // Every group once before the reader starts: full coverage from the
    // first query on.
    send_window(&mut client, &daemon, &groups, 0, groups.len())
        .map_err(|e| format!("initial coverage: {e}"))?;
    let mut sent = groups.len() as u64;
    let mut window_ms = Vec::with_capacity(windows);
    let stop = AtomicBool::new(false);
    let reader = std::thread::scope(|scope| {
        let reader = scope.spawn(|| open_loop_reader(&daemon.server, INGEST_QUERY_HZ, &stop));
        for _ in 0..windows {
            let result = send_window(&mut client, &daemon, &groups, sent, WINDOW);
            sent += WINDOW as u64;
            match result {
                Ok(ms) => window_ms.push(ms),
                Err(e) => {
                    // The rest of the window counts as unacked.
                    eprintln!("serve-ingest: client stopped: {e}");
                    break;
                }
            }
        }
        stop.store(true, Ordering::Release);
        reader.join().expect("reader thread panicked")
    });
    let ingest_s = drive.elapsed().as_secs_f64();
    let (served, run_s) = final_state(&daemon, setup_s, drive)?;
    drop(root_span);
    out.set("run_s", run_s);
    let outcome = client.outcome().clone();
    finish(
        &daemon,
        &mut out,
        &groups,
        sent,
        outcome.acked,
        &served,
        &reader,
    )?;

    let ack_ms: Vec<f64> = window_ms.iter().map(|w| w / WINDOW as f64).collect();
    out.set("serve.ack.p50_ms", median(&ack_ms));
    out.set("serve.ack.p99_ms", tail(&ack_ms, 0.99));
    out.set("serve.client.window_ms", median(&window_ms));
    out.set(
        "serve.client.queue_full_rejects",
        outcome.queue_full_rejects as f64,
    );
    out.set(
        "serve.ingest_batches_per_s",
        outcome.acked as f64 / ingest_s,
    );
    drop(daemon.server);
    remove_journal(&daemon.journal);
    Ok(out)
}

/// `serve-degraded`: partial coverage; a fixed number of rounds, each one
/// batch and then one query, which solves the fresh snapshot degraded.
pub fn serve_degraded(run: &Run) -> Result<Outcome, String> {
    let root = format!("bench.{}", run.workload);
    let root_span = tomo_obs::tracing_enabled().then(|| tomo_obs::span(&root));
    let (daemon, setup_s) = start_daemon(run)?;
    let groups = live_groups(true);
    let mut out = Outcome::default();
    out.set("setup_s", setup_s);
    let rounds = if run.tiny {
        2
    } else {
        (run.seconds * DEGRADED_ROUNDS_PER_SECOND).round().max(1.0) as u64
    };

    let drive = Instant::now();
    let mut client = ProbeClient::new(daemon.server.ingest_addr(), derive_seed(run.seed, 4));
    // Every live group once: coverage is 7/8 of the paths from here on.
    send_window(&mut client, &daemon, &groups, 0, groups.len())
        .map_err(|e| format!("initial coverage: {e}"))?;
    let mut sent = groups.len() as u64;
    let mut reader = ReaderLog::default();
    let mut ack_ms = Vec::new();
    for _ in 0..rounds {
        // The ack implies the batch is published, so the query that is
        // due now sees a new version.
        match send_window(&mut client, &daemon, &groups, sent, 1) {
            Ok(ms) => ack_ms.push(ms),
            Err(e) => eprintln!("serve-degraded: batch {sent}: {e}"),
        }
        sent += 1;
        reader.query(&daemon.server, Instant::now());
    }
    let ingest_s = drive.elapsed().as_secs_f64();
    let (served, run_s) = final_state(&daemon, setup_s, drive)?;
    drop(root_span);
    out.set("run_s", run_s);
    let outcome = client.outcome().clone();
    finish(
        &daemon,
        &mut out,
        &groups,
        sent,
        outcome.acked,
        &served,
        &reader,
    )?;
    out.set("serve.ack.p50_ms", median(&ack_ms));
    out.set("serve.client.window_ms", median(&ack_ms));
    out.set(
        "serve.ingest_batches_per_s",
        outcome.acked as f64 / ingest_s,
    );
    out.set(
        "serve.client.queue_full_rejects",
        outcome.queue_full_rejects as f64,
    );
    drop(daemon.server);
    remove_journal(&daemon.journal);
    Ok(out)
}
