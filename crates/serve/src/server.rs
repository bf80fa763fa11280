//! The `tomo-serve` daemon: ingest loop, apply worker, HTTP query front.
//!
//! Three thread families cooperate, but only one of them ever touches
//! the [`Engine`]:
//!
//! * **connection handlers** (one per ingest TCP connection) parse wire
//!   frames under per-connection deadlines and hand batches to the apply
//!   worker through the one bounded FIFO [`IngestQueue`] — or answer
//!   `Reject(QueueFull)` with an occupancy-scaled retry hint when it is
//!   at capacity;
//! * the **apply worker** (single consumer, sole owner of the engine)
//!   pops batches in arrival order, journals each admitted batch,
//!   applies it, snapshots on cadence, publishes an immutable
//!   [`EngineSnapshot`] when the queue drains (or every
//!   [`PUBLISH_COALESCE`] batches), and holds every reply back until the
//!   publish that covers it — so an `Ack` means the batch both survives
//!   a crash *and* is visible to the next query, and a `Reject` means
//!   the published counters already show it, for pipelined clients and
//!   multi-client fleets just as for a lockstep client;
//! * the **HTTP front** and every in-process query answer from the
//!   latest published snapshot — no engine lock exists to take, so
//!   `/state`, `/verdict`, and `/stats` never wait on ingest and a torn
//!   read is impossible by construction (see `snapshot.rs`).
//!
//! Deadline policy: a connection may idle between frames up to
//! [`IDLE_TIMEOUT`], but once a frame's first byte arrives the rest must
//! follow within [`FRAME_DEADLINE`] — a peer stalled mid-frame holds no
//! handler hostage. Stop-flag polling rides on the socket read timeout,
//! so shutdown latency is one poll interval, not one idle timeout. The
//! handler reads every frame through [`read_frame`] and writes every
//! reply through [`write_frame`]; only the deadline policy lives here.
//!
//! Shutdown order: the acceptor and the connection handlers stop on the
//! stop flag and are joined first; only then is the queue closed, and
//! the apply worker exits once the closed queue is drained. Every batch
//! a handler managed to push is therefore applied and answered, which
//! is what lets each handler's reply pump, and so the handler, finish.

use std::io::{self, Read};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use tomo_core::TomographySystem;
use tomo_detect::ConsistencyDetector;
use tomo_obs::{Handler, HttpRequest, HttpResponse, HttpServer, LazyHistogram};

use crate::engine::{ApplyOutcome, Engine, EngineStats, QueryError};
use crate::journal::Journal;
use crate::queue::{IngestQueue, Pop, QueueStats};
use crate::snapshot::{EngineSnapshot, SnapshotStore};
use crate::wire::{
    read_frame, write_frame, Frame, ProbeBatch, RejectCode, WireError, WIRE_VERSION,
};

static QUERY_LATENCY_US: LazyHistogram = LazyHistogram::new("serve.query.latency_us");

/// How long an ingest connection may idle *between* frames.
pub const IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Once a frame's first byte arrives, the whole frame must arrive within
/// this.
pub const FRAME_DEADLINE: Duration = Duration::from_secs(2);

/// Write deadline for replies on the ingest socket.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Base backoff hint carried by `Reject(QueueFull)`, milliseconds; the
/// actual hint scales with queue occupancy at reject time.
const RETRY_AFTER_MS: u32 = 20;

/// Under sustained load, the apply worker publishes a query snapshot at
/// least every this many applied batches (a drained queue always
/// publishes).
pub const PUBLISH_COALESCE: usize = 32;

/// Daemon configuration. [`Default`] is tuned for tests and the chaos
/// sweep: ephemeral ports, small queue, sub-second timeouts.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Ingest TCP port (0 = OS-assigned).
    pub ingest_port: u16,
    /// HTTP query port (0 = OS-assigned).
    pub http_port: u16,
    /// Bounded ingest queue capacity (batches); must be positive.
    pub queue_capacity: usize,
    /// Ignored: the daemon has one ingest queue. The field stays only
    /// because the frozen benchmark under `perfbench/` still sets it, and
    /// goes with that benchmark's next revision (ROADMAP item 1).
    pub ingest_shards: usize,
    /// Stop-flag poll interval (also the socket read timeout).
    pub poll_interval: Duration,
    /// Where to journal applied batches; `None` disables persistence.
    pub journal_path: Option<PathBuf>,
    /// Fsync the journal on every append. Off, an acked batch survives
    /// a process crash (appends are flushed to the OS page cache); on,
    /// it also survives an OS crash or power loss, at the cost of one
    /// `sync_data` per batch.
    pub journal_sync: bool,
    /// Snapshot the engine every this many applied batches (0 = never).
    pub snapshot_every: u64,
    /// The p99 query-latency SLO, milliseconds (reported in `/stats`;
    /// the chaos sweep asserts against it).
    pub slo_ms: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            ingest_port: 0,
            http_port: 0,
            queue_capacity: 64,
            ingest_shards: 1,
            poll_interval: Duration::from_millis(100),
            journal_path: None,
            journal_sync: false,
            snapshot_every: 64,
            slo_ms: 5.0,
        }
    }
}

/// Per-server ingest counters (plain atomics so concurrent sweeps and
/// tests don't share tallies through the global metric registry).
#[derive(Debug, Default)]
pub struct IngestCounters {
    /// Connections accepted on the ingest socket.
    pub connections: AtomicU64,
    /// Handshakes refused (bad first frame or version mismatch).
    pub handshake_rejects: AtomicU64,
    /// Frames quarantined: stream ended inside a frame.
    pub truncated_frames: AtomicU64,
    /// Frames quarantined: unknown frame type (garbled).
    pub garbled_frames: AtomicU64,
    /// Frames quarantined: any other decode violation.
    pub malformed_frames: AtomicU64,
    /// Frames refused by the length-prefix ceiling.
    pub oversized_frames: AtomicU64,
    /// Well-formed frames of an unexpected kind mid-session.
    pub unexpected_frames: AtomicU64,
    /// Connections closed for idling past the idle timeout.
    pub idle_closed: AtomicU64,
    /// Connections closed for stalling mid-frame past the deadline.
    pub deadline_closed: AtomicU64,
}

impl IngestCounters {
    /// Frames dropped as unusable (the server side of the fault ledger's
    /// `quarantined` column for wire faults).
    #[must_use]
    pub fn quarantined_frames(&self) -> u64 {
        self.truncated_frames.load(Ordering::Relaxed)
            + self.garbled_frames.load(Ordering::Relaxed)
            + self.malformed_frames.load(Ordering::Relaxed)
            + self.oversized_frames.load(Ordering::Relaxed)
            + self.unexpected_frames.load(Ordering::Relaxed)
    }
}

struct IngestItem {
    batch: ProbeBatch,
    reply: mpsc::Sender<Frame>,
}

/// A running daemon. Dropping the handle shuts everything down.
pub struct Server {
    ingest_addr: SocketAddr,
    http_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    shutdown_requested: Arc<(Mutex<bool>, Condvar)>,
    store: Arc<SnapshotStore>,
    queue: Arc<IngestQueue<IngestItem>>,
    counters: Arc<IngestCounters>,
    listener_thread: Option<std::thread::JoinHandle<()>>,
    apply_thread: Option<std::thread::JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    http: Option<tomo_obs::HttpServerHandle>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Server {
    /// Starts the daemon: replays the journal (if any), binds both
    /// sockets, and spawns the worker threads.
    ///
    /// # Errors
    ///
    /// Returns [`std::io::ErrorKind::InvalidInput`] for a zero
    /// `queue_capacity`, and socket bind and journal I/O errors.
    pub fn start(
        system: Arc<TomographySystem>,
        detector: ConsistencyDetector,
        config: ServeConfig,
    ) -> std::io::Result<Server> {
        if config.queue_capacity == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "queue capacity must be positive",
            ));
        }
        let mut engine = Engine::new(system, detector);
        let mut journal = match &config.journal_path {
            Some(path) => {
                let replay = Journal::replay(path)?;
                if let Some(snap) = &replay.snapshot {
                    engine.restore(snap);
                }
                // Re-apply before bumping past the recorded epochs: the
                // engine is still at the snapshot's epoch (or zero), so
                // batches journaled under *any* later session pass the
                // stale check — bumping to `last_epoch` first would
                // silently drop every batch from an earlier session.
                for batch in &replay.batches {
                    match engine.apply(batch) {
                        ApplyOutcome::Applied { .. } | ApplyOutcome::Duplicate => {}
                        outcome => tomo_obs::error!(
                            "serve.journal",
                            "replayed batch {} refused: {outcome:?}",
                            batch.batch_id
                        ),
                    }
                }
                let mut journal =
                    Journal::open(path, config.snapshot_every)?.with_sync(config.journal_sync);
                let epoch = replay.last_epoch + 1;
                engine.bump_epoch(epoch);
                journal.append(&Frame::EpochMark { epoch })?;
                Some(journal)
            }
            None => {
                engine.bump_epoch(1);
                None
            }
        };

        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, config.ingest_port))?;
        let ingest_addr = listener.local_addr()?;
        let http = HttpServer::bind(config.http_port)?;
        let http_addr = http.local_addr()?;

        let stop = Arc::new(AtomicBool::new(false));
        let shutdown_requested = Arc::new((Mutex::new(false), Condvar::new()));
        let counters = Arc::new(IngestCounters::default());
        let queue = Arc::new(IngestQueue::<IngestItem>::new(
            config.queue_capacity,
            RETRY_AFTER_MS,
        ));
        let conn_threads = Arc::new(Mutex::new(Vec::<std::thread::JoinHandle<()>>::new()));
        // Version 0: the post-replay state is queryable before the
        // first batch arrives.
        let store = Arc::new(SnapshotStore::new(engine.published_view(0)));

        // Apply worker: sole owner of the engine — it moves in here, so
        // no other thread *can* take an engine lock. Queries read the
        // published snapshots instead.
        let apply_thread = {
            let queue = Arc::clone(&queue);
            let store = Arc::clone(&store);
            let poll = config.poll_interval;
            std::thread::Builder::new()
                .name("tomo-serve-apply".into())
                .spawn(move || {
                    let mut engine = engine;
                    let mut version = 1u64;
                    // Every reply is withheld until the publish that
                    // covers its batch, so a client that reads an Ack
                    // (or a quarantine Reject) and then queries sees
                    // its own write — even under sustained load where
                    // publishes coalesce. A publish is never more than
                    // `PUBLISH_COALESCE` batches (or one poll interval) behind
                    // the reply it gates, so the added latency stays
                    // far under the client's ack timeout.
                    let mut pending: Vec<(mpsc::Sender<Frame>, Frame)> = Vec::new();
                    loop {
                        let closed = match queue.pop(poll) {
                            Pop::Item(item) => {
                                let reply = apply_one(&mut engine, journal.as_mut(), &item.batch);
                                pending.push((item.reply, reply));
                                // Publish when the queue drains (always
                                // true for a lockstep client's latest
                                // batch); under sustained load, coalesce.
                                if queue.depth() > 0 && pending.len() < PUBLISH_COALESCE {
                                    continue;
                                }
                                false
                            }
                            Pop::Empty => false,
                            Pop::Closed => true,
                        };
                        if !pending.is_empty() {
                            store.publish(engine.published_view(version));
                            version += 1;
                            // A gone receiver just means the connection
                            // died; the client retries.
                            for (reply_tx, reply) in pending.drain(..) {
                                let _ = reply_tx.send(reply);
                            }
                        }
                        if closed {
                            break;
                        }
                    }
                })?
        };

        // Ingest acceptor.
        let listener_thread = {
            let stop = Arc::clone(&stop);
            let store = Arc::clone(&store);
            let counters = Arc::clone(&counters);
            let queue = Arc::clone(&queue);
            let conn_threads = Arc::clone(&conn_threads);
            let config = config.clone();
            std::thread::Builder::new()
                .name("tomo-serve-ingest".into())
                .spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        let Ok((stream, _)) = listener.accept() else {
                            break;
                        };
                        if stop.load(Ordering::Acquire) {
                            break; // the shutdown self-connect
                        }
                        // Acks are tiny; Nagle would hold them hostage
                        // to the client's delayed ACK under pipelining.
                        let _ = stream.set_nodelay(true);
                        counters.connections.fetch_add(1, Ordering::Relaxed);
                        let store = Arc::clone(&store);
                        let counters = Arc::clone(&counters);
                        let queue = Arc::clone(&queue);
                        let stop = Arc::clone(&stop);
                        let config = config.clone();
                        let handle = std::thread::Builder::new()
                            .name("tomo-serve-conn".into())
                            .spawn(move || {
                                handle_ingest_conn(
                                    stream, &store, &counters, &queue, &stop, &config,
                                );
                            });
                        if let Ok(handle) = handle {
                            // Reap finished handlers opportunistically so a
                            // long-running daemon with many short-lived
                            // connections doesn't accumulate handles
                            // without bound (dropping a finished handle
                            // just detaches an already-exited thread).
                            let mut threads = lock(&conn_threads);
                            threads.retain(|h| !h.is_finished());
                            threads.push(handle);
                        }
                    }
                })?
        };

        // HTTP query front.
        let handler = http_handler(
            Arc::clone(&store),
            Arc::clone(&counters),
            Arc::clone(&queue),
            Arc::clone(&shutdown_requested),
            config.slo_ms,
        );
        let http = http.spawn_named(handler, "tomo-serve-http")?;

        Ok(Server {
            ingest_addr,
            http_addr,
            stop,
            shutdown_requested,
            store,
            queue,
            counters,
            listener_thread: Some(listener_thread),
            apply_thread: Some(apply_thread),
            conn_threads,
            http: Some(http),
        })
    }

    /// Address of the ingest (wire protocol) socket.
    #[must_use]
    pub fn ingest_addr(&self) -> SocketAddr {
        self.ingest_addr
    }

    /// Address of the HTTP query front.
    #[must_use]
    pub fn http_addr(&self) -> SocketAddr {
        self.http_addr
    }

    /// Per-server ingest counters.
    #[must_use]
    pub fn counters(&self) -> &IngestCounters {
        &self.counters
    }

    /// Connection handler threads not yet reaped. Finished handlers are
    /// reaped on each accept, so this tracks concurrently live
    /// connections (plus recently closed ones awaiting the next accept)
    /// rather than growing with connection churn.
    #[must_use]
    pub fn conn_thread_count(&self) -> usize {
        lock(&self.conn_threads).len()
    }

    /// Engine counters from the latest published snapshot.
    #[must_use]
    pub fn engine_stats(&self) -> EngineStats {
        self.store.load().stats()
    }

    /// Current session epoch (from the latest published snapshot).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.store.load().epoch()
    }

    /// The latest published engine snapshot — the same view HTTP
    /// queries answer from. The load sweep uses this to assert
    /// consistency and version monotonicity from reader threads.
    #[must_use]
    pub fn snapshot(&self) -> Arc<EngineSnapshot> {
        self.store.load()
    }

    /// Ingest queue depth, admitted and refused counts.
    #[must_use]
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }

    /// [`Server::queue_stats`] as a one-element list. The daemon has one
    /// ingest queue; this stays only because the frozen benchmark under
    /// `perfbench/` still sums it, and goes with that benchmark's next
    /// revision (ROADMAP item 1).
    #[must_use]
    pub fn shard_stats(&self) -> Vec<QueueStats> {
        vec![self.queue_stats()]
    }

    /// Runs a query against the latest published snapshot (the
    /// in-process path the chaos and load sweeps use alongside HTTP).
    /// Takes no engine lock: ingest can saturate the apply worker while
    /// this returns in microseconds.
    ///
    /// # Errors
    ///
    /// See [`EngineSnapshot::answer`].
    pub fn query(&self) -> Result<crate::engine::QueryAnswer, QueryError> {
        let start = Instant::now();
        let result = self.store.load().answer();
        QUERY_LATENCY_US.record(start.elapsed().as_secs_f64() * 1e6);
        result
    }

    /// Blocks until `POST /shutdown` arrives or `timeout` elapses;
    /// `true` when a shutdown was requested.
    #[must_use]
    pub fn wait_for_shutdown_request(&self, timeout: Duration) -> bool {
        let (flag, condvar) = &*self.shutdown_requested;
        let deadline = Instant::now() + timeout;
        let mut requested = lock(flag);
        while !*requested {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = condvar
                .wait_timeout(requested, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            requested = guard;
        }
        true
    }

    /// Stops every thread, drains the queue, and closes both sockets
    /// (idempotent).
    pub fn shutdown(&mut self) {
        if self.listener_thread.is_none() {
            return;
        }
        self.stop.store(true, Ordering::Release);
        // Wake the acceptor so it observes the flag.
        let _ = TcpStream::connect(self.ingest_addr);
        if let Some(t) = self.listener_thread.take() {
            let _ = t.join();
        }
        // Connection handlers notice the flag within one poll interval.
        // A handler finishes only once the apply worker has answered
        // every batch it pushed, so the worker must still be running.
        let handles: Vec<_> = std::mem::take(&mut *lock(&self.conn_threads));
        for h in handles {
            let _ = h.join();
        }
        // Nothing can push any more: the worker drains what is queued,
        // publishes, and exits.
        self.queue.close();
        if let Some(t) = self.apply_thread.take() {
            let _ = t.join();
        }
        if let Some(mut http) = self.http.take() {
            http.shutdown();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Applies one batch on the apply worker, with write-ahead journaling:
/// an admitted batch is journaled *before* it is applied, so a journal
/// failure leaves the engine untouched — the client's retry re-runs the
/// whole admit→journal→apply path instead of short-circuiting through
/// dedup to an ack that was never made durable.
fn apply_one(engine: &mut Engine, mut journal: Option<&mut Journal>, batch: &ProbeBatch) -> Frame {
    let epoch = engine.epoch();
    if let Some(journal) = journal.as_deref_mut() {
        if engine.admits(batch) {
            if let Err(e) = journal.append(&Frame::Batch(batch.clone())) {
                // Nothing was applied; reject so the client retries.
                tomo_obs::error!("serve.journal", "append failed: {e}");
                return Frame::Reject {
                    batch_id: batch.batch_id,
                    code: RejectCode::QueueFull,
                    retry_after_ms: 100,
                };
            }
        }
    }
    match engine.apply(batch) {
        ApplyOutcome::Applied { .. } => {
            if let Some(journal) = journal {
                if journal.snapshot_due() {
                    let snap = engine.snapshot();
                    if let Err(e) = journal.append_snapshot(snap) {
                        tomo_obs::error!("serve.journal", "snapshot failed: {e}");
                    }
                }
            }
            Frame::Ack {
                batch_id: batch.batch_id,
                epoch,
            }
        }
        // Duplicate: already applied AND journaled (the journal append
        // preceded the apply that marked it) — safe to re-ack.
        ApplyOutcome::Duplicate => Frame::Ack {
            batch_id: batch.batch_id,
            epoch,
        },
        ApplyOutcome::StaleEpoch => Frame::Reject {
            batch_id: batch.batch_id,
            code: RejectCode::StaleEpoch,
            retry_after_ms: 0,
        },
        ApplyOutcome::Quarantined(_) => Frame::Reject {
            batch_id: batch.batch_id,
            code: RejectCode::BadBatch,
            retry_after_ms: 0,
        },
    }
}

/// Why a [`DeadlineReader`] gave up waiting for bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stall {
    /// The stop flag was set.
    Stopped,
    /// No frame began within [`IDLE_TIMEOUT`].
    Idle,
    /// A begun frame did not complete within [`FRAME_DEADLINE`].
    Deadline,
}

/// The ingest socket as [`read_frame`] sees it, under the deadline
/// policy. Each socket read waits at most one poll interval; on a
/// timeout the reader retries until bytes arrive, the stop flag is set,
/// the idle timeout passes before the frame's first byte, or the frame
/// deadline passes after it. It then records that [`Stall`] and returns
/// the timeout error, which `read_frame` reports as [`WireError::Io`].
struct DeadlineReader<'a> {
    stream: TcpStream,
    stop: &'a AtomicBool,
    idle_since: Instant,
    frame_start: Option<Instant>,
    stall: Option<Stall>,
}

impl<'a> DeadlineReader<'a> {
    fn new(stream: TcpStream, stop: &'a AtomicBool, poll_interval: Duration) -> io::Result<Self> {
        stream.set_read_timeout(Some(poll_interval))?;
        Ok(DeadlineReader {
            stream,
            stop,
            idle_since: Instant::now(),
            frame_start: None,
            stall: None,
        })
    }

    /// Reads the next frame, with the idle and frame clocks restarted.
    fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        self.idle_since = Instant::now();
        self.frame_start = None;
        self.stall = None;
        read_frame(self)
    }
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.stream.read(buf) {
                Ok(n) => {
                    if n > 0 {
                        self.frame_start.get_or_insert_with(Instant::now);
                    }
                    return Ok(n);
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    let stall = match self.frame_start {
                        _ if self.stop.load(Ordering::Acquire) => Stall::Stopped,
                        Some(start) if start.elapsed() > FRAME_DEADLINE => Stall::Deadline,
                        None if self.idle_since.elapsed() > IDLE_TIMEOUT => Stall::Idle,
                        _ => continue,
                    };
                    self.stall = Some(stall);
                    return Err(e);
                }
                Err(e) => return Err(e),
            }
        }
    }
}

fn handle_ingest_conn(
    stream: TcpStream,
    store: &SnapshotStore,
    counters: &IngestCounters,
    queue: &IngestQueue<IngestItem>,
    stop: &AtomicBool,
    config: &ServeConfig,
) {
    if stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err() {
        return;
    }
    let Ok(mut reader) = DeadlineReader::new(stream, stop, config.poll_interval) else {
        return;
    };
    // Handshake: exactly one Hello, then HelloAck.
    match reader.next_frame() {
        Ok(Some(Frame::Hello { version })) if version == WIRE_VERSION => {}
        Ok(None) => return,
        Err(WireError::Io(_)) if reader.stall == Some(Stall::Stopped) => return,
        _ => {
            counters.handshake_rejects.fetch_add(1, Ordering::Relaxed);
            return;
        }
    }
    let (epoch, num_paths) = {
        let snap = store.load();
        (snap.epoch(), snap.num_paths())
    };
    let ack = Frame::HelloAck {
        epoch,
        num_paths: u32::try_from(num_paths).unwrap_or(u32::MAX),
    };
    if write_frame(&mut reader.stream, &ack).is_err() {
        return;
    }

    // Reply pump: one writer per connection drains apply replies and
    // rejects, so the read loop never blocks on the apply worker — a
    // pipelined client's frames already sitting in the socket buffer
    // are queued back-to-back instead of one per apply round trip. The
    // client matches replies by batch id, so reply order never matters.
    let (reply_tx, reply_rx) = mpsc::channel::<Frame>();
    let writer_stream = match reader.stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let writer = std::thread::Builder::new()
        .name("tomo-serve-reply".into())
        .spawn(move || {
            let mut stream = writer_stream;
            while let Ok(frame) = reply_rx.recv() {
                if write_frame(&mut stream, &frame).is_err() {
                    // Half-close so the read loop sees the dead peer
                    // now instead of waiting out the idle timeout.
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                    break;
                }
            }
        });
    let Ok(writer) = writer else { return };

    loop {
        let frame = match reader.next_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) => break,
            Err(WireError::Io(_)) => {
                match reader.stall {
                    Some(Stall::Idle) => {
                        counters.idle_closed.fetch_add(1, Ordering::Relaxed);
                    }
                    Some(Stall::Deadline) => {
                        counters.deadline_closed.fetch_add(1, Ordering::Relaxed);
                    }
                    Some(Stall::Stopped) | None => {}
                }
                break;
            }
            Err(e) => {
                let quarantine = match e {
                    WireError::UnexpectedEof => &counters.truncated_frames,
                    WireError::UnknownFrameType { .. } => &counters.garbled_frames,
                    WireError::OversizedFrame { .. } => &counters.oversized_frames,
                    _ => &counters.malformed_frames,
                };
                quarantine.fetch_add(1, Ordering::Relaxed);
                tomo_obs::debug!("serve.ingest", "quarantined frame: {e}");
                break;
            }
        };
        match frame {
            Frame::Batch(batch) => {
                let batch_id = batch.batch_id;
                let item = IngestItem {
                    batch,
                    reply: reply_tx.clone(),
                };
                // The apply worker journals and answers through the
                // reply pump; it runs until every handler has exited.
                if let Err(full) = queue.try_push(item) {
                    let reject = Frame::Reject {
                        batch_id,
                        code: RejectCode::QueueFull,
                        retry_after_ms: full.retry_after_ms,
                    };
                    if reply_tx.send(reject).is_err() {
                        break;
                    }
                }
            }
            _ => {
                // A well-formed frame the server never expects here
                // (e.g. a second Hello): drop the connection.
                counters.unexpected_frames.fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
    }
    // The writer exits once every reply sender is gone: ours here, and
    // the clones riding queued batches once the apply worker answers
    // (or drops) them.
    drop(reply_tx);
    let _ = writer.join();
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn http_handler(
    store: Arc<SnapshotStore>,
    counters: Arc<IngestCounters>,
    queue: Arc<IngestQueue<IngestItem>>,
    shutdown_requested: Arc<(Mutex<bool>, Condvar)>,
    slo_ms: f64,
) -> Handler {
    // `/metrics`, `/healthz`, 404 and 405: every route the daemon does
    // not own.
    let fallback = tomo_obs::metrics_handler();
    Arc::new(move |req: &HttpRequest| {
        if req.method == "POST" && req.target == "/shutdown" {
            let (flag, condvar) = &*shutdown_requested;
            *lock(flag) = true;
            condvar.notify_all();
            return HttpResponse::ok("text/plain; charset=utf-8", "shutting down\n".to_string());
        }
        if req.method != "GET" {
            return fallback(req);
        }
        match req.target.as_str() {
            "/readyz" => {
                let snap = store.load();
                let coverage = snap.coverage();
                let total = snap.num_paths();
                drop(snap);
                if coverage == total {
                    HttpResponse::ok("text/plain; charset=utf-8", "ready\n".to_string())
                } else {
                    HttpResponse::unavailable(format!("coverage {coverage}/{total}\n"), 1)
                }
            }
            "/state" | "/verdict" => {
                let start = Instant::now();
                let answer = store.load().answer();
                QUERY_LATENCY_US.record(start.elapsed().as_secs_f64() * 1e6);
                match answer {
                    Ok(a) => {
                        let body = if req.target == "/state" {
                            let bits: Vec<String> = a
                                .estimate_bits
                                .iter()
                                .map(|b| format!("\"{b:016x}\""))
                                .collect();
                            let floats: Vec<String> = a
                                .estimate_bits
                                .iter()
                                .map(|&b| json_f64(f64::from_bits(b)))
                                .collect();
                            format!(
                                "{{\"epoch\": {}, \"coverage\": {}, \"num_paths\": {}, \
                                 \"degraded\": {}, \"rank\": {}, \"used_ridge\": {}, \
                                 \"unidentifiable\": {}, \"estimate_bits\": [{}], \
                                 \"estimate\": [{}]}}\n",
                                a.epoch,
                                a.coverage,
                                a.num_paths,
                                a.degraded,
                                a.rank,
                                a.used_ridge,
                                a.unidentifiable,
                                bits.join(", "),
                                floats.join(", "),
                            )
                        } else {
                            format!(
                                "{{\"epoch\": {}, \"coverage\": {}, \"detected\": {}, \
                                 \"residual_l1\": {}, \"min_estimate\": {}, \"degraded\": {}, \
                                 \"used_ridge\": {}}}\n",
                                a.epoch,
                                a.coverage,
                                a.verdict.detected,
                                json_f64(a.verdict.residual_l1),
                                json_f64(a.verdict.min_estimate),
                                a.degraded,
                                a.used_ridge,
                            )
                        };
                        HttpResponse::ok("application/json", body)
                    }
                    Err(QueryError::NoCoverage) => {
                        HttpResponse::unavailable("no measurements yet\n".to_string(), 1)
                    }
                    Err(QueryError::Core(e)) => HttpResponse {
                        status: "500 Internal Server Error",
                        content_type: "text/plain; charset=utf-8",
                        body: format!("solve failed: {e}\n"),
                        extra_headers: Vec::new(),
                    },
                }
            }
            "/stats" => {
                let snap = store.load();
                let (stats, epoch, coverage, version) =
                    (snap.stats(), snap.epoch(), snap.coverage(), snap.version());
                drop(snap);
                let queue = queue.stats();
                let latency = tomo_obs::histogram("serve.query.latency_us").summary();
                let body = format!(
                    "{{\"epoch\": {}, \"coverage\": {}, \"snapshot_version\": {}, \
                     \"queue_depth\": {}, \"queue_pushed\": {}, \
                     \"applied\": {}, \"deduped\": {}, \"reordered\": {}, \
                     \"quarantined_batches\": {}, \"stale_epoch\": {}, \
                     \"connections\": {}, \"quarantined_frames\": {}, \
                     \"truncated_frames\": {}, \"garbled_frames\": {}, \
                     \"queue_rejects\": {}, \"slo_ms\": {}, \
                     \"query_latency_us\": {{\"count\": {}, \"p50\": {}, \"p99\": {}}}}}\n",
                    epoch,
                    coverage,
                    version,
                    queue.depth,
                    queue.pushed,
                    stats.applied,
                    stats.deduped,
                    stats.reordered,
                    stats.quarantined,
                    stats.stale_epoch,
                    counters.connections.load(Ordering::Relaxed),
                    counters.quarantined_frames(),
                    counters.truncated_frames.load(Ordering::Relaxed),
                    counters.garbled_frames.load(Ordering::Relaxed),
                    queue.rejects,
                    json_f64(slo_ms),
                    latency.count,
                    json_f64(latency.p50),
                    json_f64(latency.p99),
                );
                HttpResponse::ok("application/json", body)
            }
            _ => fallback(req),
        }
    })
}
