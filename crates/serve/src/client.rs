//! The `tomo-probe` client: batched measurement delivery with retry,
//! jittered exponential backoff, and deliberate wire-fault injection.
//!
//! Delivery is lockstep-with-a-window: a batch is written, then its
//! `Ack` awaited; only the injected duplicate/reorder faults widen the
//! in-flight window to two. Every failure mode maps to a recovery:
//!
//! | server says / does            | client does                        |
//! |-------------------------------|------------------------------------|
//! | `Reject(QueueFull)`           | sleep `retry_after` + jitter, retry|
//! | `Reject(StaleEpoch)`          | re-handshake, resend with new epoch|
//! | `Reject(BadBatch)`            | count it quarantined, move on      |
//! | connection refused / dropped  | reconnect with exponential backoff |
//! | ack timeout                   | reconnect, resend unacked          |
//!
//! Batch ids are assigned once, in batch order, *before* any delivery —
//! so retries, reconnects, and even a server restart mid-stream never
//! change which id carries which rows, which is what makes the
//! kill-and-restart chaos run reconverge bit-identically.
//!
//! Fault injection ([`TrialFaults::frame_fault`]) exercises the server's
//! quarantine paths deliberately: truncate/garble frames are *discarded*
//! by the server (ledger: quarantined) and the rows re-delivered
//! cleanly; duplicate/reorder frames are *absorbed* by dedup and
//! last-writer-wins (ledger: handled).

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use tomo_fault::{FaultKindCounts, FrameFaultKind, TrialFaults};
use tomo_obs::LazyCounter;

use crate::wire::{
    read_frame, write_frame, Frame, ProbeBatch, ProbeRow, RejectCode, WireError, WIRE_VERSION,
};

static RECONNECTS: LazyCounter = LazyCounter::new("probe.reconnects");
static QUEUE_FULL: LazyCounter = LazyCounter::new("probe.queue_full_rejects");
static ACKED: LazyCounter = LazyCounter::new("probe.acked");

/// How long to wait for an `Ack` before assuming the connection is dead.
const ACK_TIMEOUT: Duration = Duration::from_secs(2);
/// TCP connect timeout per attempt.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);
/// Base of the exponential reconnect backoff.
const BACKOFF_BASE: Duration = Duration::from_millis(10);
/// Ceiling on one backoff sleep.
const BACKOFF_MAX: Duration = Duration::from_millis(250);
/// Delivery attempts per batch before giving up (each attempt may
/// include a reconnect).
const MAX_ATTEMPTS: u32 = 60;
/// Most unacked batches the client holds for resend at once. Exceeding
/// it is a typed [`ClientError::ResendOverflow`] instead of unbounded
/// buffer growth.
const MAX_UNACKED: usize = 256;

/// Client-side failure (after retries were exhausted).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// Could not (re)connect or deliver within the attempt budget (60
    /// attempts per batch).
    RetriesExhausted {
        /// The batch that could not be delivered.
        batch_id: u64,
    },
    /// The server answered the handshake with something else.
    BadHandshake,
    /// The resend buffer would exceed its cap of 256 unacked batches.
    ResendOverflow {
        /// Unacked batches the delivery needed to hold.
        unacked: usize,
        /// The cap.
        capacity: usize,
    },
    /// An unrecoverable wire error.
    Wire(WireError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::RetriesExhausted { batch_id } => {
                write!(f, "batch {batch_id}: delivery attempts exhausted")
            }
            ClientError::BadHandshake => write!(f, "server handshake was not a HelloAck"),
            ClientError::ResendOverflow { unacked, capacity } => write!(
                f,
                "resend buffer overflow: {unacked} unacked batches exceed the cap of {capacity}"
            ),
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// What one [`ProbeClient::stream`] call observed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamOutcome {
    /// Batches acknowledged durable by the server.
    pub acked: u64,
    /// Batches the server quarantined (`Reject(BadBatch)`).
    pub server_quarantined: u64,
    /// Reconnects performed (including the initial connect retries).
    pub reconnects: u64,
    /// `Reject(QueueFull)` backpressure events honored.
    pub queue_full_rejects: u64,
    /// `Reject(StaleEpoch)` re-handshakes honored.
    pub stale_epoch_rejects: u64,
    /// Wire faults this client injected, by kind.
    pub injected: FaultKindCounts,
    /// Injected faults absorbed by the server's dedup/ordering
    /// (duplicate + reorder).
    pub handled: u64,
    /// Injected faults the server discarded as unusable frames
    /// (truncate + garble), re-delivered cleanly afterwards.
    pub quarantined: u64,
}

impl StreamOutcome {
    /// Adds `other`'s counts into `self` (one client's share into a
    /// fleet's total).
    pub fn merge(&mut self, other: &StreamOutcome) {
        self.acked += other.acked;
        self.server_quarantined += other.server_quarantined;
        self.reconnects += other.reconnects;
        self.queue_full_rejects += other.queue_full_rejects;
        self.stale_epoch_rejects += other.stale_epoch_rejects;
        self.injected.merge(&other.injected);
        self.handled += other.handled;
        self.quarantined += other.quarantined;
    }
}

struct Conn {
    stream: TcpStream,
    epoch: u64,
}

struct Pending {
    batch_id: u64,
    rows: Vec<ProbeRow>,
    acked: bool,
}

/// A probe sender bound to one daemon address.
pub struct ProbeClient {
    addr: SocketAddr,
    rng: ChaCha8Rng,
    conn: Option<Conn>,
    next_batch_id: u64,
    batch_id_stride: u64,
    outcome: StreamOutcome,
}

impl ProbeClient {
    /// Creates a client for the daemon at `addr`. `seed` drives backoff
    /// jitter (and nothing else), keeping sleep sequences reproducible.
    #[must_use]
    pub fn new(addr: SocketAddr, seed: u64) -> Self {
        ProbeClient {
            addr,
            rng: ChaCha8Rng::seed_from_u64(seed),
            conn: None,
            next_batch_id: 0,
            batch_id_stride: 1,
            outcome: StreamOutcome::default(),
        }
    }

    /// Starts batch-id allocation at `id` instead of 0 — used when a new
    /// client continues a stream an earlier client began (e.g. across a
    /// server restart in the chaos sweep), so ids stay globally
    /// monotonic and dedup/last-writer-wins keep working.
    #[must_use]
    pub fn with_start_batch_id(mut self, id: u64) -> Self {
        self.next_batch_id = id;
        self
    }

    /// Advances batch-id allocation by `stride` instead of 1 — client
    /// `c` of `N` concurrent clients uses start id `c` and stride `N`,
    /// so the fleet partitions the global id sequence without
    /// coordination and dedup/last-writer-wins see exactly the ids a
    /// single client would have assigned.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero.
    #[must_use]
    pub fn with_batch_id_stride(mut self, stride: u64) -> Self {
        assert!(stride > 0, "batch id stride must be positive");
        self.batch_id_stride = stride;
        self
    }

    /// The id the next batch will get.
    #[must_use]
    pub fn next_batch_id(&self) -> u64 {
        self.next_batch_id
    }

    /// Cumulative outcome across every delivery so far.
    #[must_use]
    pub fn outcome(&self) -> &StreamOutcome {
        &self.outcome
    }

    /// The epoch of the current connection, if connected.
    #[must_use]
    pub fn epoch(&self) -> Option<u64> {
        self.conn.as_ref().map(|c| c.epoch)
    }

    /// Delivers one clean batch (lockstep: returns once acked).
    ///
    /// # Errors
    ///
    /// [`ClientError::RetriesExhausted`] when the delivery budget runs
    /// out.
    pub fn send_batch(&mut self, rows: Vec<ProbeRow>) -> Result<u64, ClientError> {
        let id = self.alloc_id();
        let mut pending = vec![Pending {
            batch_id: id,
            rows,
            acked: false,
        }];
        self.transact(&mut pending)?;
        Ok(id)
    }

    /// Streams `batches` in order, drawing one wire-fault decision per
    /// batch from `faults` (pass `None` for a clean stream).
    ///
    /// Returns the outcome delta for this call (the cumulative tally
    /// stays available via [`Self::outcome`]).
    ///
    /// # Errors
    ///
    /// [`ClientError::RetriesExhausted`] when a batch cannot be
    /// delivered within the attempt budget.
    pub fn stream(
        &mut self,
        batches: Vec<Vec<ProbeRow>>,
        mut faults: Option<&mut TrialFaults>,
    ) -> Result<StreamOutcome, ClientError> {
        let before = self.outcome.clone();
        // Ids are fixed in batch order before any delivery.
        let mut pending: Vec<Pending> = batches
            .into_iter()
            .map(|rows| Pending {
                batch_id: self.alloc_id(),
                rows,
                acked: false,
            })
            .collect();
        let mut i = 0;
        while i < pending.len() {
            let can_reorder = i + 1 < pending.len();
            let fault = faults
                .as_deref_mut()
                .and_then(|f| f.frame_fault(can_reorder));
            match fault {
                None => {
                    self.transact(&mut pending[i..=i])?;
                    i += 1;
                }
                Some(FrameFaultKind::Truncate) => {
                    self.outcome.injected.frame_truncate += 1;
                    self.outcome.quarantined += 1;
                    self.inject_mangled(&pending[i], Mangle::Truncate);
                    self.transact(&mut pending[i..=i])?;
                    i += 1;
                }
                Some(FrameFaultKind::Garble) => {
                    self.outcome.injected.frame_garble += 1;
                    self.outcome.quarantined += 1;
                    self.inject_mangled(&pending[i], Mangle::GarbleType);
                    self.transact(&mut pending[i..=i])?;
                    i += 1;
                }
                Some(FrameFaultKind::Duplicate) => {
                    self.outcome.injected.frame_duplicate += 1;
                    self.outcome.handled += 1;
                    self.transact(&mut pending[i..=i])?;
                    // Second copy: the server must dedup and re-ack.
                    // The re-ack is not a new delivery, so the acked
                    // tally is restored afterwards.
                    pending[i].acked = false;
                    let acked_before = self.outcome.acked;
                    self.transact(&mut pending[i..=i])?;
                    self.outcome.acked = acked_before;
                    i += 1;
                }
                Some(FrameFaultKind::Reorder) => {
                    self.outcome.injected.frame_reorder += 1;
                    self.outcome.handled += 1;
                    // Deliver the successor first: the server sees the
                    // higher id, then the lower, and must absorb it.
                    pending.swap(i, i + 1);
                    self.transact(&mut pending[i..=i + 1])?;
                    pending.swap(i, i + 1);
                    i += 2;
                }
            }
        }
        Ok(self.outcome_delta(&before))
    }

    /// Streams clean batches in pipelined windows: `window` batches are
    /// written back-to-back and then acked as a block, so the ack round
    /// trip is amortized across the window instead of paid per batch.
    /// Ids are fixed in batch order before any delivery, and the server
    /// applies last-writer-wins by batch id, so the final engine state
    /// is identical to a lockstep [`Self::stream`] of the same batches.
    ///
    /// # Errors
    ///
    /// [`ClientError::ResendOverflow`] when `window` exceeds the 256-batch
    /// resend buffer, and
    /// [`ClientError::RetriesExhausted`] when a window cannot be
    /// delivered within the attempt budget.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn stream_windowed(
        &mut self,
        batches: Vec<Vec<ProbeRow>>,
        window: usize,
    ) -> Result<StreamOutcome, ClientError> {
        assert!(window > 0, "window must be at least 1 batch");
        let before = self.outcome.clone();
        let mut pending: Vec<Pending> = batches
            .into_iter()
            .map(|rows| Pending {
                batch_id: self.alloc_id(),
                rows,
                acked: false,
            })
            .collect();
        let mut lo = 0;
        while lo < pending.len() {
            let hi = (lo + window).min(pending.len());
            self.transact(&mut pending[lo..hi])?;
            lo = hi;
        }
        Ok(self.outcome_delta(&before))
    }

    fn outcome_delta(&self, before: &StreamOutcome) -> StreamOutcome {
        let after = &self.outcome;
        let mut injected = FaultKindCounts::default();
        injected.merge(&after.injected);
        // Per-kind subtraction (counters only grow).
        injected.frame_truncate -= before.injected.frame_truncate;
        injected.frame_garble -= before.injected.frame_garble;
        injected.frame_duplicate -= before.injected.frame_duplicate;
        injected.frame_reorder -= before.injected.frame_reorder;
        StreamOutcome {
            acked: after.acked - before.acked,
            server_quarantined: after.server_quarantined - before.server_quarantined,
            reconnects: after.reconnects - before.reconnects,
            queue_full_rejects: after.queue_full_rejects - before.queue_full_rejects,
            stale_epoch_rejects: after.stale_epoch_rejects - before.stale_epoch_rejects,
            injected,
            handled: after.handled - before.handled,
            quarantined: after.quarantined - before.quarantined,
        }
    }

    fn alloc_id(&mut self) -> u64 {
        let id = self.next_batch_id;
        self.next_batch_id += self.batch_id_stride;
        id
    }

    /// Delivers every batch in `window` (written in slice order) until
    /// all are acked, reconnecting and resending as needed.
    fn transact(&mut self, window: &mut [Pending]) -> Result<(), ClientError> {
        let unacked = window.iter().filter(|p| !p.acked).count();
        if unacked > MAX_UNACKED {
            return Err(ClientError::ResendOverflow {
                unacked,
                capacity: MAX_UNACKED,
            });
        }
        let mut attempts = 0;
        while window.iter().any(|p| !p.acked) {
            attempts += 1;
            if attempts > MAX_ATTEMPTS {
                let batch_id = window.iter().find(|p| !p.acked).map_or(0, |p| p.batch_id);
                return Err(ClientError::RetriesExhausted { batch_id });
            }
            let epoch = match self.ensure_conn() {
                Ok(epoch) => epoch,
                Err(()) => {
                    self.backoff(attempts, None);
                    continue;
                }
            };
            // (Re)send every unacked batch in window order.
            let mut write_ok = true;
            let mut awaiting: BTreeMap<u64, ()> = BTreeMap::new();
            {
                let conn = self.conn.as_mut().expect("ensure_conn succeeded");
                for p in window.iter().filter(|p| !p.acked) {
                    let frame = Frame::Batch(ProbeBatch {
                        batch_id: p.batch_id,
                        epoch,
                        rows: p.rows.clone(),
                    });
                    if write_frame(&mut conn.stream, &frame).is_err() {
                        write_ok = false;
                        break;
                    }
                    awaiting.insert(p.batch_id, ());
                }
            }
            if !write_ok {
                self.drop_conn();
                self.backoff(attempts, None);
                continue;
            }
            // Collect one reply per outstanding batch.
            while !awaiting.is_empty() {
                let conn = self.conn.as_mut().expect("still connected");
                match read_frame(&mut conn.stream) {
                    Ok(Some(Frame::Ack { batch_id, .. })) => {
                        awaiting.remove(&batch_id);
                        if let Some(p) = window.iter_mut().find(|p| p.batch_id == batch_id) {
                            if !p.acked {
                                p.acked = true;
                                self.outcome.acked += 1;
                                ACKED.inc();
                            }
                        }
                    }
                    Ok(Some(Frame::Reject {
                        batch_id,
                        code,
                        retry_after_ms,
                    })) => {
                        awaiting.remove(&batch_id);
                        match code {
                            RejectCode::QueueFull => {
                                self.outcome.queue_full_rejects += 1;
                                QUEUE_FULL.inc();
                                self.backoff(
                                    1,
                                    Some(Duration::from_millis(u64::from(retry_after_ms))),
                                );
                            }
                            RejectCode::StaleEpoch => {
                                self.outcome.stale_epoch_rejects += 1;
                                // Our epoch is from before a restart:
                                // re-handshake and resend.
                                self.drop_conn();
                            }
                            RejectCode::BadBatch => {
                                // Quarantined server-side: resolved, do
                                // not retry.
                                self.outcome.server_quarantined += 1;
                                if let Some(p) = window.iter_mut().find(|p| p.batch_id == batch_id)
                                {
                                    p.acked = true;
                                }
                            }
                        }
                        if self.conn.is_none() {
                            break;
                        }
                    }
                    Ok(Some(_)) | Ok(None) | Err(_) => {
                        // Unexpected frame, hangup, or timeout: the
                        // connection is useless — reconnect and resend.
                        self.drop_conn();
                        break;
                    }
                }
            }
        }
        Ok(())
    }

    /// Writes a deliberately damaged copy of `p`'s frame, then abandons
    /// the connection (the server quarantines the frame; the rows get a
    /// clean delivery afterwards).
    fn inject_mangled(&mut self, p: &Pending, mangle: Mangle) {
        let Ok(epoch) = self.ensure_conn() else {
            // Could not even connect: the fault degenerates to a no-op
            // on the wire, but the clean re-delivery still follows.
            return;
        };
        let frame = Frame::Batch(ProbeBatch {
            batch_id: p.batch_id,
            epoch,
            rows: p.rows.clone(),
        });
        let mut bytes = frame.encode();
        let conn = self.conn.as_mut().expect("ensure_conn succeeded");
        let write = match mangle {
            Mangle::Truncate => {
                // All but the last byte: the server is left mid-frame.
                use std::io::Write;
                conn.stream.write_all(&bytes[..bytes.len() - 1])
            }
            Mangle::GarbleType => {
                // Flip the type byte: guaranteed UnknownFrameType.
                bytes[4] ^= 0xFF;
                use std::io::Write;
                conn.stream.write_all(&bytes)
            }
        };
        let _ = write.and_then(|()| {
            use std::io::Write;
            conn.stream.flush()
        });
        // Either way the server will (or we must) drop this connection.
        self.drop_conn();
    }

    /// Ensures a live, handshaken connection; returns the epoch.
    fn ensure_conn(&mut self) -> Result<u64, ()> {
        if let Some(conn) = &self.conn {
            return Ok(conn.epoch);
        }
        let stream = TcpStream::connect_timeout(&self.addr, CONNECT_TIMEOUT).map_err(|_| ())?;
        // Frames are small; without TCP_NODELAY a pipelined window
        // stalls on Nagle waiting for the peer's delayed ACK.
        stream.set_nodelay(true).map_err(|_| ())?;
        stream.set_read_timeout(Some(ACK_TIMEOUT)).map_err(|_| ())?;
        stream
            .set_write_timeout(Some(ACK_TIMEOUT))
            .map_err(|_| ())?;
        let mut stream = stream;
        write_frame(
            &mut stream,
            &Frame::Hello {
                version: WIRE_VERSION,
            },
        )
        .map_err(|_| ())?;
        match read_frame(&mut stream) {
            Ok(Some(Frame::HelloAck { epoch, .. })) => {
                self.outcome.reconnects += 1;
                RECONNECTS.inc();
                self.conn = Some(Conn { stream, epoch });
                Ok(epoch)
            }
            _ => Err(()),
        }
    }

    fn drop_conn(&mut self) {
        self.conn = None;
    }

    /// Sleeps `hint` (when the server gave one) or an exponentially
    /// growing, jittered backoff.
    fn backoff(&mut self, attempt: u32, hint: Option<Duration>) {
        let base = match hint {
            Some(h) => h,
            None => BACKOFF_BASE
                .saturating_mul(1u32 << attempt.min(8))
                .min(BACKOFF_MAX),
        };
        let jitter_ms = self.rng.gen_range(0..=base.as_millis().max(1) as u64 / 2);
        std::thread::sleep(base + Duration::from_millis(jitter_ms));
    }
}

enum Mangle {
    Truncate,
    GarbleType,
}
