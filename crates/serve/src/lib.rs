//! `tomo-serve`: a fault-tolerant streaming tomography daemon.
//!
//! The offline pipeline (`tomo-sim`) answers "what would the detector
//! say about this trial"; this crate answers it *continuously*, for a
//! stream of probe measurements arriving over the network, with bounded
//! query latency and crash-safe state:
//!
//! * [`wire`] — the zero-dependency length-prefixed TCP protocol
//!   (`len:u32 | type:u8 | body`), with typed errors for every
//!   malformed-input shape an adversarial peer can produce.
//! * [`queue`] — the bounded ingest queue: one FIFO,
//!   [`queue::IngestQueue`], between the connection handlers and the
//!   apply worker; at capacity the daemon says `Reject(QueueFull)` with
//!   an adaptive retry hint instead of buffering without bound.
//! * [`engine`] — the online estimator state: last-writer-wins slot
//!   table answered through the detector's degraded-coverage path,
//!   dedup watermark, quarantine of non-finite or out-of-range rows.
//! * [`snapshot`] — the query path: immutable
//!   [`snapshot::EngineSnapshot`]s published through one
//!   [`snapshot::SnapshotStore`] cell, so queries never wait on ingest.
//! * [`topology`] — builds the daemon's tomography system from a
//!   Rocketfuel `.cch` / edge-list file (`tomo-serve --topology`).
//! * [`journal`] — append-only crash-safe log of applied batches with
//!   periodic snapshots; journal-before-ack makes acked data durable.
//! * [`server`] — the daemon proper: ingest acceptor with per-frame
//!   deadlines, single apply worker, HTTP/1.1 query front
//!   (`/state`, `/verdict`, `/stats`, `/healthz`, `/readyz`).
//! * [`client`] — the `tomo-probe` side: lockstep delivery with
//!   jittered exponential backoff and deliberate wire-fault injection
//!   for chaos runs.
//! * [`bench`](mod@bench) — the ingest-throughput / query-latency workload behind
//!   `BENCH_serve.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod client;
pub mod engine;
pub mod journal;
pub mod queue;
pub mod server;
pub mod snapshot;
pub mod topology;
pub mod wire;

pub use client::{ClientConfig, ClientError, ProbeClient, StreamOutcome};
pub use engine::{ApplyOutcome, BatchFault, Engine, EngineStats, QueryAnswer, QueryError};
pub use journal::{Journal, Replay};
pub use queue::{IngestQueue, Pop, QueueFull, QueueStats};
pub use server::{IngestCounters, ServeConfig, Server};
pub use snapshot::{EngineSnapshot, SnapshotStore};
pub use topology::{load_system, TopologyError};
pub use wire::{
    read_frame, write_frame, Frame, ProbeBatch, ProbeRow, RejectCode, SnapshotState, WireError,
    MAX_FRAME_LEN, WIRE_VERSION,
};
