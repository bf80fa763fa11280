//! The online estimation engine behind the daemon.
//!
//! State is a per-path *slot* table — the latest measured value for each
//! routing-matrix row plus the batch id that wrote it — maintained under
//! **last-writer-wins by batch id**. Batch ids are assigned
//! monotonically by the sender, so the slot table (and everything
//! derived from it) is a pure function of the *set* of applied batches,
//! independent of arrival order. That is what makes duplicate and
//! reordered frames harmless, and what makes journal replay after a
//! crash reconverge to bit-identical state.
//!
//! Queries answer from the slot table with one detector call per answer
//! ([`ConsistencyDetector::inspect_degraded`]), whose verdict carries the
//! estimate it judged: full path coverage estimates via the system's
//! cached normal-equations factor, partial coverage refactors the
//! covered rows through [`TomographySystem::solve_degraded`] (ridge
//! fallback on rank collapse) so the daemon keeps answering while
//! probes are missing. The daemon answers from published snapshots
//! (`snapshot.rs`), which solve at most once per publish;
//! [`Engine::query`] answers the current state the same way, uncached.

use std::collections::BTreeSet;

use tomo_core::{CoreError, TomographySystem};
use tomo_detect::{ConsistencyDetector, Verdict};
use tomo_linalg::Vector;
use tomo_obs::LazyCounter;

use crate::wire::{ProbeBatch, SnapshotState};

static APPLIED: LazyCounter = LazyCounter::new("serve.engine.applied");
static DEDUPED: LazyCounter = LazyCounter::new("serve.engine.deduped");
static REORDERED: LazyCounter = LazyCounter::new("serve.engine.reordered");
static QUARANTINED: LazyCounter = LazyCounter::new("serve.engine.quarantined");
static STALE: LazyCounter = LazyCounter::new("serve.engine.stale");
static SOLVES: LazyCounter = LazyCounter::new("serve.engine.solves");

/// Why a batch was quarantined instead of applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchFault {
    /// A row named a path index outside the routing matrix.
    PathOutOfRange {
        /// The offending index.
        path: u32,
    },
    /// A row carried a NaN or infinite reading.
    NonFiniteValue {
        /// The offending path.
        path: u32,
    },
}

/// The engine's decision for one ingested batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyOutcome {
    /// Applied to the slot table. `reordered` is `true` when the batch
    /// arrived after a higher id had already been applied.
    Applied {
        /// Out-of-order arrival was observed (and absorbed).
        reordered: bool,
    },
    /// Already applied — acknowledged again, state untouched.
    Duplicate,
    /// The batch's epoch predates the current session.
    StaleEpoch,
    /// The batch was unusable and discarded.
    Quarantined(BatchFault),
}

/// Cumulative engine counters (mirrored as `serve.engine.*` metrics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Batches applied to the slot table.
    pub applied: u64,
    /// Duplicate batches absorbed by dedup.
    pub deduped: u64,
    /// Out-of-order arrivals absorbed by last-writer-wins.
    pub reordered: u64,
    /// Batches quarantined (non-finite value / bad path).
    pub quarantined: u64,
    /// Batches refused for carrying a stale epoch.
    pub stale_epoch: u64,
}

/// One query answer: the estimate and verdict for one slot state.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryAnswer {
    /// Session epoch at answer time.
    pub epoch: u64,
    /// Paths with a measurement in their slot.
    pub coverage: usize,
    /// Total paths in the routing matrix.
    pub num_paths: usize,
    /// The link-state estimate `x̂`, as exact `f64::to_bits` values (the
    /// serve-chaos byte-identity comparison consumes these).
    pub estimate_bits: Vec<u64>,
    /// The Eq. 23 (+ plausibility) detection verdict over the covered
    /// rows.
    pub verdict: Verdict,
    /// `true` when the answer came from the degraded (partial-coverage)
    /// path.
    pub degraded: bool,
    /// Rank of the covered routing submatrix.
    pub rank: usize,
    /// Whether the degraded solve fell back to ridge regularization.
    pub used_ridge: bool,
    /// Links unidentifiable under the current coverage.
    pub unidentifiable: usize,
}

/// Why a query could not be answered. `Clone` so a snapshot can cache
/// the outcome once and hand copies to every reader.
#[derive(Debug, Clone)]
pub enum QueryError {
    /// No path has reported a measurement yet.
    NoCoverage,
    /// The underlying solve failed.
    Core(CoreError),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::NoCoverage => write!(f, "no measurements ingested yet"),
            QueryError::Core(e) => write!(f, "estimation failed: {e}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<CoreError> for QueryError {
    fn from(e: CoreError) -> Self {
        QueryError::Core(e)
    }
}

/// Solves one estimate/verdict answer from a covered-slot view: the
/// body of [`EngineSnapshot::answer`](crate::snapshot::EngineSnapshot::answer).
///
/// `covered` lists the paths holding a measurement (ascending) and
/// `values` their readings, parallel to `covered`.
pub(crate) fn solve_answer(
    system: &TomographySystem,
    detector: ConsistencyDetector,
    covered: &[usize],
    values: &[f64],
    epoch: u64,
    num_paths: usize,
) -> Result<QueryAnswer, QueryError> {
    SOLVES.inc();
    let y = Vector::from(values.to_vec());
    let judged = detector.inspect_degraded(system, covered, &y)?;
    Ok(QueryAnswer {
        epoch,
        coverage: covered.len(),
        num_paths,
        estimate_bits: judged.estimate.iter().map(|v| v.to_bits()).collect(),
        verdict: judged.verdict,
        degraded: judged.degraded,
        rank: judged.rank,
        used_ridge: judged.used_ridge,
        unidentifiable: judged.unidentifiable.len(),
    })
}

/// The daemon's estimation state, owned by the apply worker. Queries
/// read the snapshots it publishes.
pub struct Engine {
    system: std::sync::Arc<TomographySystem>,
    detector: ConsistencyDetector,
    epoch: u64,
    /// Every batch id below this has been applied.
    watermark: u64,
    /// Applied ids at/above the watermark (holes from reordering).
    applied_above: BTreeSet<u64>,
    /// Highest applied id, for reorder detection.
    max_applied: Option<u64>,
    /// Per-path `(value_bits, writer_batch_id)`.
    slots: Vec<Option<(u64, u64)>>,
    stats: EngineStats,
}

impl Engine {
    /// Creates an empty engine over `system`, judged by `detector`.
    #[must_use]
    pub fn new(system: std::sync::Arc<TomographySystem>, detector: ConsistencyDetector) -> Self {
        let num_paths = system.num_paths();
        Engine {
            system,
            detector,
            epoch: 0,
            watermark: 0,
            applied_above: BTreeSet::new(),
            max_applied: None,
            slots: vec![None; num_paths],
            stats: EngineStats::default(),
        }
    }

    /// The system being estimated.
    #[must_use]
    pub fn system(&self) -> &TomographySystem {
        &self.system
    }

    /// Current session epoch.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Begins a new session epoch (on daemon start and restart).
    pub fn bump_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Paths currently holding a measurement.
    #[must_use]
    pub fn coverage(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Cumulative counters.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// `true` once `batch_id` has been applied (in any epoch).
    #[must_use]
    pub fn is_applied(&self, batch_id: u64) -> bool {
        batch_id < self.watermark || self.applied_above.contains(&batch_id)
    }

    /// Non-mutating admission check: `true` iff [`Engine::apply`] would
    /// return `Applied` for `batch` right now (not stale, not a
    /// duplicate, every row in range and finite). The apply worker uses
    /// this to journal admitted batches *before* applying them, so a
    /// batch is never applied in memory without being durable first.
    #[must_use]
    pub fn admits(&self, batch: &ProbeBatch) -> bool {
        batch.epoch >= self.epoch
            && !self.is_applied(batch.batch_id)
            && batch
                .rows
                .iter()
                .all(|row| (row.path as usize) < self.slots.len() && row.value().is_finite())
    }

    /// Validates and applies one batch. Never panics; every unusable
    /// input maps to a non-`Applied` outcome.
    pub fn apply(&mut self, batch: &ProbeBatch) -> ApplyOutcome {
        if batch.epoch < self.epoch {
            self.stats.stale_epoch += 1;
            STALE.inc();
            return ApplyOutcome::StaleEpoch;
        }
        if self.is_applied(batch.batch_id) {
            self.stats.deduped += 1;
            DEDUPED.inc();
            return ApplyOutcome::Duplicate;
        }
        // Validate before mutating: a quarantined batch leaves no trace.
        for row in &batch.rows {
            if (row.path as usize) >= self.slots.len() {
                self.stats.quarantined += 1;
                QUARANTINED.inc();
                return ApplyOutcome::Quarantined(BatchFault::PathOutOfRange { path: row.path });
            }
            if !row.value().is_finite() {
                self.stats.quarantined += 1;
                QUARANTINED.inc();
                return ApplyOutcome::Quarantined(BatchFault::NonFiniteValue { path: row.path });
            }
        }
        let reordered = self.max_applied.is_some_and(|max| batch.batch_id < max);
        for row in &batch.rows {
            let slot = &mut self.slots[row.path as usize];
            // Last-writer-wins by id: an out-of-order older batch never
            // clobbers a newer reading.
            if slot.is_none_or(|(_, writer)| writer <= batch.batch_id) {
                *slot = Some((row.value_bits, batch.batch_id));
            }
        }
        self.mark_applied(batch.batch_id);
        self.max_applied = Some(
            self.max_applied
                .map_or(batch.batch_id, |m| m.max(batch.batch_id)),
        );
        self.stats.applied += 1;
        APPLIED.inc();
        if reordered {
            self.stats.reordered += 1;
            REORDERED.inc();
        }
        ApplyOutcome::Applied { reordered }
    }

    fn mark_applied(&mut self, batch_id: u64) {
        self.applied_above.insert(batch_id);
        while self.applied_above.remove(&self.watermark) {
            self.watermark += 1;
        }
    }

    /// Answers a link-state / detection query from the slot table,
    /// through the same snapshot solve the daemon's readers use. Each
    /// call solves afresh.
    ///
    /// # Errors
    ///
    /// [`QueryError::NoCoverage`] before the first measurement;
    /// [`QueryError::Core`] if the solve itself fails.
    pub fn query(&self) -> Result<QueryAnswer, QueryError> {
        self.published_view(0).answer()
    }

    /// Freezes the engine's observable state into an immutable snapshot
    /// for the snapshot query path. Called by the apply worker after a
    /// drain burst; `version` is the publish counter.
    #[must_use]
    pub fn published_view(&self, version: u64) -> crate::snapshot::EngineSnapshot {
        let mut covered = Vec::new();
        let mut values_bits = Vec::new();
        for (i, slot) in self.slots.iter().enumerate() {
            if let Some((bits, _)) = slot {
                covered.push(i);
                values_bits.push(*bits);
            }
        }
        crate::snapshot::EngineSnapshot::new(
            version,
            self.epoch,
            self.watermark,
            self.slots.len(),
            covered,
            values_bits,
            self.stats,
            std::sync::Arc::clone(&self.system),
            self.detector,
        )
    }

    /// Captures the full engine state for a journal snapshot frame.
    #[must_use]
    pub fn snapshot(&self) -> SnapshotState {
        SnapshotState {
            epoch: self.epoch,
            watermark: self.watermark,
            applied_above: self.applied_above.iter().copied().collect(),
            slots: self
                .slots
                .iter()
                .enumerate()
                .filter_map(|(i, s)| {
                    s.map(|(bits, writer)| (u32::try_from(i).expect("path fits u32"), bits, writer))
                })
                .collect(),
        }
    }

    /// Resets the engine to a journal snapshot (replay fast-forward).
    pub fn restore(&mut self, snap: &SnapshotState) {
        self.epoch = snap.epoch;
        self.watermark = snap.watermark;
        self.applied_above = snap.applied_above.iter().copied().collect();
        self.max_applied = snap
            .applied_above
            .iter()
            .max()
            .copied()
            .or(snap.watermark.checked_sub(1));
        self.slots = vec![None; self.slots.len()];
        for &(path, bits, writer) in &snap.slots {
            if let Some(slot) = self.slots.get_mut(path as usize) {
                *slot = Some((bits, writer));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::ProbeRow;
    use tomo_core::fig1;

    fn engine() -> Engine {
        let system = std::sync::Arc::new(fig1::fig1_system().expect("fig1 builds"));
        Engine::new(system, ConsistencyDetector::recommended())
    }

    fn full_batch(id: u64, epoch: u64, base: f64, n: usize) -> ProbeBatch {
        ProbeBatch {
            batch_id: id,
            epoch,
            rows: (0..n)
                .map(|i| ProbeRow::new(u32::try_from(i).unwrap(), base + i as f64))
                .collect(),
        }
    }

    #[test]
    fn applies_and_answers_full_coverage() {
        let mut e = engine();
        let n = e.system().num_paths();
        // A consistent measurement: y = R x for a known x.
        let x = Vector::filled(e.system().num_links(), 10.0);
        let y = e.system().measure(&x).unwrap();
        let batch = ProbeBatch {
            batch_id: 0,
            epoch: 0,
            rows: y
                .iter()
                .enumerate()
                .map(|(i, &v)| ProbeRow::new(u32::try_from(i).unwrap(), v))
                .collect(),
        };
        assert_eq!(e.apply(&batch), ApplyOutcome::Applied { reordered: false });
        assert_eq!(e.coverage(), n);
        let a = e.query().unwrap();
        assert!(!a.degraded);
        assert!(!a.verdict.detected, "consistent y must not trip Eq. 23");
        assert!(a.verdict.residual_l1 < 1e-6);
        let est: Vec<f64> = a.estimate_bits.iter().map(|&b| f64::from_bits(b)).collect();
        for v in est {
            assert!((v - 10.0).abs() < 1e-8);
        }
    }

    #[test]
    fn partial_coverage_degrades_gracefully() {
        let mut e = engine();
        let n = e.system().num_paths();
        let x = Vector::filled(e.system().num_links(), 5.0);
        let y = e.system().measure(&x).unwrap();
        // Cover all but the last two paths.
        let batch = ProbeBatch {
            batch_id: 0,
            epoch: 0,
            rows: (0..n - 2)
                .map(|i| ProbeRow::new(u32::try_from(i).unwrap(), y[i]))
                .collect(),
        };
        assert!(matches!(e.apply(&batch), ApplyOutcome::Applied { .. }));
        let a = e.query().unwrap();
        assert!(a.degraded);
        assert_eq!(a.coverage, n - 2);
        assert!(!a.verdict.detected);
    }

    #[test]
    fn no_coverage_is_a_typed_error() {
        let e = engine();
        assert!(matches!(e.query(), Err(QueryError::NoCoverage)));
    }

    #[test]
    fn duplicates_dedup_and_stale_epochs_refuse() {
        let mut e = engine();
        e.bump_epoch(2);
        let b = full_batch(0, 2, 1.0, 3);
        assert!(matches!(e.apply(&b), ApplyOutcome::Applied { .. }));
        assert_eq!(e.apply(&b), ApplyOutcome::Duplicate);
        let old = full_batch(1, 1, 1.0, 3);
        assert_eq!(e.apply(&old), ApplyOutcome::StaleEpoch);
        assert_eq!(e.stats().deduped, 1);
        assert_eq!(e.stats().stale_epoch, 1);
    }

    #[test]
    fn non_finite_and_bad_path_quarantine_without_trace() {
        let mut e = engine();
        let nan = ProbeBatch {
            batch_id: 0,
            epoch: 0,
            rows: vec![ProbeRow::new(0, 1.0), ProbeRow::new(1, f64::NAN)],
        };
        assert!(matches!(
            e.apply(&nan),
            ApplyOutcome::Quarantined(BatchFault::NonFiniteValue { path: 1 })
        ));
        // The valid first row must NOT have been applied.
        assert_eq!(e.coverage(), 0);
        assert!(!e.is_applied(0), "quarantined ids stay unapplied");
        let oob = ProbeBatch {
            batch_id: 1,
            epoch: 0,
            rows: vec![ProbeRow::new(9999, 1.0)],
        };
        assert!(matches!(
            e.apply(&oob),
            ApplyOutcome::Quarantined(BatchFault::PathOutOfRange { path: 9999 })
        ));
        assert_eq!(e.stats().quarantined, 2);
    }

    #[test]
    fn admits_agrees_with_apply_and_never_mutates() {
        let mut e = engine();
        e.bump_epoch(2);
        let good = full_batch(0, 2, 1.0, 3);
        assert!(e.admits(&good));
        assert!(matches!(e.apply(&good), ApplyOutcome::Applied { .. }));
        assert!(!e.admits(&good), "duplicates are not admitted");
        assert!(!e.admits(&full_batch(1, 1, 1.0, 3)), "stale epoch");
        let nan = ProbeBatch {
            batch_id: 2,
            epoch: 2,
            rows: vec![ProbeRow::new(0, f64::NAN)],
        };
        assert!(!e.admits(&nan), "non-finite row");
        let oob = ProbeBatch {
            batch_id: 3,
            epoch: 2,
            rows: vec![ProbeRow::new(9999, 1.0)],
        };
        assert!(!e.admits(&oob), "out-of-range path");
        let stats = e.stats();
        assert_eq!(
            (
                stats.applied,
                stats.deduped,
                stats.stale_epoch,
                stats.quarantined
            ),
            (1, 0, 0, 0),
            "admits leaves stats untouched"
        );
    }

    #[test]
    fn arrival_order_does_not_matter() {
        // Apply {0,1,2} in order vs. {0,2,1}: identical slots.
        let batches: Vec<ProbeBatch> = (0..3u64)
            .map(|id| full_batch(id, 0, id as f64 * 100.0, 5))
            .collect();
        let mut in_order = engine();
        for b in &batches {
            in_order.apply(b);
        }
        let mut reordered = engine();
        reordered.apply(&batches[0]);
        assert_eq!(
            reordered.apply(&batches[2]),
            ApplyOutcome::Applied { reordered: false }
        );
        assert_eq!(
            reordered.apply(&batches[1]),
            ApplyOutcome::Applied { reordered: true }
        );
        assert_eq!(in_order.snapshot(), reordered.snapshot());
        assert_eq!(reordered.stats().reordered, 1);
    }

    #[test]
    fn snapshot_restore_round_trips() {
        let mut e = engine();
        e.bump_epoch(3);
        e.apply(&full_batch(0, 3, 1.0, 4));
        e.apply(&full_batch(2, 3, 2.0, 4)); // leaves a hole at id 1
        let snap = e.snapshot();
        let mut fresh = engine();
        fresh.restore(&snap);
        assert_eq!(fresh.snapshot(), snap);
        assert_eq!(fresh.epoch(), 3);
        assert!(fresh.is_applied(0) && fresh.is_applied(2) && !fresh.is_applied(1));
        // The hole closes identically after restore.
        fresh.apply(&full_batch(1, 3, 9.0, 4));
        e.apply(&full_batch(1, 3, 9.0, 4));
        assert_eq!(fresh.snapshot(), e.snapshot());
    }

    #[test]
    fn published_view_answers_bit_identical_to_query() {
        let mut e = engine();
        let n = e.system().num_paths();
        // Partial coverage, so the degraded path is exercised too.
        let x = Vector::filled(e.system().num_links(), 7.0);
        let y = e.system().measure(&x).unwrap();
        let batch = ProbeBatch {
            batch_id: 0,
            epoch: 0,
            rows: (0..n - 1)
                .map(|i| ProbeRow::new(u32::try_from(i).unwrap(), y[i]))
                .collect(),
        };
        assert!(matches!(e.apply(&batch), ApplyOutcome::Applied { .. }));
        let view = e.published_view(1);
        let from_snapshot = view.answer().unwrap();
        let from_engine = e.query().unwrap();
        assert_eq!(from_snapshot, from_engine);
        assert_eq!(view.watermark(), 1);
        assert_eq!(view.coverage(), n - 1);
        assert!(view.self_check());
    }

    #[test]
    fn query_tracks_the_latest_apply() {
        let mut e = engine();
        let n = e.system().num_paths();
        e.apply(&full_batch(0, 0, 10.0, n));
        let a1 = e.query().unwrap();
        assert_eq!(e.query().unwrap(), a1, "same state, same answer");
        e.apply(&full_batch(1, 0, 20.0, n));
        let a2 = e.query().unwrap();
        assert_ne!(a1.estimate_bits, a2.estimate_bits);
    }
}
