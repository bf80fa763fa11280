//! The query path: immutable engine snapshots behind one publish cell.
//!
//! After a drain burst the apply worker freezes the engine's observable
//! state into an immutable [`EngineSnapshot`] and publishes it through
//! the [`SnapshotStore`]; `/state`, `/verdict`, `/stats` and in-process
//! queries clone the current `Arc` and never touch the engine. The store
//! is one `Mutex<Arc<EngineSnapshot>>` held only long enough to swap or
//! clone a pointer, so a query never waits on an apply, a journal write
//! or a solve. The `Arc` swaps whole, so every field a reader sees
//! (estimate inputs, verdict, stats, watermark) comes from one publish,
//! and with a single publisher the versions any reader observes never
//! go backwards.
//!
//! **Lazy solves.** The snapshot carries the covered slot values, not a
//! precomputed estimate: the first reader that asks for
//! [`EngineSnapshot::answer`] runs the solve once into a [`OnceLock`]
//! and every later reader shares it. Ingest therefore never pays for a
//! solve, and a query burst between publishes costs one solve total.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use tomo_core::TomographySystem;
use tomo_detect::ConsistencyDetector;

use crate::engine::{solve_answer, EngineStats, QueryAnswer, QueryError};

/// An immutable, internally consistent view of the engine, frozen by
/// the apply worker at publish time.
pub struct EngineSnapshot {
    /// Publish counter: strictly increasing across publishes.
    version: u64,
    /// Session epoch at publish time.
    epoch: u64,
    /// Every batch id below this had been applied.
    watermark: u64,
    /// Total paths in the routing matrix.
    num_paths: usize,
    /// Paths holding a measurement, ascending.
    covered: Vec<usize>,
    /// `f64::to_bits` slot values, parallel to `covered`.
    values_bits: Vec<u64>,
    /// Engine counters at publish time.
    stats: EngineStats,
    /// FNV-1a over `(epoch, watermark, covered, values_bits, stats)`,
    /// written at publish time so readers can verify the fields they
    /// see came from one publish (the consistency proptest's oracle).
    digest: u64,
    system: Arc<TomographySystem>,
    detector: ConsistencyDetector,
    /// The solve, run at most once per snapshot by the first reader
    /// that asks.
    answer: OnceLock<Result<QueryAnswer, QueryError>>,
}

impl EngineSnapshot {
    /// Freezes one published view. Called by the apply worker (and the
    /// engine's `published_view`); readers only consume.
    #[must_use]
    #[allow(clippy::too_many_arguments)] // freezes every published engine field at once
    pub fn new(
        version: u64,
        epoch: u64,
        watermark: u64,
        num_paths: usize,
        covered: Vec<usize>,
        values_bits: Vec<u64>,
        stats: EngineStats,
        system: Arc<TomographySystem>,
        detector: ConsistencyDetector,
    ) -> Self {
        let digest = digest_fields(epoch, watermark, &covered, &values_bits, &stats);
        EngineSnapshot {
            version,
            epoch,
            watermark,
            num_paths,
            covered,
            values_bits,
            stats,
            digest,
            system,
            detector,
            answer: OnceLock::new(),
        }
    }

    /// Publish counter (strictly increasing across publishes).
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Session epoch at publish time.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Applied-batch watermark at publish time.
    #[must_use]
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Paths holding a measurement at publish time.
    #[must_use]
    pub fn coverage(&self) -> usize {
        self.covered.len()
    }

    /// Total paths in the routing matrix.
    #[must_use]
    pub fn num_paths(&self) -> usize {
        self.num_paths
    }

    /// Engine counters at publish time.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// The system this snapshot estimates.
    #[must_use]
    pub fn system(&self) -> &TomographySystem {
        &self.system
    }

    /// The estimate/verdict answer for this snapshot's slot state,
    /// solved at most once (the first caller pays, everyone shares).
    ///
    /// # Errors
    ///
    /// [`QueryError::NoCoverage`] before the first measurement;
    /// [`QueryError::Core`] if the solve fails.
    pub fn answer(&self) -> Result<QueryAnswer, QueryError> {
        if self.covered.is_empty() {
            return Err(QueryError::NoCoverage);
        }
        self.answer
            .get_or_init(|| {
                let values: Vec<f64> = self
                    .values_bits
                    .iter()
                    .map(|&b| f64::from_bits(b))
                    .collect();
                solve_answer(
                    &self.system,
                    self.detector,
                    &self.covered,
                    &values,
                    self.epoch,
                    self.num_paths,
                )
            })
            .clone()
    }

    /// Verifies the snapshot's fields still hash to the digest written
    /// at publish time, and that a solved answer (if any) agrees with
    /// them. A torn read — fields mixed across two publishes — would
    /// fail this check; the consistency proptest asserts it never does.
    #[must_use]
    pub fn self_check(&self) -> bool {
        let fields_ok = digest_fields(
            self.epoch,
            self.watermark,
            &self.covered,
            &self.values_bits,
            &self.stats,
        ) == self.digest;
        let answer_ok = match self.answer.get() {
            Some(Ok(a)) => a.epoch == self.epoch && a.coverage == self.covered.len(),
            Some(Err(_)) | None => true,
        };
        fields_ok && answer_ok
    }
}

impl std::fmt::Debug for EngineSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineSnapshot")
            .field("version", &self.version)
            .field("epoch", &self.epoch)
            .field("watermark", &self.watermark)
            .field("coverage", &self.covered.len())
            .field("num_paths", &self.num_paths)
            .finish_non_exhaustive()
    }
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn digest_fields(
    epoch: u64,
    watermark: u64,
    covered: &[usize],
    values_bits: &[u64],
    stats: &EngineStats,
) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    fnv1a(&mut h, &epoch.to_le_bytes());
    fnv1a(&mut h, &watermark.to_le_bytes());
    for &c in covered {
        fnv1a(&mut h, &(c as u64).to_le_bytes());
    }
    for &v in values_bits {
        fnv1a(&mut h, &v.to_le_bytes());
    }
    for s in [
        stats.applied,
        stats.deduped,
        stats.reordered,
        stats.quarantined,
        stats.stale_epoch,
    ] {
        fnv1a(&mut h, &s.to_le_bytes());
    }
    h
}

/// The publish cell: one publisher (the apply worker), any number of
/// readers.
pub struct SnapshotStore {
    current: Mutex<Arc<EngineSnapshot>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl SnapshotStore {
    /// Creates a store whose readers see `initial` until the first
    /// publish.
    #[must_use]
    pub fn new(initial: EngineSnapshot) -> Self {
        SnapshotStore {
            current: Mutex::new(Arc::new(initial)),
        }
    }

    /// Makes `snapshot` the one readers load. The replaced snapshot is
    /// dropped after the lock is released, so freeing it never delays a
    /// reader.
    pub fn publish(&self, snapshot: EngineSnapshot) {
        let next = Arc::new(snapshot);
        let previous = std::mem::replace(&mut *lock(&self.current), next);
        drop(previous);
    }

    /// The latest published snapshot.
    #[must_use]
    pub fn load(&self) -> Arc<EngineSnapshot> {
        Arc::clone(&lock(&self.current))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use tomo_core::fig1::fig1_system;

    fn snap(version: u64, epoch: u64) -> EngineSnapshot {
        let system = Arc::new(fig1_system().expect("fig1 builds"));
        let n = system.num_paths();
        EngineSnapshot::new(
            version,
            epoch,
            0,
            n,
            Vec::new(),
            Vec::new(),
            EngineStats::default(),
            system,
            ConsistencyDetector::recommended(),
        )
    }

    #[test]
    fn load_returns_latest_publish() {
        let store = SnapshotStore::new(snap(0, 1));
        assert_eq!(store.load().version(), 0);
        store.publish(snap(1, 1));
        assert_eq!(store.load().version(), 1);
        store.publish(snap(2, 1));
        store.publish(snap(3, 1));
        assert_eq!(store.load().version(), 3);
    }

    #[test]
    fn old_handles_stay_valid_after_publishes() {
        let store = SnapshotStore::new(snap(0, 1));
        let old = store.load();
        for v in 1..10 {
            store.publish(snap(v, 1));
        }
        // The reader's Arc pins the old snapshot; it is unchanged.
        assert_eq!(old.version(), 0);
        assert!(old.self_check());
        assert_eq!(store.load().version(), 9);
    }

    #[test]
    fn empty_snapshot_answers_no_coverage() {
        let s = snap(0, 1);
        assert!(matches!(s.answer(), Err(QueryError::NoCoverage)));
        assert!(s.self_check());
    }

    #[test]
    fn full_coverage_snapshot_solves_once_and_checks() {
        let system = Arc::new(fig1_system().expect("fig1 builds"));
        let n = system.num_paths();
        let x = tomo_linalg::Vector::filled(system.num_links(), 10.0);
        let y = system.measure(&x).expect("measure");
        let covered: Vec<usize> = (0..n).collect();
        let bits: Vec<u64> = (0..n).map(|i| y[i].to_bits()).collect();
        let s = EngineSnapshot::new(
            5,
            2,
            1,
            n,
            covered,
            bits,
            EngineStats {
                applied: 1,
                ..EngineStats::default()
            },
            system,
            ConsistencyDetector::recommended(),
        );
        let a1 = s.answer().expect("solves");
        let a2 = s.answer().expect("cached");
        assert_eq!(a1, a2);
        assert_eq!(a1.epoch, 2);
        assert_eq!(a1.coverage, n);
        assert!(!a1.verdict.detected);
        assert!(s.self_check());
    }

    #[test]
    fn readers_see_monotonic_versions_under_publish_churn() {
        let store = Arc::new(SnapshotStore::new(snap(0, 1)));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let store = Arc::clone(&store);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    let mut reads = 0u64;
                    while !stop.load(Ordering::Acquire) {
                        let s = store.load();
                        assert!(s.version() >= last, "version went backwards");
                        assert!(s.self_check());
                        last = s.version();
                        reads += 1;
                    }
                    reads
                })
            })
            .collect();
        for v in 1..=500 {
            store.publish(snap(v, 1));
        }
        stop.store(true, Ordering::Release);
        for r in readers {
            assert!(r.join().expect("reader joins") > 0);
        }
        assert_eq!(store.load().version(), 500);
    }
}
