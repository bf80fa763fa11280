//! The trace journal's accounting, in its own test binary: the journal
//! and the tracing switch are process-global, so these tests serialize
//! on one lock and nothing else in the binary records.
//!
//! Both tests expect `TOMO_TRACE_CAP` to be unset, so the journal holds
//! `DEFAULT_JOURNAL_CAPACITY` events.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex, MutexGuard, PoisonError};

use tomo_obs::{JournalSnapshot, TraceEvent, TrialProvenance, DEFAULT_JOURNAL_CAPACITY};

fn exclusive_tracing() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    let guard = GUARD.lock().unwrap_or_else(PoisonError::into_inner);
    tomo_obs::reset_journal();
    tomo_obs::set_tracing(true);
    guard
}

/// Raises the writer's stop flag even when an assertion unwinds, so a
/// failing test fails instead of hanging in the scope's join.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// The trial indices of a journal holding only provenance records.
fn trials(snap: &JournalSnapshot) -> Vec<u64> {
    snap.events
        .iter()
        .map(|e| match e {
            TraceEvent::Trial { provenance, .. } => provenance.trial,
            TraceEvent::Span { .. } => panic!("no spans were opened: {e:?}"),
        })
        .collect()
}

/// A snapshot taken while another thread journals must be exact: the
/// one writer numbers its events 0, 1, 2, …, so the retained events are
/// exactly `dropped..emitted`, before the journal fills and after it
/// wraps.
#[test]
fn snapshots_are_exact_under_a_live_writer() {
    let _g = exclusive_tracing();
    let wrapped_at = (DEFAULT_JOURNAL_CAPACITY + 16) as u64;
    let stop = AtomicBool::new(false);
    let (progress_tx, progress_rx) = mpsc::channel();
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut trial = 0;
            while !stop.load(Ordering::Relaxed) {
                tomo_obs::record_trial(TrialProvenance {
                    trial,
                    ..TrialProvenance::default()
                });
                if trial == 0 || trial == wrapped_at {
                    // The receiver is gone only if the main thread failed.
                    let _ = progress_tx.send(());
                }
                trial += 1;
            }
        });
        let _stop = StopOnDrop(&stop);
        let assert_exact = |snap: &JournalSnapshot| {
            let retained = snap.events.len() as u64;
            assert!(
                retained <= snap.emitted,
                "retained {retained} > emitted {}",
                snap.emitted
            );
            assert_eq!(snap.dropped, snap.emitted - retained);
            assert!(
                trials(snap).into_iter().eq(snap.dropped..snap.emitted),
                "retained events are not the newest {retained} of {}",
                snap.emitted
            );
        };
        progress_rx.recv().expect("writer started");
        for _ in 0..50 {
            assert_exact(&tomo_obs::journal_snapshot());
        }
        progress_rx.recv().expect("writer filled the journal");
        for _ in 0..50 {
            let snap = tomo_obs::journal_snapshot();
            assert_exact(&snap);
            assert_eq!(snap.events.len(), DEFAULT_JOURNAL_CAPACITY);
        }
    });
    tomo_obs::set_tracing(false);
}

/// Past capacity, the journal keeps the newest events in emission order
/// and counts the evicted oldest ones as dropped.
#[test]
fn a_full_journal_evicts_the_oldest_events_first() {
    let _g = exclusive_tracing();
    let extra = 7;
    let total = (DEFAULT_JOURNAL_CAPACITY + extra) as u64;
    for trial in 0..total {
        tomo_obs::record_trial(TrialProvenance {
            trial,
            ..TrialProvenance::default()
        });
    }
    tomo_obs::set_tracing(false);
    let snap = tomo_obs::journal_snapshot();
    assert_eq!(snap.emitted, total);
    assert_eq!(snap.events.len(), DEFAULT_JOURNAL_CAPACITY);
    assert_eq!(snap.dropped, extra as u64);
    let expected: Vec<u64> = (extra as u64..total).collect();
    assert_eq!(trials(&snap), expected);

    tomo_obs::reset_journal();
    let cleared = tomo_obs::journal_snapshot();
    assert_eq!(
        (cleared.events.len(), cleared.emitted, cleared.dropped),
        (0, 0, 0)
    );
}
