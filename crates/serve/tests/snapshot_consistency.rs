//! Concurrency tests for the snapshot query path and the ingest queue:
//! every snapshot a reader observes must be internally consistent (all
//! fields from the same publish) and monotonically versioned, and the
//! same batch set, in any arrival order, from any number of clients,
//! must land the engine in bit-identical state.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use tomo_core::fig1::fig1_system;
use tomo_core::TomographySystem;
use tomo_detect::ConsistencyDetector;
use tomo_linalg::Vector;
use tomo_serve::{
    Engine, IngestQueue, Pop, ProbeBatch, ProbeClient, ProbeRow, ServeConfig, Server, SnapshotStore,
};

fn system() -> Arc<TomographySystem> {
    Arc::new(fig1_system().expect("fig1 builds"))
}

/// A full-coverage batch whose values depend only on its id.
fn batch(sys: &TomographySystem, id: u64) -> ProbeBatch {
    let x = Vector::filled(sys.num_links(), 10.0);
    let y = sys.measure(&x).expect("measure");
    ProbeBatch {
        batch_id: id,
        epoch: 1,
        rows: (0..sys.num_paths())
            .map(|i| ProbeRow::new(u32::try_from(i).expect("fits"), y[i] + id as f64 * 1e-9))
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        ..ProptestConfig::default()
    })]

    /// The apply worker churns batches and publishes after every one
    /// while reader threads hammer the store: every observed snapshot
    /// self-checks (digest over estimate inputs, watermark, and stats
    /// from the same publish) and versions never go backwards.
    #[test]
    fn hammered_snapshots_stay_consistent_and_monotonic(nbatches in 20usize..60) {
        let sys = system();
        let mut engine = Engine::new(Arc::clone(&sys), ConsistencyDetector::recommended());
        engine.bump_epoch(1);
        let store = Arc::new(SnapshotStore::new(engine.published_view(0)));
        let stop = Arc::new(AtomicBool::new(false));
        let total_reads = Arc::new(AtomicU64::new(0));

        let readers: Vec<_> = (0..2)
            .map(|_| {
                let store = Arc::clone(&store);
                let stop = Arc::clone(&stop);
                let total_reads = Arc::clone(&total_reads);
                std::thread::spawn(move || {
                    let mut last_version = 0u64;
                    let mut last_watermark = 0u64;
                    let mut last_applied = 0u64;
                    let mut reads = 0u64;
                    while !stop.load(Ordering::Acquire) {
                        let snap = store.load();
                        assert!(snap.self_check(), "torn snapshot observed");
                        assert!(snap.version() >= last_version, "version went backwards");
                        assert!(snap.watermark() >= last_watermark, "watermark regressed");
                        assert!(snap.stats().applied >= last_applied, "stats regressed");
                        if snap.coverage() > 0 {
                            let answer = snap.answer().expect("covered snapshot answers");
                            assert_eq!(answer.epoch, snap.epoch());
                            assert_eq!(answer.coverage, snap.coverage());
                            assert!(snap.self_check(), "solving broke the snapshot");
                        }
                        last_version = snap.version();
                        last_watermark = snap.watermark();
                        last_applied = snap.stats().applied;
                        reads += 1;
                        total_reads.fetch_add(1, Ordering::Relaxed);
                    }
                    reads
                })
            })
            .collect();

        let mut version = 1u64;
        for id in 0..nbatches as u64 {
            engine.apply(&batch(&sys, id));
            store.publish(engine.published_view(version));
            version += 1;
        }
        // Keep publishing (same state, advancing versions) until the
        // readers demonstrably overlapped with the churn — on one core
        // the batch loop alone can finish before they are scheduled.
        let mut spins = 0u64;
        while total_reads.load(Ordering::Relaxed) < 20 && spins < 100_000 {
            store.publish(engine.published_view(version));
            version += 1;
            spins += 1;
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            }
        }
        stop.store(true, Ordering::Release);
        for r in readers {
            r.join().expect("reader panicked — invariant violated");
        }
        prop_assert!(total_reads.load(Ordering::Relaxed) > 0, "readers never ran");
        let last = store.load();
        prop_assert_eq!(last.stats().applied, nbatches as u64);
    }

    /// The same batch set, pushed in any arrival order and drained
    /// through the ingest queue, applies to bit-identical engine state.
    #[test]
    fn queue_drain_is_deterministic_over_arrival_order(shuffle_seed in 0u64..u64::MAX) {
        // Fisher-Yates over the batch ids, driven by a splitmix64
        // stream so each case sees a different arrival order.
        let mut order: Vec<u64> = (0..24).collect();
        let mut state = shuffle_seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for i in (1..order.len()).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let sys = system();
        // Reference: apply in id order, no queue.
        let mut reference = Engine::new(Arc::clone(&sys), ConsistencyDetector::recommended());
        reference.bump_epoch(1);
        for id in 0..24 {
            reference.apply(&batch(&sys, id));
        }

        let queue = IngestQueue::new(24, 10);
        for &id in &order {
            queue.try_push(batch(&sys, id)).expect("fits");
        }
        queue.close();
        let mut engine = Engine::new(Arc::clone(&sys), ConsistencyDetector::recommended());
        engine.bump_epoch(1);
        let mut popped = Vec::new();
        while let Pop::Item(b) = queue.pop(Duration::from_millis(1)) {
            popped.push(b.batch_id);
            engine.apply(&b);
        }
        prop_assert_eq!(&popped, &order, "the queue hands batches over in push order");
        prop_assert_eq!(queue.pop(Duration::from_millis(1)), Pop::Closed);

        prop_assert_eq!(engine.snapshot(), reference.snapshot());
        let got = engine.published_view(1).answer().expect("answers");
        let want = reference.published_view(1).answer().expect("answers");
        prop_assert_eq!(got.estimate_bits, want.estimate_bits);
    }
}

/// Whole-daemon determinism across client counts: the same batches,
/// delivered by 1, 2 and 4 clients, produce byte-identical answers.
#[test]
fn server_state_is_byte_identical_across_client_counts() {
    let sys = system();
    let total = 32u64;

    let answers: Vec<Vec<u64>> = [1usize, 2, 4]
        .iter()
        .map(|&nclients| {
            let server = Server::start(
                system(),
                ConsistencyDetector::recommended(),
                ServeConfig::default(),
            )
            .expect("daemon starts");
            let addr = server.ingest_addr();
            let handles: Vec<_> = (0..nclients)
                .map(|c| {
                    let sys = Arc::clone(&sys);
                    std::thread::spawn(move || {
                        // Client c sends batch ids {b : b % nclients == c}
                        // via start id + stride, so the union across
                        // clients is exactly 0..total with each id
                        // carrying the same rows a single client would
                        // have sent.
                        let mut client = ProbeClient::new(addr, 7 + c as u64)
                            .with_start_batch_id(c as u64)
                            .with_batch_id_stride(nclients as u64);
                        let my_batches: Vec<Vec<ProbeRow>> = (0..total)
                            .filter(|b| b % nclients as u64 == c as u64)
                            .map(|b| batch(&sys, b).rows)
                            .collect();
                        client.stream(my_batches, None).expect("stream delivers");
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("client thread");
            }
            server.query().expect("answers").estimate_bits
        })
        .collect();

    assert_eq!(answers[0], answers[1], "1 client == 2 clients");
    assert_eq!(answers[0], answers[2], "1 client == 4 clients");
}
