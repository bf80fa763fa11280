//! Placement streams every Yen call of a placement through one ordered
//! executor fan-out, and workers may run calls past the pair at which
//! the rank becomes full. Those calls must be dropped before anything
//! counts them: the six seed-42 Fig. 7 placements must pick the same
//! monitors and paths, and move `core.placement.{pairs,candidates,
//! rank_raises}` and `par.tasks` by the same amounts, at every thread
//! count, with one `par` batch per placement.
//!
//! The counters are process-wide, so this binary must hold this one test.

use tomo_core::TomographySystem;
use tomo_par::Executor;
use tomo_sim::topologies::{build_system, NetworkKind};

/// The counters whose deltas must not depend on the thread count.
const COUNTERS: [&str; 5] = [
    "core.placement.pairs",
    "core.placement.candidates",
    "core.placement.rank_raises",
    "par.tasks",
    "par.batches",
];

fn counts() -> [u64; 5] {
    let snapshot = tomo_obs::snapshot();
    COUNTERS.map(|name| snapshot.counter(name).unwrap_or(0))
}

/// The seeds `tomo_sim::fig7` derives for seed 42: `42·1_000_003 + s`,
/// wireless offset by 500_000.
fn fig7_systems() -> Vec<(NetworkKind, u64)> {
    [(NetworkKind::Wireline, 0), (NetworkKind::Wireless, 500_000)]
        .into_iter()
        .flat_map(|(kind, offset)| (0..3).map(move |s| (kind, 42_000_126 + s + offset)))
        .collect()
}

#[test]
fn speculative_yen_calls_reach_no_counter() {
    type Placement = (Vec<tomo_graph::NodeId>, Vec<tomo_graph::Path>);
    let place = |threads: usize| -> (Vec<Placement>, [u64; 5]) {
        let exec = Executor::new(threads);
        let before = counts();
        let placements = fig7_systems()
            .into_iter()
            .map(|(kind, seed)| {
                let system: TomographySystem = build_system(kind, seed, &exec).expect("placed");
                (system.monitors().to_vec(), system.paths().to_vec())
            })
            .collect();
        let after = counts();
        (placements, std::array::from_fn(|i| after[i] - before[i]))
    };

    let (serial, serial_counts) = place(1);
    let [pairs, _, _, tasks, batches] = serial_counts;
    assert!(pairs > 0, "placement made no Yen calls");
    assert_eq!(tasks, pairs, "every delivered task is one Yen call");
    assert_eq!(batches, 6, "one fan-out per placement");
    for threads in [2, 3, 8] {
        let (parallel, parallel_counts) = place(threads);
        assert!(parallel == serial, "{threads} threads placed differently");
        assert_eq!(
            parallel_counts, serial_counts,
            "{threads} threads: {COUNTERS:?} moved differently"
        );
    }
}
