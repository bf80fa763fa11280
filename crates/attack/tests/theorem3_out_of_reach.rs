//! Theorem 3 on Fig. 1, read from the LP counters: which attacks the
//! manipulation problem decides before building an LP, and which it
//! still solves.
//!
//! An attacker-free path through the victim keeps its clean estimate
//! sum under a consistent manipulation, and plausibility keeps the
//! path's other links at or above zero, so the victim's estimate cannot
//! exceed that sum. On Fig. 1 with every link at 10 ms, {B, C} leave
//! path 17 (links 9 and 10) free: the stealthy frame of link 10 is
//! decided without a solve. Link 1 has no such path (a perfect cut), so
//! its LP runs and succeeds. The implausible evader has no such bound.
//!
//! The counters are process-wide, so each test holds `SERIAL` while it
//! reads them, and no other binary shares them.

use std::sync::{Mutex, MutexGuard, PoisonError};

use tomo_attack::attacker::AttackerSet;
use tomo_attack::scenario::AttackScenario;
use tomo_attack::{cut, strategy};
use tomo_core::{fig1, LinkState, TomographySystem};
use tomo_graph::topology::Fig1Topology;
use tomo_linalg::Vector;

static SERIAL: Mutex<()> = Mutex::new(());

/// Simplex solves and LPs decided out of reach, read together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    solves: u64,
    out_of_reach: u64,
}

impl Counts {
    fn now() -> Self {
        let snapshot = tomo_obs::snapshot();
        let read = |name| snapshot.counter(name).unwrap_or(0);
        Counts {
            solves: read("lp.simplex.solves"),
            out_of_reach: read("attack.lp.out_of_reach"),
        }
    }

    fn since(self, before: Counts) -> Counts {
        Counts {
            solves: self.solves - before.solves,
            out_of_reach: self.out_of_reach - before.out_of_reach,
        }
    }
}

/// Fig. 1 with {B, C}, every link at 10 ms, and the lock on the counters.
fn setup() -> (
    MutexGuard<'static, ()>,
    TomographySystem,
    Fig1Topology,
    AttackerSet,
    Vector,
) {
    let guard = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let system = fig1::fig1_system().unwrap();
    let topo = fig1::fig1_topology();
    let attackers = AttackerSet::new(&system, topo.attackers.clone()).unwrap();
    (guard, system, topo, attackers, Vector::filled(10, 10.0))
}

#[test]
fn stealthy_frame_of_an_imperfectly_cut_link_needs_no_solve() {
    let (_serial, system, topo, attackers, x) = setup();
    let victim = topo.paper_link(10);
    assert!(!cut::analyze_cut(&system, &attackers, &[victim]).is_perfect());
    // The box alone leaves these goals open: the plain frame succeeds.
    let plain = AttackScenario::paper_defaults();
    let framed = strategy::chosen_victim(&system, &attackers, &plain, &x, &[victim]).unwrap();
    assert!(framed.is_success());
    let scenario = AttackScenario::paper_defaults_stealthy();

    let before = Counts::now();
    let outcome = strategy::chosen_victim(&system, &attackers, &scenario, &x, &[victim]).unwrap();
    let delta = Counts::now().since(before);
    assert!(!outcome.is_success());
    assert_eq!(
        delta,
        Counts {
            solves: 0,
            out_of_reach: 1
        }
    );
}

#[test]
fn stealthy_frame_of_a_perfectly_cut_link_still_solves_and_succeeds() {
    let (_serial, system, topo, attackers, x) = setup();
    let victim = topo.paper_link(1);
    assert!(cut::analyze_cut(&system, &attackers, &[victim]).is_perfect());
    let scenario = AttackScenario::paper_defaults_stealthy();

    let before = Counts::now();
    let outcome = strategy::chosen_victim(&system, &attackers, &scenario, &x, &[victim]).unwrap();
    let delta = Counts::now().since(before);
    let s = outcome.success().expect("Theorem 3: a perfect cut evades");
    assert_eq!(s.states[victim.index()], LinkState::Abnormal);
    assert_eq!(
        delta,
        Counts {
            solves: 1,
            out_of_reach: 0
        }
    );
}

#[test]
fn implausible_evader_on_an_imperfectly_cut_link_reaches_the_lp() {
    let (_serial, system, topo, attackers, x) = setup();
    let victim = topo.paper_link(10);
    let scenario = AttackScenario::paper_defaults_implausible_evader();

    let before = Counts::now();
    strategy::chosen_victim(&system, &attackers, &scenario, &x, &[victim]).unwrap();
    let delta = Counts::now().since(before);
    assert_eq!(
        delta,
        Counts {
            solves: 1,
            out_of_reach: 0
        }
    );
}

/// B alone controls links 2, 3, 5 and 6 and cannot hold all six other
/// links in the uncertain band with its own: the floor prefix is
/// infeasible, though every goal is within reach, and that one LP is
/// the verdict.
#[test]
fn obfuscation_with_an_infeasible_floor_solves_once() {
    let (_serial, system, topo, _, x) = setup();
    let attackers = AttackerSet::new(&system, vec![topo.node("B")]).unwrap();
    let scenario = AttackScenario::paper_defaults();

    let before = Counts::now();
    let outcome = strategy::obfuscation(&system, &attackers, &scenario, &x, 6).unwrap();
    let delta = Counts::now().since(before);
    assert!(!outcome.is_success());
    assert_eq!(
        delta,
        Counts {
            solves: 1,
            out_of_reach: 0
        }
    );
}
