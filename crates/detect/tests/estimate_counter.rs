//! `core.estimate.solves` and `core.estimate.reused` count Eq. 2
//! estimates: a thread solves each measurement vector once per system
//! and answers a bit-identical repeat from its kept solve.
//!
//! The counters are process-wide, so this binary must hold this one test.

use tomo_attack::attacker::AttackerSet;
use tomo_attack::scenario::AttackScenario;
use tomo_attack::{strategy, AttackError, AttackOutcome};
use tomo_core::{fig1, params, TomographySystem};
use tomo_detect::ConsistencyDetector;
use tomo_linalg::Vector;

/// `(solves, reused)` so far in this process.
fn counts() -> (u64, u64) {
    let snapshot = tomo_obs::snapshot();
    let read = |name| snapshot.counter(name).unwrap_or(0);
    (read("core.estimate.solves"), read("core.estimate.reused"))
}

/// The rational attacker: stealthy first, plain when that fails.
fn rational(
    attack: impl Fn(bool) -> Result<AttackOutcome, AttackError>,
) -> Result<AttackOutcome, AttackError> {
    let stealthy = attack(true)?;
    if stealthy.is_success() {
        return Ok(stealthy);
    }
    attack(false)
}

/// One Fig. 9 round as `tomo_detect::experiment` runs it: the clean
/// round's verdict, then chosen victim, maximum damage and obfuscation,
/// each as a rational attacker and, when it succeeds, judged on
/// `y_clean + m` right away. Returns the attacked vectors judged.
fn fig9_round(
    system: &TomographySystem,
    detector: &ConsistencyDetector,
    attackers: &AttackerSet,
    x: &Vector,
) -> Vec<Vector> {
    let scenario = |evade| AttackScenario::paper_defaults().with_evasion(evade);
    let y_clean = system.measure(x).unwrap();
    assert!(!detector.inspect(system, &y_clean).unwrap().detected);
    let victim = fig1::fig1_topology().paper_link(10);
    let mut judged = Vec::new();
    let mut judge = |outcome: Result<AttackOutcome, AttackError>| {
        if let Some(s) = outcome.unwrap().success() {
            let y_attacked = &y_clean + &s.manipulation;
            detector.inspect(system, &y_attacked).unwrap();
            judged.push(y_attacked);
        }
    };
    judge(rational(|e| {
        strategy::chosen_victim(system, attackers, &scenario(e), x, &[victim])
    }));
    judge(rational(|e| {
        strategy::max_damage(system, attackers, &scenario(e), x)
    }));
    judge(rational(|e| {
        strategy::obfuscation(
            system,
            attackers,
            &scenario(e),
            x,
            params::OBFUSCATION_MIN_VICTIMS,
        )
    }));
    judged
}

#[test]
fn one_solve_per_measurement_vector() {
    let system = fig1::fig1_system().unwrap();
    let detector = ConsistencyDetector::recommended();
    let attackers = AttackerSet::new(&system, fig1::fig1_topology().attackers.clone()).unwrap();
    let x = Vector::filled(10, 10.0);
    let delta = |since: (u64, u64)| {
        let now = counts();
        (now.0 - since.0, now.1 - since.1)
    };

    // The clean verdict solves y; the attack context's x̂₀ reuses it.
    // Each success solves y + m for its outcome, and its verdict reuses
    // that solve.
    let start = counts();
    let judged = fig9_round(&system, &detector, &attackers, &x);
    let k = judged.len() as u64;
    assert!(k >= 1, "the round must land at least one attack");
    assert_eq!(delta(start), (1 + k, 1 + k), "k = {k}");

    // An identically built system has its own id: it solves the last
    // vector again.
    let twin = fig1::fig1_system().unwrap();
    let last = judged.last().unwrap();
    let before = counts();
    detector.inspect(&twin, last).unwrap();
    assert_eq!(delta(before), (1, 0), "a twin system reused the slot");

    // Keys are bits: flipping the sign of one zero is a new vector.
    let mut y = last.clone();
    y[0] = 0.0;
    let before = counts();
    detector.inspect(&twin, &y).unwrap();
    detector.inspect(&twin, &y).unwrap();
    y[0] = -0.0;
    detector.inspect(&twin, &y).unwrap();
    assert_eq!(delta(before), (2, 1), "-0.0 was taken for 0.0");
}
