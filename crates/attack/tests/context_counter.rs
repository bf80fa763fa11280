//! `attack.context.builds` counts attack contexts: one per coalition
//! and round when every strategy of the round runs on one
//! `AttackerSet`.
//!
//! The counter is process-wide, so this binary must hold this one test.

use tomo_attack::attacker::AttackerSet;
use tomo_attack::scenario::AttackScenario;
use tomo_attack::{strategy, AttackError, AttackOutcome};
use tomo_core::{fig1, params};
use tomo_linalg::Vector;

fn builds() -> u64 {
    tomo_obs::snapshot()
        .counter("attack.context.builds")
        .unwrap_or(0)
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

/// One Fig. 9 round: chosen victim, maximum damage and obfuscation, each
/// as a rational attacker, on one set and one `x`.
fn fig9_round(
    system: &tomo_core::TomographySystem,
    attackers: &AttackerSet,
    x: &Vector,
) -> Result<(), AttackError> {
    let topo = fig1::fig1_topology();
    let scenario = |evade| AttackScenario::paper_defaults().with_evasion(evade);
    let victim = topo.paper_link(10);
    rational(|e| strategy::chosen_victim(system, attackers, &scenario(e), x, &[victim]))?;
    rational(|e| strategy::max_damage(system, attackers, &scenario(e), x))?;
    rational(|e| {
        strategy::obfuscation(
            system,
            attackers,
            &scenario(e),
            x,
            params::OBFUSCATION_MIN_VICTIMS,
        )
    })?;
    Ok(())
}

#[test]
fn one_context_per_coalition_and_round() {
    let system = fig1::fig1_system().unwrap();
    let attackers = AttackerSet::new(&system, fig1::fig1_topology().attackers.clone()).unwrap();
    let x = Vector::filled(10, 10.0);

    let before = builds();
    fig9_round(&system, &attackers, &x).unwrap();
    assert_eq!(builds() - before, 1, "one round, one coalition, one x");

    // The same round again reuses the context; a new x replaces it.
    fig9_round(&system, &attackers, &x).unwrap();
    assert_eq!(builds() - before, 1, "the repeated round rebuilt");
    fig9_round(&system, &attackers, &Vector::filled(10, 11.0)).unwrap();
    assert_eq!(builds() - before, 2, "a new x must build a new context");

    // A clone starts with an empty cache.
    let clone = attackers.clone();
    fig9_round(&system, &clone, &Vector::filled(10, 11.0)).unwrap();
    assert_eq!(builds() - before, 3, "a clone shared its original's cache");
}
