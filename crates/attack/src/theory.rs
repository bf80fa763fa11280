//! Constructive results from the feasibility analysis (Section IV-A).
//!
//! The proof of Theorem 1 is constructive: under a perfect cut, pick any
//! target estimate `x̂*` satisfying the state bounds with `Δx̂* = x̂* − x*`
//! supported on `L_m ∪ L_s`, and set `m* = R Δx̂*` (Eq. 15). The perfect
//! cut guarantees `m*` vanishes on attacker-free paths, and a
//! victims-only non-negative `Δx̂*` guarantees `m* ⪰ 0`. This module
//! implements that construction — independent of the LP machinery — and
//! is used to cross-validate the LP and to realize Theorem 3's
//! "undetectable" branch exactly (`R x̂ = y′` holds with equality).

use tomo_core::TomographySystem;
use tomo_graph::LinkId;
use tomo_linalg::{norms, Vector};

use crate::attacker::AttackerSet;
use crate::cut::{analyze_cut, CutKind};
use crate::outcome::{AttackOutcome, AttackSuccess};
use crate::scenario::AttackScenario;
use crate::AttackError;

/// The Theorem-1 construction: under a perfect cut of `victims`, produce
/// the manipulation `m = R Δx̂` that makes each victim's estimate exactly
/// `target_estimate` (which should exceed `b_u`).
///
/// Returns [`AttackOutcome::Infeasible`] if the cut is not perfect (the
/// construction's premise) or if the resulting manipulation would exceed
/// the per-path cap (the paper's practical limit).
///
/// # Errors
///
/// * [`AttackError::NoVictims`] / [`AttackError::UnknownVictim`] /
///   [`AttackError::VictimControlledByAttacker`] on malformed victim
///   sets,
/// * [`AttackError::BadBaseline`] on a wrong-length metric vector.
pub fn perfect_cut_attack(
    system: &TomographySystem,
    attackers: &AttackerSet,
    scenario: &AttackScenario,
    true_metrics: &Vector,
    victims: &[LinkId],
    target_estimate: f64,
) -> Result<AttackOutcome, AttackError> {
    crate::strategy::check_victims(system, attackers, victims)?;
    if true_metrics.len() != system.num_links() {
        return Err(AttackError::BadBaseline {
            expected: system.num_links(),
            got: true_metrics.len(),
        });
    }

    if analyze_cut(system, attackers, victims).kind != CutKind::Perfect {
        return Ok(AttackOutcome::Infeasible);
    }

    // Δx̂: lift each victim to the target, leave everything else alone.
    let mut delta = Vector::zeros(system.num_links());
    for &v in victims {
        let lift = target_estimate - true_metrics[v.index()];
        if lift < 0.0 {
            return Ok(AttackOutcome::Infeasible);
        }
        delta[v.index()] = lift;
    }

    // m = R Δx̂ (Eq. 15).
    let manipulation = system.measure(&delta)?;

    // Respect the practical per-path cap.
    if manipulation.iter().any(|&m| m > scenario.path_cap + 1e-9) {
        return Ok(AttackOutcome::Infeasible);
    }
    debug_assert!(
        crate::manipulation::satisfies_constraint_1(
            &manipulation,
            attackers,
            scenario.path_cap,
            1e-9
        ),
        "Theorem 1: perfect cut must yield a Constraint-1 manipulation"
    );

    let y = system.measure(true_metrics)?;
    let attacked = &y + &manipulation;
    let estimate = system.estimate(&attacked)?;
    let states = system.classify(&estimate, &scenario.thresholds);
    Ok(AttackOutcome::Success(AttackSuccess {
        damage: norms::l1(&manipulation),
        manipulation,
        estimate,
        states,
        victims: victims.to_vec(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng as _;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tomo_core::{fig1, LinkState};

    fn setup() -> (
        TomographySystem,
        tomo_graph::topology::Fig1Topology,
        AttackerSet,
        AttackScenario,
        Vector,
    ) {
        let system = fig1::fig1_system().unwrap();
        let topo = fig1::fig1_topology();
        let attackers = AttackerSet::new(&system, topo.attackers.clone()).unwrap();
        (
            system,
            topo,
            attackers,
            AttackScenario::paper_defaults(),
            Vector::filled(10, 10.0),
        )
    }

    #[test]
    fn construction_succeeds_on_perfectly_cut_link_1() {
        let (system, topo, attackers, scenario, x) = setup();
        let victim = topo.paper_link(1);
        let outcome =
            perfect_cut_attack(&system, &attackers, &scenario, &x, &[victim], 900.0).unwrap();
        let s = outcome.success().expect("Theorem 1 guarantees feasibility");
        assert_eq!(s.states[victim.index()], LinkState::Abnormal);
        // The estimate hits the target exactly (the construction solves
        // the system with equality).
        assert!((s.estimate[victim.index()] - 900.0).abs() < 1e-6);
        // Non-victim links keep their true estimates.
        for j in 0..10 {
            if j != victim.index() {
                assert!(
                    (s.estimate[j] - 10.0).abs() < 1e-6,
                    "link {j}: {}",
                    s.estimate[j]
                );
            }
        }
        // Theorem 3 premise: measurements are perfectly consistent.
        let y_attacked = &system.measure(&x).unwrap() + &s.manipulation;
        let recon = system
            .routing_csr()
            .to_dense()
            .mul_vec(&s.estimate)
            .unwrap();
        assert!(recon.approx_eq(&y_attacked, 1e-6));
    }

    #[test]
    fn imperfect_cut_refuses_construction() {
        let (system, topo, attackers, scenario, x) = setup();
        let victim = topo.paper_link(10); // imperfectly cut
        let outcome =
            perfect_cut_attack(&system, &attackers, &scenario, &x, &[victim], 900.0).unwrap();
        assert!(!outcome.is_success());
    }

    #[test]
    fn cap_violation_refused() {
        let (system, topo, attackers, scenario, x) = setup();
        let victim = topo.paper_link(1);
        // A target of 3000ms would need per-path manipulation > 2000ms.
        let outcome =
            perfect_cut_attack(&system, &attackers, &scenario, &x, &[victim], 3100.0).unwrap();
        assert!(!outcome.is_success());
    }

    #[test]
    fn target_below_truth_refused() {
        let (system, topo, attackers, scenario, _) = setup();
        let x = Vector::filled(10, 50.0);
        let victim = topo.paper_link(1);
        let outcome =
            perfect_cut_attack(&system, &attackers, &scenario, &x, &[victim], 20.0).unwrap();
        assert!(!outcome.is_success(), "m ⪰ 0 forbids lowering estimates");
    }

    #[test]
    fn validation_errors() {
        let (system, topo, attackers, scenario, x) = setup();
        assert!(matches!(
            perfect_cut_attack(&system, &attackers, &scenario, &x, &[], 900.0),
            Err(AttackError::NoVictims)
        ));
        assert!(matches!(
            perfect_cut_attack(
                &system,
                &attackers,
                &scenario,
                &x,
                &[topo.paper_link(5)],
                900.0
            ),
            Err(AttackError::VictimControlledByAttacker { .. })
        ));
        assert!(matches!(
            perfect_cut_attack(
                &system,
                &attackers,
                &scenario,
                &Vector::zeros(2),
                &[topo.paper_link(1)],
                900.0
            ),
            Err(AttackError::BadBaseline { .. })
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Theorem 1, cross-validated against the LP: whenever the
        /// construction succeeds on Fig. 1's perfectly cut link 1 (random
        /// baselines, random in-cap targets), the chosen-victim LP must
        /// also report feasibility.
        #[test]
        fn lp_agrees_with_construction(seed in 0u64..200) {
            let (system, topo, attackers, scenario, _) = setup();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let x: Vector = (0..10).map(|_| rng.gen_range(1.0..20.0)).collect();
            let victim = topo.paper_link(1);
            let target = rng.gen_range(810.0..1500.0);
            let constructed = perfect_cut_attack(
                &system, &attackers, &scenario, &x, &[victim], target,
            ).unwrap();
            prop_assert!(constructed.is_success());
            let lp = crate::strategy::chosen_victim(
                &system, &attackers, &scenario, &x, &[victim],
            ).unwrap();
            prop_assert!(lp.is_success());
            // The LP maximizes damage, so it dominates the construction.
            let lp_damage = lp.success().unwrap().damage;
            let c_damage = constructed.success().unwrap().damage;
            prop_assert!(lp_damage >= c_damage - 1e-6,
                "LP {} < construction {}", lp_damage, c_damage);
        }
    }
}
