//! Structural properties of attack optima, checked through the LP layer.
//!
//! At a damage-maximal solution, every manipulable path must be "used
//! up": its manipulation either sits at the per-path cap or is pinned by
//! some binding state constraint — otherwise the simplex could push more
//! damage. These tests rebuild the attack LP explicitly and verify that
//! structure with `constraint_activity`, tying the attack layer and the
//! solver's diagnostics together.

use scapegoat_tomography::lp::{LpProblem, Objective, Relation};
use scapegoat_tomography::prelude::*;

/// Rebuilds the Fig. 4 chosen-victim LP by hand and checks its optimum
/// against `strategy::chosen_victim`.
#[test]
fn hand_built_lp_matches_strategy_output() {
    let system = fig1_system().unwrap();
    let topo = fig1_topology();
    let attackers = AttackerSet::new(&system, topo.attackers.clone()).unwrap();
    let scenario = AttackScenario::paper_defaults();
    let x = Vector::filled(10, 10.0);

    // Strategy-layer answer.
    let s = chosen_victim(&system, &attackers, &scenario, &x, &[topo.paper_link(10)])
        .unwrap()
        .into_success()
        .unwrap();

    // Hand-built LP: variables = manipulations on attacked paths, with
    // coefficients from the attacked columns of the estimator.
    let y = system.measure(&x).unwrap();
    let x0 = system.estimate(&y).unwrap();
    let attacked = attackers.attacked_paths();
    let columns: Vec<&Vector> = attacked
        .iter()
        .map(|&i| system.estimator_column(i).unwrap())
        .collect();

    let mut lp = LpProblem::new(Objective::Maximize);
    let vars: Vec<_> = attacked
        .iter()
        .map(|_| lp.add_variable(0.0, Some(scenario.path_cap)).unwrap())
        .collect();
    for &v in &vars {
        lp.set_objective_coefficient(v, 1.0);
    }
    let victim = topo.paper_link(10).index();
    let terms = |j: usize| -> Vec<_> {
        columns
            .iter()
            .zip(vars.iter())
            .map(|(col, &v)| (v, col[j]))
            .collect()
    };
    lp.add_constraint(
        &terms(victim),
        Relation::Ge,
        scenario.thresholds.upper() + scenario.margin - x0[victim],
    )
    .unwrap();
    for &l in attackers.controlled_links() {
        lp.add_constraint(
            &terms(l.index()),
            Relation::Le,
            scenario.thresholds.lower() - scenario.margin - x0[l.index()],
        )
        .unwrap();
    }
    let sol = lp.solve().unwrap();
    assert!(sol.is_optimal());
    assert!(
        (sol.objective_value() - s.damage).abs() < 1e-4 * (1.0 + s.damage),
        "hand-built {} vs strategy {}",
        sol.objective_value(),
        s.damage
    );

    // Every constraint satisfied; at least one binding (else the optimum
    // could be pushed further given finite caps saturate instead).
    let activity = lp.constraint_activity(&sol, 1e-5);
    assert!(activity.iter().all(|a| a.satisfied));

    // Structural optimality: every variable is at its cap or at zero or
    // some state constraint binds.
    let any_binding = activity.iter().any(|a| a.binding);
    let all_saturated = sol
        .values()
        .iter()
        .all(|&m| m <= 1e-6 || (m - scenario.path_cap).abs() <= 1e-6);
    assert!(
        any_binding || all_saturated,
        "optimum explained by neither binding constraints nor saturated caps"
    );
}

/// The same structure on the obfuscation LP: the uncertain-band
/// constraints bound damage, so at the optimum at least one band edge or
/// cap binds.
#[test]
fn obfuscation_optimum_pins_band_edges() {
    let system = fig1_system().unwrap();
    let topo = fig1_topology();
    let attackers = AttackerSet::new(&system, topo.attackers.clone()).unwrap();
    let scenario = AttackScenario::paper_defaults();
    let x = Vector::filled(10, 10.0);

    let s = obfuscation(&system, &attackers, &scenario, &x, 3)
        .unwrap()
        .into_success()
        .unwrap();
    // Damage-maximal obfuscation must touch the band's upper edge
    // (b_u − margin) on at least one link, or saturate caps.
    let b_u = scenario.thresholds.upper();
    let touches_edge = s
        .estimate
        .iter()
        .any(|&e| (e - (b_u - scenario.margin)).abs() < 1e-3);
    let saturates_cap = s
        .manipulation
        .iter()
        .any(|&m| (m - scenario.path_cap).abs() < 1e-3);
    assert!(
        touches_edge || saturates_cap,
        "nothing binding at obfuscation optimum"
    );
}

/// Minimum-effort optima sit exactly on the framing threshold: the
/// victim's estimate equals `b_u + margin` (no reason to overshoot).
#[test]
fn min_effort_touches_threshold_exactly() {
    let system = fig1_system().unwrap();
    let topo = fig1_topology();
    let attackers = AttackerSet::new(&system, topo.attackers.clone()).unwrap();
    let scenario = AttackScenario::paper_defaults();
    let x = Vector::filled(10, 10.0);
    let victim = topo.paper_link(10);

    let covert = min_effort_chosen_victim(&system, &attackers, &scenario, &x, &[victim])
        .unwrap()
        .into_success()
        .unwrap();
    let target = scenario.thresholds.upper() + scenario.margin;
    assert!(
        (covert.estimate[victim.index()] - target).abs() < 1e-4,
        "covert attacker overshot: {} vs {}",
        covert.estimate[victim.index()],
        target
    );
}
