//! Decision equivalence between the dense tableau simplex and the
//! sparse-basis revised simplex.
//!
//! The two backends walk different pivot sequences (BTRAN-computed
//! reduced costs differ in the last bits from tableau-maintained ones,
//! so tie-breaks at non-unique optima may diverge), but every *decision*
//! an experiment consumes has a unique answer: feasibility status,
//! optimal objective value, and constraint satisfaction of the returned
//! vertex. These tests pin that contract via [`LpProblem::solve_with`]
//! on random LP families and on hand-built fig. 7 chosen-victim LPs.

use proptest::prelude::*;
use rand::Rng as _;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use scapegoat_tomography::lp::{LpProblem, Objective, Relation, SolverMode, VarId};
use scapegoat_tomography::prelude::*;

/// A random LP that is feasible by construction (`x = 0` satisfies every
/// `Le` row; `Ge`/`Eq` rows get rhs ≤ 0 coverage via sign flips) yet
/// exercises bounds, equalities, and mixed-sign objectives.
fn random_lp(seed: u64) -> LpProblem {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let nvars = rng.gen_range(2..9usize);
    let ncons = rng.gen_range(1..8usize);
    let maximize = rng.gen_range(0..2) == 0;
    let mut lp = LpProblem::new(if maximize {
        Objective::Maximize
    } else {
        Objective::Minimize
    });
    let vars: Vec<VarId> = (0..nvars)
        .map(|_| {
            let lower = if rng.gen_range(0..3) == 0 {
                rng.gen_range(-2.0..0.0)
            } else {
                0.0
            };
            let upper = (rng.gen_range(0..4) != 0).then(|| lower + rng.gen_range(0.5..8.0));
            lp.add_variable(lower, upper).unwrap()
        })
        .collect();
    for &v in &vars {
        lp.set_objective_coefficient(v, rng.gen_range(-3.0..3.0));
    }
    for _ in 0..ncons {
        let mut terms: Vec<(VarId, f64)> = Vec::new();
        for &v in &vars {
            if rng.gen_range(0..3) != 0 {
                terms.push((v, rng.gen_range(-2.0..2.0)));
            }
        }
        if terms.is_empty() {
            continue;
        }
        // `Le` with rhs ≥ 0 keeps the all-lower vertex feasible whenever
        // lower bounds are 0; shifted lowers may still make the LP
        // infeasible, which is fine — both backends must then agree on
        // Infeasible.
        lp.add_constraint(&terms, Relation::Le, rng.gen_range(0.0..6.0))
            .unwrap();
    }
    lp
}

/// Asserts the two backends reach the same verdict on one problem.
fn assert_decision_equivalent(lp: &LpProblem, what: &str) {
    let dense = lp.solve_with(SolverMode::Dense).unwrap();
    let revised = lp.solve_with(SolverMode::Revised).unwrap();
    assert_eq!(dense.status(), revised.status(), "{what}: status diverged");
    if dense.is_optimal() {
        let scale = 1.0 + dense.objective_value().abs();
        assert!(
            (dense.objective_value() - revised.objective_value()).abs() <= 1e-6 * scale,
            "{what}: objective diverged (dense {} vs revised {})",
            dense.objective_value(),
            revised.objective_value()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random bounded/unbounded/infeasible families agree on status and
    /// optimum across both backends.
    #[test]
    fn random_lps_agree_across_backends(seed in 0u64..100_000) {
        assert_decision_equivalent(&random_lp(seed), "random LP");
    }
}

/// The chosen-victim LP `strategy::chosen_victim` solves, built by hand
/// from the attacked columns of the estimator: maximize `Σ m` over the
/// attacked paths, push the victim above `b_u + margin` and keep every
/// attacker-controlled link below `b_l − margin`.
fn chosen_victim_lp(
    system: &TomographySystem,
    attackers: &AttackerSet,
    x: &Vector,
    victim: LinkId,
) -> LpProblem {
    let scenario = AttackScenario::paper_defaults();
    let x0 = system.estimate(&system.measure(x).unwrap()).unwrap();
    let attacked = attackers.attacked_paths();
    let columns: Vec<&Vector> = attacked
        .iter()
        .map(|&i| system.estimator_column(i).unwrap())
        .collect();
    let mut lp = LpProblem::new(Objective::Maximize);
    let vars: Vec<VarId> = attacked
        .iter()
        .map(|_| lp.add_variable(0.0, Some(scenario.path_cap)).unwrap())
        .collect();
    for &v in &vars {
        lp.set_objective_coefficient(v, 1.0);
    }
    let terms = |j: usize| -> Vec<(VarId, f64)> {
        vars.iter()
            .zip(&columns)
            .map(|(&v, col)| (v, col[j]))
            .collect()
    };
    let j = victim.index();
    lp.add_constraint(
        &terms(j),
        Relation::Ge,
        scenario.thresholds.upper() + scenario.margin - x0[j],
    )
    .unwrap();
    for &l in attackers.controlled_links() {
        let j = l.index();
        lp.add_constraint(
            &terms(j),
            Relation::Le,
            scenario.thresholds.lower() - scenario.margin - x0[j],
        )
        .unwrap();
    }
    lp
}

/// The fig. 7 chosen-victim workload — the LPs the paper's evaluation
/// actually solves — reaches identical feasibility verdicts and damage
/// under `SolverMode::Dense` and `SolverMode::Revised`.
#[test]
fn fig7_scenario_sweep_is_backend_invariant() {
    let mut rng = ChaCha8Rng::seed_from_u64(1701);
    let config = scapegoat_tomography::graph::isp::IspConfig {
        backbone_nodes: 6,
        backbone_chords: 4,
        access_nodes: 14,
        multihoming_prob: 0.6,
    };
    let graph = scapegoat_tomography::graph::isp::generate(&config, &mut rng).unwrap();
    let system = random_placement(&graph, &PlacementConfig::default(), &mut rng).unwrap();
    let nodes: Vec<NodeId> = system.graph().nodes().collect();

    let mut attacks = 0;
    for trial in 0..10u64 {
        let mut trng = ChaCha8Rng::seed_from_u64(0xf1c7 ^ (trial << 16));
        let coalition: Vec<NodeId> = (0..2)
            .map(|_| nodes[trng.gen_range(0..nodes.len())])
            .collect();
        let Ok(attackers) = AttackerSet::new(&system, coalition) else {
            continue;
        };
        let victim = (0..system.num_links())
            .map(LinkId)
            .find(|&l| !attackers.controls_link(l));
        let Some(victim) = victim else {
            continue;
        };
        if attackers.attacked_paths().is_empty() {
            continue;
        }
        let x = params::default_delay_model().sample(system.num_links(), &mut trng);
        let lp = chosen_victim_lp(&system, &attackers, &x, victim);
        let dense = lp.solve_with(SolverMode::Dense).unwrap();
        let revised = lp.solve_with(SolverMode::Revised).unwrap();
        assert_eq!(
            dense.is_optimal(),
            revised.is_optimal(),
            "trial {trial}: feasibility flipped across backends"
        );
        if dense.is_optimal() {
            let (dd, rd) = (dense.objective_value(), revised.objective_value());
            let scale = 1.0 + dd.abs();
            assert!(
                (dd - rd).abs() <= 1e-6 * scale,
                "trial {trial}: damage diverged (dense {dd} vs revised {rd})"
            );
            attacks += 1;
        }
    }
    assert!(attacks > 0, "sweep never produced a feasible attack");
}
