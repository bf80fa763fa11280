//! The stealthy manipulation LP against its full-block reference.
//!
//! `ManipulationProblem` writes Eq. 23's consistency check only on the
//! attacked coordinates, `(P − I)[S, S]·m = 0`, and leaves out every goal
//! and plausibility row that the box `[0, cap]^S` satisfies strictly.
//! Before it builds an LP it checks each goal link's reachable range
//! (the box, and for the plausible evader the attacker-free path
//! ceiling) and decides a goal set that misses it without a solve.
//! This property builds the same LP the long way, with all |P| rows of
//! `(P − I)[·, S]` and every goal and plausibility row, on random
//! systems, coalitions and goal sets. It requires the same verdict and
//! damage, a manipulation that passes the consistency check and keeps
//! each goal link of the plausible evader under its path ceiling, and a
//! standard form holding exactly the rows the box does not imply. A goal
//! set that reaches no simplex must be infeasible in the reference, and
//! a run must see at least one, so the property cannot go vacuous.
//!
//! The row count is read from the process-wide `lp.simplex.rows`
//! counter around each solve, so this binary must hold this one test.

use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use rand::Rng as _;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use tomo_attack::attacker::AttackerSet;
use tomo_attack::manipulation::{satisfies_constraint_1, LinkGoal, ManipulationProblem};
use tomo_attack::scenario::AttackScenario;
use tomo_core::placement::{random_placement, PlacementConfig};
use tomo_core::{params, TomographySystem};
use tomo_graph::{LinkId, NodeId};
use tomo_linalg::{norms, Vector};
use tomo_lp::{LpProblem, LpStatus, Objective, Relation, VarId};

/// Entries at or below this magnitude are left out of every LP row, as
/// `ManipulationProblem` does.
const FILTER: f64 = 1e-12;

/// Builds a random identifiable system on an ISP-like topology (the
/// generator the root crate's `tests/theorems.rs` uses).
fn random_system(seed: u64) -> TomographySystem {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let config = tomo_graph::isp::IspConfig {
        backbone_nodes: 6,
        backbone_chords: 4,
        access_nodes: 14,
        multihoming_prob: 0.6,
    };
    let graph = tomo_graph::isp::generate(&config, &mut rng).unwrap();
    random_placement(&graph, &PlacementConfig::default(), &mut rng).unwrap()
}

/// The stealthy LP with nothing left out, and the number of its
/// constraints that the attacked-coordinate LP must keep: the S rows of
/// the consistency block and every goal or plausibility row whose box
/// bounds do not clear its rhs strictly.
fn full_block_lp(
    system: &TomographySystem,
    attackers: &AttackerSet,
    scenario: &AttackScenario,
    baseline: &Vector,
    goals: &[(LinkId, LinkGoal)],
    direction: Objective,
) -> (LpProblem, usize) {
    let attacked = attackers.attacked_paths();
    let cap = scenario.path_cap;
    let a_cols: Vec<&Vector> = attacked
        .iter()
        .map(|&i| system.estimator_column(i).unwrap())
        .collect();
    let p_cols: Vec<&Vector> = attacked
        .iter()
        .map(|&i| system.projector_column(i).unwrap())
        .collect();

    let mut lp = LpProblem::new(direction);
    let vars: Vec<VarId> = attacked
        .iter()
        .map(|_| lp.add_variable(0.0, Some(cap)).unwrap())
        .collect();
    for &v in &vars {
        lp.set_objective_coefficient(v, 1.0);
    }
    let mut kept = 0;

    let link_terms = |j: usize| -> Vec<(VarId, f64)> {
        a_cols
            .iter()
            .zip(&vars)
            .filter(|(col, _)| col[j].abs() > FILTER)
            .map(|(col, &v)| (v, col[j]))
            .collect()
    };
    // Adds link j's row and returns 1 when the box does not imply it.
    let add_link_row = |lp: &mut LpProblem, j: usize, relation: Relation, rhs: f64| {
        lp.add_constraint(&link_terms(j), relation, rhs).unwrap();
        let lo = a_cols.iter().map(|col| col[j].min(0.0)).sum::<f64>() * cap;
        let hi = a_cols.iter().map(|col| col[j].max(0.0)).sum::<f64>() * cap;
        let implied = match relation {
            Relation::Le => hi < rhs,
            Relation::Ge => lo > rhs,
            Relation::Eq => false,
        };
        usize::from(!implied)
    };

    let b_l = scenario.thresholds.lower();
    let b_u = scenario.thresholds.upper();
    let eps = scenario.margin;
    for &(link, goal) in goals {
        let j = link.index();
        let base = baseline[j];
        kept += match goal {
            LinkGoal::Normal => add_link_row(&mut lp, j, Relation::Le, b_l - eps - base),
            LinkGoal::Abnormal => add_link_row(&mut lp, j, Relation::Ge, b_u + eps - base),
            LinkGoal::Uncertain => {
                add_link_row(&mut lp, j, Relation::Ge, b_l + eps - base)
                    + add_link_row(&mut lp, j, Relation::Le, b_u - eps - base)
            }
            LinkGoal::NormalPlausible => {
                add_link_row(&mut lp, j, Relation::Le, b_l - eps - base)
                    + add_link_row(&mut lp, j, Relation::Ge, -base)
            }
        };
    }

    // Eq. 23 on every measurement path: (P − I)[row, S]·m = 0.
    for row in 0..system.num_paths() {
        let terms: Vec<(VarId, f64)> = attacked
            .iter()
            .zip(&p_cols)
            .zip(&vars)
            .filter_map(|((&k, col), &v)| {
                let mut p = col[row];
                if row == k {
                    p -= 1.0;
                }
                (p.abs() > FILTER).then_some((v, p))
            })
            .collect();
        if !terms.is_empty() {
            lp.add_constraint(&terms, Relation::Eq, 0.0).unwrap();
            if attacked.contains(&row) {
                kept += 1;
            }
        }
    }
    if scenario.plausible_evasion {
        for j in 0..system.num_links() {
            if !link_terms(j).is_empty() {
                kept += add_link_row(&mut lp, j, Relation::Ge, -baseline[j]);
            }
        }
    }
    (lp, kept)
}

/// The least `Σ_{l∈p} x̂₀_l − Σ_{l∈p, l≠j} min(x̂₀_l, 0)` over the
/// measurement paths `p` through `link` that no attacker sits on; `+∞`
/// when there is none.
fn path_ceiling(
    system: &TomographySystem,
    attackers: &AttackerSet,
    baseline: &Vector,
    link: LinkId,
) -> f64 {
    system
        .paths()
        .iter()
        .enumerate()
        .filter(|&(i, p)| !attackers.controls_path(i) && p.links().contains(&link))
        .map(|(_, p)| {
            let sum: f64 = p.links().iter().map(|l| baseline[l.index()]).sum();
            let floor: f64 = p
                .links()
                .iter()
                .filter(|&&l| l != link)
                .map(|l| baseline[l.index()].min(0.0))
                .sum();
            sum - floor
        })
        .fold(f64::INFINITY, f64::min)
}

/// Goal sets decided before the simplex, over the whole property run.
static DECIDED: AtomicU64 = AtomicU64::new(0);

/// Random goals on one to four random links, over all four kinds.
fn random_goals(system: &TomographySystem, rng: &mut ChaCha8Rng) -> Vec<(LinkId, LinkGoal)> {
    const KINDS: [LinkGoal; 4] = [
        LinkGoal::Normal,
        LinkGoal::Abnormal,
        LinkGoal::Uncertain,
        LinkGoal::NormalPlausible,
    ];
    (0..rng.gen_range(1..=4))
        .map(|_| {
            (
                LinkId(rng.gen_range(0..system.num_links())),
                KINDS[rng.gen_range(0..KINDS.len())],
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Same verdict and damage as the full-block LP, at both objective
    /// directions, for the plausible and the implausible evader. A zero
    /// baseline puts plausibility rows exactly on the box bound `lo = 0`
    /// whenever a link's attacked estimator entries are all
    /// non-negative: such a row is not strictly implied and must stay.
    /// A wide baseline (−100 to 400 ms per link) puts attacker-free path
    /// sums on both sides of the thresholds and some clean estimates
    /// below zero, so the path ceiling both decides goals and leaves
    /// feasible ones to the simplex.
    fn attacked_coordinate_lp_matches_full_block(seed in 0u64..400, baseline in 0u8..3) {
        let rows = tomo_obs::counter("lp.simplex.rows");
        let system = random_system(seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x51ea);
        let nodes: Vec<NodeId> = system.graph().nodes().collect();
        let coalition: Vec<NodeId> = (0..rng.gen_range(1..=3))
            .map(|_| nodes[rng.gen_range(0..nodes.len())])
            .collect();
        let attackers = AttackerSet::new(&system, coalition).unwrap();
        let attacked = attackers.attacked_paths().len();
        prop_assume!(attacked > 0);
        let x = match baseline {
            0 => params::default_delay_model().sample(system.num_links(), &mut rng),
            1 => Vector::zeros(system.num_links()),
            _ => (0..system.num_links())
                .map(|_| rng.gen_range(-100.0..400.0))
                .collect::<Vec<f64>>()
                .into(),
        };

        for scenario in [
            AttackScenario::paper_defaults_stealthy(),
            AttackScenario::paper_defaults_implausible_evader(),
        ] {
            let prob = ManipulationProblem::new(&system, &attackers, scenario, &x).unwrap();
            for _ in 0..4 {
                let goals = random_goals(&system, &mut rng);
                for direction in [Objective::Maximize, Objective::Minimize] {
                    let (reference, kept) = full_block_lp(
                        &system,
                        &attackers,
                        &scenario,
                        prob.baseline_estimate(),
                        &goals,
                        direction,
                    );
                    let want = reference.solve().unwrap();
                    let before = rows.get();
                    let got = match direction {
                        Objective::Maximize => prob.solve(&goals, &[]),
                        Objective::Minimize => prob.solve_minimizing(&goals, &[]),
                    }
                    .unwrap();
                    let built = rows.get() - before;
                    if built == 0 {
                        // Decided out of reach: only an infeasible LP may be.
                        prop_assert_eq!(
                            want.status(),
                            LpStatus::Infeasible,
                            "decided without a solve, seed {} goals {:?}", seed, &goals
                        );
                        DECIDED.fetch_add(1, Ordering::Relaxed);
                    } else {
                        // One upper-bound row per attacked path joins the kept rows.
                        prop_assert_eq!(
                            built,
                            (kept + attacked) as u64,
                            "standard-form rows, seed {} goals {:?}", seed, &goals
                        );
                    }
                    match (want.status(), got.success()) {
                        (LpStatus::Optimal, Some(s)) => {
                            prop_assert!(
                                (s.damage - want.objective_value()).abs() <= 1e-9 * (1.0 + s.damage),
                                "seed {} goals {:?}: damage {} vs full block {}",
                                seed, &goals, s.damage, want.objective_value()
                            );
                            prop_assert!(satisfies_constraint_1(
                                &s.manipulation, &attackers, scenario.path_cap, 1e-9
                            ));
                            let reprojected = system
                                .measure(&system.estimate(&s.manipulation).unwrap())
                                .unwrap();
                            let residual = norms::l1(&(&s.manipulation - &reprojected));
                            prop_assert!(
                                residual <= 1e-6,
                                "seed {} goals {:?}: ‖(I − P)·m‖₁ = {}", seed, &goals, residual
                            );
                            if scenario.plausible_evasion {
                                for &(link, _) in &goals {
                                    let ceiling = path_ceiling(
                                        &system, &attackers, prob.baseline_estimate(), link,
                                    );
                                    prop_assert!(
                                        s.estimate[link.index()] <= ceiling + 1e-6,
                                        "seed {} goals {:?}: link {:?} estimate {} over its \
                                         path ceiling {}",
                                        seed, &goals, link, s.estimate[link.index()], ceiling
                                    );
                                }
                            }
                        }
                        (LpStatus::Infeasible, None) => {}
                        (status, _) => prop_assert!(
                            false,
                            "seed {} goals {:?}: full block {:?}, attacked coordinates {}",
                            seed, &goals, status,
                            if got.is_success() { "feasible" } else { "infeasible" }
                        ),
                    }
                }
            }
        }
    }
}

/// The property, then the count of goal sets it saw decided before the
/// simplex: a run where none was would check nothing of that path.
#[test]
fn attacked_coordinate_lp_matches_full_block_and_decides_some_goal_sets() {
    attacked_coordinate_lp_matches_full_block();
    assert!(
        DECIDED.load(Ordering::Relaxed) > 0,
        "no goal set was decided without a solve"
    );
}
