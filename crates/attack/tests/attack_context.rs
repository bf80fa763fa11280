//! The attack context an `AttackerSet` caches against strategies run
//! without it.
//!
//! Every strategy of one round (one coalition, one `x`) shares the clean
//! measurements, the clean estimate and the LP rows of the attacked
//! columns. These tests require that sharing them changes no bit of any
//! outcome: every strategy on one shared set equals the same call on a
//! fresh set, also when two `x` alternate on the shared set or when the
//! set is used on a system other than the one that filled its cache.
//! `max_damage` and `obfuscation` build only the outcome they return;
//! they must equal a reference that builds every candidate's outcome
//! through `ManipulationProblem::solve`, as the strategies once did.

use rand::Rng as _;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use tomo_attack::attacker::AttackerSet;
use tomo_attack::manipulation::{LinkGoal, ManipulationProblem};
use tomo_attack::scenario::AttackScenario;
use tomo_attack::{strategy, AttackError, AttackOutcome};
use tomo_core::placement::{random_placement, PlacementConfig};
use tomo_core::{fig1, params, TomographySystem};
use tomo_graph::{LinkId, NodeId};
use tomo_linalg::Vector;

/// Draws per system.
const DRAWS: u64 = 50;

/// Victim quota for obfuscation: low enough that the binary search runs
/// on these small systems.
const MIN_VICTIMS: usize = 2;

/// A seeded identifiable system on an ISP-like topology.
fn isp_system(seed: u64) -> TomographySystem {
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

/// One round's random inputs: a coalition of one or two nodes, a
/// victim link, a node to frame and two delay vectors.
struct Draw {
    nodes: Vec<NodeId>,
    victim: LinkId,
    node: NodeId,
    xs: [Vector; 2],
}

fn draw(system: &TomographySystem, rng: &mut ChaCha8Rng) -> Draw {
    let n = system.graph().num_nodes();
    let k = rng.gen_range(1..=2);
    let nodes = (0..k).map(|_| NodeId(rng.gen_range(0..n))).collect();
    let delays = params::default_delay_model();
    Draw {
        nodes,
        victim: LinkId(rng.gen_range(0..system.num_links())),
        node: NodeId(rng.gen_range(0..n)),
        xs: [
            delays.sample(system.num_links(), rng),
            delays.sample(system.num_links(), rng),
        ],
    }
}

/// The six strategies, by index: chosen victim, exclusive framing,
/// maximum damage, obfuscation, minimum effort and node framing.
const STRATEGIES: usize = 6;

fn run(
    strategy: usize,
    system: &TomographySystem,
    attackers: &AttackerSet,
    scenario: &AttackScenario,
    d: &Draw,
    x: &Vector,
) -> Result<AttackOutcome, AttackError> {
    let victims = [d.victim];
    match strategy {
        0 => strategy::chosen_victim(system, attackers, scenario, x, &victims),
        1 => strategy::chosen_victim_exclusive(system, attackers, scenario, x, &victims),
        2 => strategy::max_damage(system, attackers, scenario, x),
        3 => strategy::obfuscation(system, attackers, scenario, x, MIN_VICTIMS),
        4 => strategy::min_effort_chosen_victim(system, attackers, scenario, x, &victims),
        _ => strategy::frame_node(system, attackers, scenario, x, d.node),
    }
}

/// Requires two results to agree bit for bit: the same error, or the same
/// verdict with the same manipulation, estimate, states, damage and
/// victims.
fn assert_same(
    got: &Result<AttackOutcome, AttackError>,
    want: &Result<AttackOutcome, AttackError>,
    what: &str,
) {
    let (got, want) = match (got, want) {
        (Ok(g), Ok(w)) => (g, w),
        (Err(g), Err(w)) => {
            assert_eq!(format!("{g:?}"), format!("{w:?}"), "{what}: errors differ");
            return;
        }
        _ => panic!("{what}: {got:?} against {want:?}"),
    };
    match (got.success(), want.success()) {
        (None, None) => {}
        (Some(g), Some(w)) => {
            let bits = |v: &Vector| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&g.manipulation), bits(&w.manipulation), "{what}: m");
            assert_eq!(bits(&g.estimate), bits(&w.estimate), "{what}: estimate");
            assert_eq!(g.states, w.states, "{what}: states");
            assert_eq!(g.damage.to_bits(), w.damage.to_bits(), "{what}: damage");
            assert_eq!(g.victims, w.victims, "{what}: victims");
        }
        _ => panic!(
            "{what}: success {} against {}",
            got.is_success(),
            want.is_success()
        ),
    }
}

/// Every strategy, stealthy then plain (the rational attacker's order),
/// on one shared set, each call against the same call on a fresh set.
/// The first pass keeps one `x`; the second alternates two `x` call by
/// call, so the shared set's cached context is replaced every time.
fn shared_matches_fresh(system: &TomographySystem, seed: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let base = AttackScenario::paper_defaults();
    for draw_index in 0..DRAWS {
        let d = draw(system, &mut rng);
        let shared = AttackerSet::new(system, d.nodes.clone()).unwrap();
        let passes: [&[usize]; 2] = [&[0], &[1, 0]];
        for (pass, xs) in passes.iter().enumerate() {
            for strategy in 0..STRATEGIES {
                for evade in [true, false] {
                    for &xi in *xs {
                        let scenario = base.with_evasion(evade);
                        let x = &d.xs[xi];
                        let got = run(strategy, system, &shared, &scenario, &d, x);
                        let fresh = AttackerSet::new(system, d.nodes.clone()).unwrap();
                        let want = run(strategy, system, &fresh, &scenario, &d, x);
                        let what = format!(
                            "seed {seed} draw {draw_index} pass {pass} strategy {strategy} \
                             evade {evade} x{xi}"
                        );
                        assert_same(&got, &want, &what);
                    }
                }
            }
        }
    }
}

#[test]
fn shared_context_matches_fresh_sets_on_fig1() {
    shared_matches_fresh(&fig1::fig1_system().unwrap(), 11);
}

#[test]
fn shared_context_matches_fresh_sets_on_an_isp_system() {
    shared_matches_fresh(&isp_system(5), 12);
}

/// Fig. 1 with its path order reversed: the same links and paths, under
/// other indices, so a coalition's attacked path indices from Fig. 1 name
/// other paths here, with other measurements and other LP rows.
fn fig1_reversed() -> TomographySystem {
    let a = fig1::fig1_system().unwrap();
    let mut paths = a.paths().to_vec();
    paths.reverse();
    TomographySystem::new(a.graph().clone(), a.monitors().to_vec(), paths).unwrap()
}

/// A set whose cache was filled on system A, used on system B with the
/// same `x`, must see B's clean measurements and estimate, and give the
/// outcomes of a set that never saw A. System A is dropped before B is
/// built, so B may reuse A's allocation.
#[test]
fn foreign_system_never_sees_a_cached_context() {
    let topo = fig1::fig1_topology();
    let x = Vector::from(vec![
        10.0, 12.0, 9.0, 11.0, 10.5, 8.0, 13.0, 10.0, 9.5, 11.5,
    ]);
    let scenario = AttackScenario::paper_defaults();
    let stealthy = AttackScenario::paper_defaults_stealthy();

    let a = Box::new(fig1::fig1_system().unwrap());
    let shared = AttackerSet::new(&a, topo.attackers.clone()).unwrap();
    let fresh = AttackerSet::new(&a, topo.attackers.clone()).unwrap();
    let on_a = ManipulationProblem::new(&a, &shared, stealthy, &x).unwrap();
    assert_eq!(on_a.clean_measurements(), &a.measure(&x).unwrap());
    drop(on_a);
    drop(a);

    let b = Box::new(fig1_reversed());
    let y_b = b.measure(&x).unwrap();
    let baseline_b = b.estimate(&y_b).unwrap();
    for s in [scenario, stealthy] {
        let prob = ManipulationProblem::new(&b, &shared, s, &x).unwrap();
        let bits = |v: &Vector| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(prob.clean_measurements()), bits(&y_b));
        assert_eq!(bits(prob.baseline_estimate()), bits(&baseline_b));
    }
    for victim in [topo.paper_link(1), topo.paper_link(9), topo.paper_link(10)] {
        for s in [stealthy, scenario] {
            let got = strategy::chosen_victim(&b, &shared, &s, &x, &[victim]);
            let want = strategy::chosen_victim(&b, &fresh, &s, &x, &[victim]);
            assert_same(&got, &want, &format!("victim {victim:?}"));
        }
    }
    let got = strategy::max_damage(&b, &shared, &scenario, &x);
    let want = strategy::max_damage(&b, &fresh, &scenario, &x);
    assert_same(&got, &want, "max damage on B");
}

/// The chosen-victim goals: the victims abnormal, the attacker links
/// normal.
fn chosen_goals(attackers: &AttackerSet, victim: LinkId) -> Vec<(LinkId, LinkGoal)> {
    let mut goals = vec![(victim, LinkGoal::Abnormal)];
    goals.extend(
        attackers
            .controlled_links()
            .iter()
            .map(|&l| (l, LinkGoal::Normal)),
    );
    goals
}

/// Maximum damage as it was written before the strategies kept only the
/// winning manipulation: an outcome for every feasible victim, the first
/// strictly larger damage wins.
fn reference_max_damage(
    system: &TomographySystem,
    attackers: &AttackerSet,
    scenario: &AttackScenario,
    x: &Vector,
) -> Result<AttackOutcome, AttackError> {
    let prob = ManipulationProblem::new(system, attackers, *scenario, x)?;
    let b_u = scenario.thresholds.upper();
    let mut best: Option<AttackOutcome> = None;
    for j in 0..system.num_links() {
        let victim = LinkId(j);
        if attackers.controls_link(victim) {
            continue;
        }
        let needed = b_u + scenario.margin - prob.baseline_estimate()[j];
        if prob.max_upward_shift(victim) < needed {
            continue;
        }
        let outcome = prob.solve(&chosen_goals(attackers, victim), &[victim])?;
        if let AttackOutcome::Success(ref s) = outcome {
            let better = match &best {
                Some(AttackOutcome::Success(b)) => s.damage > b.damage,
                _ => true,
            };
            if better {
                best = Some(outcome);
            }
        }
    }
    Ok(best.unwrap_or(AttackOutcome::Infeasible))
}

/// Obfuscation as it was written before: an outcome for every prefix it
/// solves, the floor probe's included.
fn reference_obfuscation(
    system: &TomographySystem,
    attackers: &AttackerSet,
    scenario: &AttackScenario,
    x: &Vector,
    min_victims: usize,
) -> Result<AttackOutcome, AttackError> {
    let prob = ManipulationProblem::new(system, attackers, *scenario, x)?;
    let b_l = scenario.thresholds.lower();
    let mut candidates: Vec<(LinkId, f64)> = (0..system.num_links())
        .map(LinkId)
        .filter(|&l| !attackers.controls_link(l))
        .map(|l| (l, prob.max_upward_shift(l)))
        .filter(|&(l, shift)| shift >= b_l + scenario.margin - prob.baseline_estimate()[l.index()])
        .collect();
    candidates.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
    let floor = min_victims.max(1);
    if candidates.len() < floor {
        return Ok(AttackOutcome::Infeasible);
    }
    let solve_prefix = |k: usize| {
        let victims: Vec<LinkId> = candidates[..k].iter().map(|&(l, _)| l).collect();
        let goals: Vec<(LinkId, LinkGoal)> = victims
            .iter()
            .chain(attackers.controlled_links())
            .map(|&l| (l, LinkGoal::Uncertain))
            .collect();
        prob.solve(&goals, &victims)
    };
    let full = solve_prefix(candidates.len())?;
    if full.is_success() {
        return Ok(full);
    }
    if !solve_prefix(floor)?.is_success() {
        return Ok(AttackOutcome::Infeasible);
    }
    let (mut lo, mut hi) = (floor, candidates.len());
    let mut best = None;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let outcome = solve_prefix(mid)?;
        if outcome.is_success() {
            best = Some(outcome);
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Ok(best.unwrap_or(AttackOutcome::Infeasible))
}

/// `max_damage` and `obfuscation` against the references that build an
/// outcome per candidate, stealthy and plain, on Fig. 1 and an ISP
/// system.
#[test]
fn one_outcome_strategies_match_the_every_candidate_reference() {
    let base = AttackScenario::paper_defaults();
    for (system, seed) in [(fig1::fig1_system().unwrap(), 21), (isp_system(5), 22)] {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for draw_index in 0..DRAWS {
            let d = draw(&system, &mut rng);
            let attackers = AttackerSet::new(&system, d.nodes.clone()).unwrap();
            for evade in [true, false] {
                let scenario = base.with_evasion(evade);
                let x = &d.xs[0];
                let what = format!("seed {seed} draw {draw_index} evade {evade}");
                let reference = AttackerSet::new(&system, d.nodes.clone()).unwrap();
                assert_same(
                    &strategy::max_damage(&system, &attackers, &scenario, x),
                    &reference_max_damage(&system, &reference, &scenario, x),
                    &format!("{what} max damage"),
                );
                for min_victims in [1, MIN_VICTIMS, params::OBFUSCATION_MIN_VICTIMS] {
                    assert_same(
                        &strategy::obfuscation(&system, &attackers, &scenario, x, min_victims),
                        &reference_obfuscation(&system, &reference, &scenario, x, min_victims),
                        &format!("{what} obfuscation min {min_victims}"),
                    );
                }
            }
        }
    }
}
