//! End-to-end integration across the two large topology families the
//! paper evaluates on (wireline ISP, wireless RGG), exercising the full
//! stack: generation → placement → attack → detection → experiment
//! runners.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use scapegoat_tomography::par::Executor;
use scapegoat_tomography::prelude::*;
use scapegoat_tomography::sim::topologies::{build_system, NetworkKind};

#[test]
fn wireline_pipeline() {
    let system = build_system(NetworkKind::Wireline, 11, &Executor::from_env()).unwrap();
    run_family_pipeline(system, 11);
}

#[test]
fn wireless_pipeline() {
    let system = build_system(NetworkKind::Wireless, 12, &Executor::from_env()).unwrap();
    run_family_pipeline(system, 12);
}

fn run_family_pipeline(system: TomographySystem, seed: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // Identifiability invariants.
    assert!(system.num_paths() > system.num_links(), "need redundancy");
    assert_eq!(
        tomo_rank(&system),
        system.num_links(),
        "routing matrix must have full column rank"
    );

    // Clean tomography is exact.
    let x = params::default_delay_model().sample(system.num_links(), &mut rng);
    let y = system.measure(&x).unwrap();
    let x_hat = system.estimate(&y).unwrap();
    assert!(x_hat.approx_eq(&x, 1e-6));

    // A well-connected attacker usually succeeds at max-damage. Note
    // that on leaf-heavy topologies identifiability forces most nodes to
    // be monitors, and the paper explicitly allows compromised monitors
    // (Section II-D) — so the attacker is simply the busiest node.
    let attacker = system
        .graph()
        .nodes()
        .max_by_key(|&n| system.paths_through_nodes(&[n]).len())
        .expect("nonempty graph");
    let attackers = AttackerSet::new(&system, vec![attacker]).unwrap();
    let scenario = AttackScenario::paper_defaults();
    let outcome = max_damage(&system, &attackers, &scenario, &x).unwrap();

    if let Some(s) = outcome.success() {
        // Attacker links look healthy; someone innocent is framed.
        for &l in attackers.controlled_links() {
            assert_eq!(s.states[l.index()], LinkState::Normal);
        }
        assert!(s
            .states
            .iter()
            .enumerate()
            .any(|(j, &st)| st == LinkState::Abnormal && !attackers.controls_link(LinkId(j))));
        // Constraint 1.
        assert!(
            scapegoat_tomography::attack::manipulation::satisfies_constraint_1(
                &s.manipulation,
                &attackers,
                scenario.path_cap,
                1e-6
            )
        );
        // Detection verdict matches the cut structure (Theorem 3).
        let cut = analyze_cut(&system, &attackers, &s.victims);
        let y_attacked = &y + &s.manipulation;
        let verdict = ConsistencyDetector::paper_default()
            .inspect(&system, &y_attacked)
            .unwrap();
        if cut.kind == CutKind::Imperfect {
            assert!(verdict.detected, "imperfect-cut attack must be caught");
        }
    }
}

fn tomo_rank(system: &TomographySystem) -> usize {
    scapegoat_tomography::linalg::rank::rank(&system.routing_csr().to_dense())
}

#[test]
fn experiment_runners_are_consistent_with_direct_calls() {
    // fig4 runner and a direct strategy call agree on the same seed.
    let r = scapegoat_tomography::sim::fig4::run(123).unwrap();
    let system = fig1_system().unwrap();
    let topo = fig1_topology();
    let attackers = AttackerSet::new(&system, topo.attackers.clone()).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(123);
    let x = params::default_delay_model().sample(system.num_links(), &mut rng);
    assert_eq!(r.true_delays, x.as_slice());
    let outcome = chosen_victim_exclusive(
        &system,
        &attackers,
        &AttackScenario::paper_defaults(),
        &x,
        &[topo.paper_link(10)],
    )
    .unwrap();
    let s = outcome.success().unwrap();
    assert_eq!(r.damage, s.damage);
}

#[test]
fn loss_metric_pipeline_via_log_domain() {
    // The additive machinery is metric-agnostic: run the whole attack
    // pipeline on loss ratios in the log domain (paper Section II-A).
    use scapegoat_tomography::core::metrics;

    let system = fig1_system().unwrap();
    let topo = fig1_topology();
    let attackers = AttackerSet::new(&system, topo.attackers.clone()).unwrap();

    // True loss ratios of 1% per link → additive metrics.
    let losses = Vector::filled(10, 0.01);
    let x = metrics::loss_vector_to_additive(&losses).unwrap();

    // Loss-domain thresholds: normal < 5% loss, abnormal > 50% loss.
    let thresholds = StateThresholds::new(
        metrics::loss_to_additive(0.05).unwrap(),
        metrics::loss_to_additive(0.50).unwrap(),
    )
    .unwrap();
    let scenario = AttackScenario::new(
        thresholds,
        metrics::loss_to_additive(0.95).unwrap(), // cap: ≤95% added path loss
        1e-4,
    )
    .unwrap();

    let victim = topo.paper_link(10);
    let outcome = chosen_victim(&system, &attackers, &scenario, &x, &[victim]).unwrap();
    let s = outcome.success().expect("loss-domain attack feasible");
    // The victim's implied loss ratio exceeds 50%.
    let implied_loss = metrics::additive_to_loss(s.estimate[victim.index()]).unwrap();
    assert!(implied_loss > 0.5, "implied loss {implied_loss}");
    // Attacker links stay below 5% implied loss.
    for &l in attackers.controlled_links() {
        let loss = metrics::additive_to_loss(s.estimate[l.index()]).unwrap();
        assert!(loss < 0.05, "link {l}: {loss}");
    }
}
