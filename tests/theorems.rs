//! Cross-crate property tests of the paper's three theorems on random
//! instances (not just the Fig. 1 example).

use proptest::prelude::*;
use rand::Rng as _;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use scapegoat_tomography::attack::cut::{analyze_cut, CutKind};
use scapegoat_tomography::prelude::*;

/// Builds a random identifiable system on an ISP-like topology.
fn random_system(seed: u64) -> TomographySystem {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let config = scapegoat_tomography::graph::isp::IspConfig {
        backbone_nodes: 6,
        backbone_chords: 4,
        access_nodes: 14,
        multihoming_prob: 0.6,
    };
    let graph = scapegoat_tomography::graph::isp::generate(&config, &mut rng).unwrap();
    random_placement(&graph, &PlacementConfig::default(), &mut rng).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Theorem 1: whenever random attackers PERFECTLY cut a random
    /// victim, chosen-victim scapegoating is feasible.
    #[test]
    fn theorem_1_perfect_cut_implies_feasible(seed in 0u64..300) {
        let system = random_system(seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xfeed);
        let nodes: Vec<NodeId> = system.graph().nodes().collect();
        // Random attacker pair + random victim they don't control.
        let a1 = nodes[rng.gen_range(0..nodes.len())];
        let a2 = nodes[rng.gen_range(0..nodes.len())];
        let attackers = AttackerSet::new(&system, vec![a1, a2]).unwrap();
        let candidates: Vec<LinkId> = (0..system.num_links())
            .map(LinkId)
            .filter(|&l| !attackers.controls_link(l))
            .collect();
        prop_assume!(!candidates.is_empty());
        let victim = candidates[rng.gen_range(0..candidates.len())];
        let cut = analyze_cut(&system, &attackers, &[victim]);
        prop_assume!(cut.kind == CutKind::Perfect);

        let x = params::default_delay_model().sample(system.num_links(), &mut rng);
        let outcome = chosen_victim(
            &system,
            &attackers,
            &AttackScenario::paper_defaults(),
            &x,
            &[victim],
        ).unwrap();
        prop_assert!(outcome.is_success(), "Theorem 1 violated at seed {seed}");
    }

    /// Theorem 3 (undetectable branch): the constructed perfect-cut
    /// attack leaves a residual of zero on random instances.
    #[test]
    fn theorem_3_perfect_cut_invisible(seed in 0u64..300) {
        let system = random_system(seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xbeef);
        let nodes: Vec<NodeId> = system.graph().nodes().collect();
        let a1 = nodes[rng.gen_range(0..nodes.len())];
        let a2 = nodes[rng.gen_range(0..nodes.len())];
        let attackers = AttackerSet::new(&system, vec![a1, a2]).unwrap();
        let candidates: Vec<LinkId> = (0..system.num_links())
            .map(LinkId)
            .filter(|&l| !attackers.controls_link(l))
            .collect();
        prop_assume!(!candidates.is_empty());
        let victim = candidates[rng.gen_range(0..candidates.len())];
        let cut = analyze_cut(&system, &attackers, &[victim]);
        prop_assume!(cut.kind == CutKind::Perfect);

        let x = params::default_delay_model().sample(system.num_links(), &mut rng);
        let outcome = perfect_cut_attack(
            &system,
            &attackers,
            &AttackScenario::paper_defaults(),
            &x,
            &[victim],
            params::B_U_MS + 100.0,
        ).unwrap();
        if let Some(s) = outcome.success() {
            let y_attacked = &system.measure(&x).unwrap() + &s.manipulation;
            let verdict = ConsistencyDetector::paper_default()
                .inspect(&system, &y_attacked)
                .unwrap();
            prop_assert!(!verdict.detected,
                "undetectability violated at seed {seed}: residual {}",
                verdict.residual_l1);
        }
        // (Infeasible here only means the per-path cap was exceeded.)
    }

    /// Theorem 3 (detectable branch): every successful plain (non-evasive)
    /// attack on an IMPERFECTLY cut victim is caught when the residual the
    /// attack creates exceeds α.
    #[test]
    fn theorem_3_imperfect_cut_detected(seed in 0u64..200) {
        let system = random_system(seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xcafe);
        let nodes: Vec<NodeId> = system.graph().nodes().collect();
        let a = nodes[rng.gen_range(0..nodes.len())];
        let attackers = AttackerSet::new(&system, vec![a]).unwrap();
        let candidates: Vec<LinkId> = (0..system.num_links())
            .map(LinkId)
            .filter(|&l| !attackers.controls_link(l))
            .collect();
        prop_assume!(!candidates.is_empty());
        let victim = candidates[rng.gen_range(0..candidates.len())];
        let cut = analyze_cut(&system, &attackers, &[victim]);
        prop_assume!(cut.kind == CutKind::Imperfect);

        let x = params::default_delay_model().sample(system.num_links(), &mut rng);
        // The stealthy variant must be infeasible (cannot evade)…
        let stealthy = chosen_victim(
            &system,
            &attackers,
            &AttackScenario::paper_defaults_stealthy(),
            &x,
            &[victim],
        ).unwrap();
        prop_assert!(!stealthy.is_success(),
            "imperfect cut evaded the consistency check at seed {seed}");
        // …and the plain attack, when feasible, is detected.
        let outcome = chosen_victim(
            &system,
            &attackers,
            &AttackScenario::paper_defaults(),
            &x,
            &[victim],
        ).unwrap();
        if let Some(s) = outcome.success() {
            let y_attacked = &system.measure(&x).unwrap() + &s.manipulation;
            // The recommended detector (consistency + plausibility): the
            // pure Eq. 23 check alone can be evaded at scale by
            // negative-estimate manipulations (see DESIGN.md).
            let verdict = ConsistencyDetector::recommended()
                .inspect(&system, &y_attacked)
                .unwrap();
            prop_assert!(verdict.detected,
                "imperfect-cut attack missed at seed {seed}: residual {}, min est {}",
                verdict.residual_l1, verdict.min_estimate);
        }
    }

    /// Constraint 1 universally holds on every successful strategy.
    #[test]
    fn constraint_1_always_holds(seed in 0u64..60) {
        let system = random_system(seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
        let nodes: Vec<NodeId> = system.graph().nodes().collect();
        let a = nodes[rng.gen_range(0..nodes.len())];
        let attackers = AttackerSet::new(&system, vec![a]).unwrap();
        let scenario = AttackScenario::paper_defaults();
        let x = params::default_delay_model().sample(system.num_links(), &mut rng);

        let outcomes = [
            max_damage(&system, &attackers, &scenario, &x).unwrap(),
            obfuscation(&system, &attackers, &scenario, &x, 2).unwrap(),
        ];
        for o in outcomes.iter().filter_map(|o| o.success()) {
            prop_assert!(
                scapegoat_tomography::attack::manipulation::satisfies_constraint_1(
                    &o.manipulation, &attackers, scenario.path_cap, 1e-6
                )
            );
        }
    }
}

/// Theorem 2 (statistical form): binned success probability is
/// substantially higher in high presence-ratio bins than low ones,
/// aggregated across many random instances.
#[test]
fn theorem_2_success_increases_with_presence_ratio() {
    use scapegoat_tomography::attack::montecarlo::{chosen_victim_trial, RatioBins};

    let scenario = AttackScenario::paper_defaults();
    let delays = params::default_delay_model();
    let mut trials = Vec::new();
    for seed in 0..6u64 {
        let system = random_system(1000 + seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x7e57);
        for _ in 0..25 {
            let k = rng.gen_range(1..=3);
            if let Some(t) = chosen_victim_trial(&system, &scenario, &delays, k, &mut rng).unwrap()
            {
                trials.push(t);
            }
        }
    }
    let bins = RatioBins::from_trials(&trials, 4);
    // Compare the lowest and highest populated bins.
    let low = (0..4).find_map(|k| bins.probability(k));
    let high = (0..4).rev().find_map(|k| bins.probability(k));
    let (low, high) = (low.expect("populated"), high.expect("populated"));
    assert!(
        high >= low,
        "success probability not increasing: low-bin {low} vs high-bin {high}"
    );
    // Perfect cuts (ratio 1.0 bin) succeed without exception (Theorem 1).
    for t in &trials {
        if t.perfect_cut {
            assert!(t.success);
        }
    }
}
