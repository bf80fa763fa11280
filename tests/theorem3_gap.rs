//! The Theorem 3 gap, packaged as an executable finding.
//!
//! Theorem 3 claims imperfect-cut scapegoating is always caught by the
//! Eq. (23) consistency check. Its proof implicitly assumes attackers
//! only distort victim/own-link estimates. Dropping that assumption, an
//! attacker can search for manipulations that are *consistent* but leave
//! physically impossible (negative) delay estimates on other links — and
//! at AS scale such manipulations exist for many imperfectly-cut
//! victims. This test demonstrates the full arc:
//!
//! 1. the honest stealthy LP (consistency + plausibility) is infeasible —
//!    Theorem 3's claim under its implicit assumption holds;
//! 2. the gap-exploiting LP (consistency only) is feasible;
//! 3. the paper's pure detector misses the exploit;
//! 4. the recommended detector (plausibility check) catches it.

use rand::seq::SliceRandom;
use rand::Rng as _;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use scapegoat_tomography::attack::cut::{analyze_cut, CutKind};
use scapegoat_tomography::par::Executor;
use scapegoat_tomography::prelude::*;
use scapegoat_tomography::sim::topologies::{build_system, NetworkKind};

/// Finds an instance where the gap is exploitable, then runs the arc.
#[test]
fn theorem3_gap_exploit_arc() {
    let system = build_system(NetworkKind::Wireline, 13, &Executor::from_env()).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let nodes: Vec<NodeId> = system.graph().nodes().collect();
    let delays = params::default_delay_model();

    let plausible = AttackScenario::paper_defaults_stealthy();
    let implausible = AttackScenario::paper_defaults_implausible_evader();
    let mut demonstrated = false;

    for _ in 0..300 {
        let mut sh = nodes.clone();
        sh.shuffle(&mut rng);
        sh.truncate(rng.gen_range(1..=2));
        let attackers = AttackerSet::new(&system, sh).unwrap();
        let candidates: Vec<LinkId> = (0..system.num_links())
            .map(LinkId)
            .filter(|&l| !attackers.controls_link(l))
            .collect();
        let Some(&victim) = candidates.as_slice().choose(&mut rng) else {
            continue;
        };
        if analyze_cut(&system, &attackers, &[victim]).kind != CutKind::Imperfect {
            continue;
        }
        let x = delays.sample(system.num_links(), &mut rng);

        // (1) Honest stealth is impossible on an imperfect cut.
        let honest = chosen_victim(&system, &attackers, &plausible, &x, &[victim]).unwrap();
        assert!(
            !honest.is_success(),
            "plausible evasion must be infeasible on imperfect cuts"
        );

        // (2) The gap exploit may be feasible. If not for this draw, try
        // the next one.
        let exploit = chosen_victim(&system, &attackers, &implausible, &x, &[victim]).unwrap();
        let Some(s) = exploit.success() else {
            continue;
        };

        // The victim is framed…
        assert_eq!(s.states[victim.index()], LinkState::Abnormal);

        let y_attacked = &system.measure(&x).unwrap() + &s.manipulation;

        // (3) …the paper's detector is blind (residual = 0 by construction)…
        let pure = ConsistencyDetector::paper_default()
            .inspect(&system, &y_attacked)
            .unwrap();
        assert!(
            pure.residual_l1 < 1e-4,
            "exploit must be consistent, residual {}",
            pure.residual_l1
        );
        assert!(!pure.detected, "Eq. 23 alone must miss the exploit");

        // …because the evidence hides in negative estimates…
        assert!(
            pure.min_estimate < -1.0,
            "exploit must leave implausible estimates, min {}",
            pure.min_estimate
        );

        // (4) …which the recommended detector reads.
        let recommended = ConsistencyDetector::recommended()
            .inspect(&system, &y_attacked)
            .unwrap();
        assert!(recommended.detected, "plausibility check must catch it");

        demonstrated = true;
        break;
    }
    assert!(
        demonstrated,
        "no exploitable instance found in 300 draws — gap demo failed"
    );
}

/// The gap does not help on the tiny Fig. 1 system: too few degrees of
/// freedom to hide negative offsets (10 links vs 23 constraints-rich
/// paths), so the implausible evader stays infeasible there.
#[test]
fn gap_is_scale_dependent_fig1_immune() {
    let system = fig1_system().unwrap();
    let topo = fig1_topology();
    let attackers = AttackerSet::new(&system, topo.attackers.clone()).unwrap();
    let x = Vector::filled(10, 10.0);
    let victim = topo.paper_link(10); // imperfectly cut
    let exploit = chosen_victim(
        &system,
        &attackers,
        &AttackScenario::paper_defaults_implausible_evader(),
        &x,
        &[victim],
    )
    .unwrap();
    assert!(
        !exploit.is_success(),
        "Fig. 1 has no room for the consistency exploit"
    );
}
