//! Wireline scenario: a single compromised router inside an AS-scale ISP
//! backbone frames an innocent link.
//!
//! This is the paper's motivating deployment (its intro cites malicious
//! autonomous systems and backdoor-infected routers): an operator runs
//! tomography over an ISP topology, one internal router is compromised,
//! and the operator's diagnosis gets redirected to a healthy link —
//! followed by the security-aware monitor-placement defense from the
//! paper's Section VI discussion.
//!
//! Run with: `cargo run --example isp_scapegoating`

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use scapegoat_tomography::core::placement::{
    max_internal_presence_ratio, security_aware_placement,
};
use scapegoat_tomography::graph::isp::{self, IspConfig};
use scapegoat_tomography::par::Executor;
use scapegoat_tomography::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = ChaCha8Rng::seed_from_u64(1221);

    // ---- 1. AS1221-scale backbone + monitor placement --------------------
    let graph = isp::generate(&IspConfig::default(), &mut rng)?;
    let system = random_placement(&graph, &PlacementConfig::default(), &mut rng)?;
    println!(
        "ISP topology: {} routers, {} links | {} monitors, {} measurement paths",
        graph.num_nodes(),
        graph.num_links(),
        system.monitors().len(),
        system.num_paths()
    );

    // ---- 2. One compromised internal router ------------------------------
    // Identifiability forces most routers to double as monitors, and the
    // paper allows compromised monitors (Section II-D): pick the busiest
    // router as the compromised one.
    let compromised = system
        .graph()
        .nodes()
        .max_by_key(|&n| system.paths_through_nodes(&[n]).len())
        .expect("nonempty graph");
    let attackers = AttackerSet::new(&system, vec![compromised])?;
    println!(
        "compromised router: {} (on {}/{} measurement paths, controls {} links)",
        system.graph().label(compromised)?,
        attackers.attacked_paths().len(),
        system.num_paths(),
        attackers.controlled_links().len()
    );

    // ---- 3. Maximum-damage scapegoating ----------------------------------
    let delays = params::default_delay_model();
    let x = delays.sample(system.num_links(), &mut rng);
    let scenario = AttackScenario::paper_defaults();
    let outcome = max_damage(&system, &attackers, &scenario, &x)?;
    match outcome.success() {
        Some(s) => {
            let framed: Vec<String> = s
                .states
                .iter()
                .enumerate()
                .filter(|(_, &st)| st == LinkState::Abnormal)
                .map(|(j, _)| {
                    let (a, b) = system.graph().endpoints(LinkId(j)).expect("valid link");
                    format!(
                        "{}–{}",
                        system.graph().label(a).unwrap_or("?"),
                        system.graph().label(b).unwrap_or("?")
                    )
                })
                .collect();
            println!(
                "\nattack feasible: damage ‖m‖₁ = {:.0} ms, framed links: {}",
                s.damage,
                framed.join(", ")
            );
            // All of the attacker's own links look healthy.
            let own_ok = attackers
                .controlled_links()
                .iter()
                .all(|&l| s.states[l.index()] == LinkState::Normal);
            println!("attacker's own links all classify normal: {own_ok}");

            // ---- 4. Detection -------------------------------------------
            let y_attacked = &system.measure(&x)? + &s.manipulation;
            let verdict = ConsistencyDetector::paper_default().inspect(&system, &y_attacked)?;
            println!(
                "consistency check: residual {:.1} ms → {}",
                verdict.residual_l1,
                if verdict.detected {
                    "detected"
                } else {
                    "missed"
                }
            );
        }
        None => println!("\nthis router cannot frame anyone (attack infeasible)"),
    }

    // ---- 5. Defense: security-aware placement (Section VI) ---------------
    let baseline_exposure = max_internal_presence_ratio(&system);
    let hardened = security_aware_placement(
        &graph,
        &PlacementConfig::default(),
        8,
        &mut rng,
        &Executor::from_env(),
    )?;
    let hardened_exposure = max_internal_presence_ratio(&hardened);
    println!(
        "\nworst single-router presence ratio: random placement {:.0}% → security-aware {:.0}%",
        baseline_exposure * 100.0,
        hardened_exposure * 100.0
    );
    Ok(())
}
