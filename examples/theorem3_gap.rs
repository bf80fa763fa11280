//! A gap in Theorem 3, demonstrated live.
//!
//! Theorem 3 of the paper says imperfect-cut scapegoating always trips
//! the consistency check `R x̂ ≟ y′`. This reproduction found that at AS
//! scale the claim only holds under the proof's hidden assumption (the
//! attacker distorts nothing but victim/own links): an attacker willing
//! to leave *negative* link estimates behind can frame an imperfectly
//! cut victim with perfectly consistent measurements. The operator's fix
//! is a plausibility check — delays cannot be negative.
//!
//! Run with: `cargo run --release --example theorem3_gap`

use rand::seq::SliceRandom;
use rand::Rng as _;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use scapegoat_tomography::attack::cut::{analyze_cut, CutKind};
use scapegoat_tomography::par::Executor;
use scapegoat_tomography::prelude::*;
use scapegoat_tomography::sim::topologies::{build_system, NetworkKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let system = build_system(NetworkKind::Wireline, 13, &Executor::from_env())?;
    println!(
        "AS-scale system: {} links, {} measurement paths ({} redundant rows)",
        system.num_links(),
        system.num_paths(),
        system.num_paths() - system.num_links()
    );

    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let nodes: Vec<NodeId> = system.graph().nodes().collect();
    let delays = params::default_delay_model();

    for attempt in 0..300 {
        let mut sh = nodes.clone();
        sh.shuffle(&mut rng);
        sh.truncate(rng.gen_range(1..=2));
        let attackers = AttackerSet::new(&system, sh)?;
        let candidates: Vec<LinkId> = (0..system.num_links())
            .map(LinkId)
            .filter(|&l| !attackers.controls_link(l))
            .collect();
        let Some(&victim) = candidates.as_slice().choose(&mut rng) else {
            continue;
        };
        let cut = analyze_cut(&system, &attackers, &[victim]);
        if cut.kind != CutKind::Imperfect {
            continue;
        }
        let x = delays.sample(system.num_links(), &mut rng);

        let honest = chosen_victim(
            &system,
            &attackers,
            &AttackScenario::paper_defaults_stealthy(),
            &x,
            &[victim],
        )?;
        let exploit = chosen_victim(
            &system,
            &attackers,
            &AttackScenario::paper_defaults_implausible_evader(),
            &x,
            &[victim],
        )?;
        let Some(s) = exploit.success() else { continue };

        println!(
            "\nattempt {attempt}: victim {victim} imperfectly cut \
             (presence ratio {:.0}%)",
            cut.presence_ratio() * 100.0
        );
        println!(
            "honest stealthy LP (consistency + plausibility): {}",
            if honest.is_success() {
                "FEASIBLE (?!)"
            } else {
                "infeasible — as Theorem 3 predicts"
            }
        );
        println!(
            "gap-exploiting LP  (consistency only):           FEASIBLE, damage {:.0} ms",
            s.damage
        );

        let y_attacked = &system.measure(&x)? + &s.manipulation;
        let estimate = system.estimate(&y_attacked)?;
        let worst = estimate.min().unwrap_or(0.0);
        println!(
            "\ntomography now reports: victim at {:.0} ms (framed abnormal), \
             worst other estimate {:.0} ms (negative!)",
            estimate[victim.index()],
            worst
        );

        let pure = ConsistencyDetector::paper_default().inspect(&system, &y_attacked)?;
        println!(
            "paper's Eq. 23 detector:    residual {:.4} ms → {}",
            pure.residual_l1,
            if pure.detected { "detected" } else { "MISSED" }
        );
        let rec = ConsistencyDetector::recommended().inspect(&system, &y_attacked)?;
        println!(
            "recommended detector:       min estimate {:.0} ms → {}",
            rec.min_estimate,
            if rec.detected {
                "DETECTED (plausibility check)"
            } else {
                "missed"
            }
        );
        println!("\nconclusion: pair the consistency check with x̂ ⪰ 0 — see DESIGN.md.");
        return Ok(());
    }
    println!("no exploitable instance found (try another seed)");
    Ok(())
}
