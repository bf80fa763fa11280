//! Defense evaluation — security-aware monitor placement (Section VI).
//!
//! The paper's discussion proposes a placement rule: after ensuring
//! identifiability, minimize each node's presence ratio on measurement
//! paths, "assuming that the node becomes compromised". This experiment
//! measures whether that actually helps: run the same single-attacker
//! max-damage campaign against a randomly placed system and against a
//! security-aware one (best of `trials` placements), and compare success
//! probabilities and exposure.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use tomo_attack::attacker::AttackerSet;
use tomo_attack::scenario::AttackScenario;
use tomo_attack::strategy;
use tomo_core::placement::{
    max_internal_presence_ratio, random_placement_on, security_aware_placement, PlacementConfig,
};
use tomo_core::{params, TomographySystem};
use tomo_graph::isp;
use tomo_par::{derive_seed, Executor};

use crate::{report, SimError};

/// Attack statistics against one placement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlacementDefenseStats {
    /// Worst single-node presence ratio (the Section VI metric).
    pub exposure: f64,
    /// Single-attacker max-damage success probability.
    pub attack_success: f64,
    /// Mean damage over successful attacks (ms).
    pub mean_damage: f64,
    /// Trials run.
    pub trials: usize,
}

/// Result of the defense comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DefenseResult {
    /// Master seed.
    pub seed: u64,
    /// Random placement under attack.
    pub random: PlacementDefenseStats,
    /// Security-aware placement under attack.
    pub secure: PlacementDefenseStats,
}

fn campaign(
    system: &TomographySystem,
    trials: usize,
    seed: u64,
    exec: &Executor,
) -> Result<PlacementDefenseStats, SimError> {
    let scenario = AttackScenario::paper_defaults();
    let delays = params::default_delay_model();
    let nodes: Vec<_> = system.graph().nodes().collect();
    if nodes.is_empty() {
        return Err(SimError("defense: topology has no nodes".into()));
    }
    let outcomes = exec.try_map(trials, |t| {
        let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(seed, t as u64));
        let attacker = *nodes
            .as_slice()
            .choose(&mut rng)
            .ok_or_else(|| SimError("defense: no candidate attacker nodes".into()))?;
        let attackers = AttackerSet::new(system, vec![attacker])?;
        let x = delays.sample(system.num_links(), &mut rng);
        let outcome = strategy::max_damage(system, &attackers, &scenario, &x)?;
        Ok::<_, SimError>(outcome.success().map(|s| s.damage))
    })?;
    let mut successes = 0usize;
    let mut damage_sum = 0.0;
    for damage in outcomes.into_iter().flatten() {
        successes += 1;
        damage_sum += damage;
    }
    Ok(PlacementDefenseStats {
        exposure: max_internal_presence_ratio(system),
        attack_success: successes as f64 / trials.max(1) as f64,
        mean_damage: if successes > 0 {
            damage_sum / successes as f64
        } else {
            0.0
        },
        trials,
    })
}

/// Runs the defense comparison on one seeded ISP topology, fanning
/// attack trials and each placement's Yen calls out over `exec` (the
/// best-of placement search itself stays sequential — it draws from one
/// shared RNG stream).
///
/// # Errors
///
/// Returns [`SimError`] on substrate failure.
pub fn run_defense(
    seed: u64,
    trials: usize,
    placement_trials: usize,
    exec: &Executor,
) -> Result<DefenseResult, SimError> {
    let _span = tomo_obs::span("sim.defense");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let graph = isp::generate(&isp::IspConfig::default(), &mut rng)?;
    let cfg = PlacementConfig::default();

    let mut rng_a = ChaCha8Rng::seed_from_u64(seed ^ 0xd3f);
    let random_system = random_placement_on(&graph, &cfg, &mut rng_a, exec)?;
    let mut rng_b = ChaCha8Rng::seed_from_u64(seed ^ 0xd3f);
    let secure_system = security_aware_placement(&graph, &cfg, placement_trials, &mut rng_b, exec)?;

    Ok(DefenseResult {
        seed,
        random: campaign(&random_system, trials, seed ^ 0xaaaa, exec)?,
        secure: campaign(&secure_system, trials, seed ^ 0xaaaa, exec)?,
    })
}

/// Renders the comparison table.
#[must_use]
pub fn render_defense(result: &DefenseResult) -> String {
    let row = |s: &PlacementDefenseStats| {
        format!(
            "{:>7.1}%   {:>8.1}%   {:>10.0} ms",
            s.exposure * 100.0,
            s.attack_success * 100.0,
            s.mean_damage
        )
    };
    report::two_column_table(
        &format!(
            "Section VI defense — random vs security-aware placement \
             ({} attack trials each)",
            result.random.trials
        ),
        ("placement", "exposure   success     mean damage"),
        &[
            ("random".to_string(), row(&result.random)),
            ("security-aware".to_string(), row(&result.secure)),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defense_lowers_exposure() {
        let r = run_defense(11, 10, 5, &Executor::single_threaded()).unwrap();
        // Security-aware placement minimizes exposure over the same RNG
        // stream, so it can never be worse.
        assert!(r.secure.exposure <= r.random.exposure + 1e-12);
        assert!((0.0..=1.0).contains(&r.random.attack_success));
        assert!((0.0..=1.0).contains(&r.secure.attack_success));
        assert_eq!(r.random.trials, 10);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_defense(4, 5, 3, &Executor::single_threaded()).unwrap();
        let b = run_defense(4, 5, 3, &Executor::new(4)).unwrap();
        assert_eq!(a.random, b.random);
        assert_eq!(a.secure, b.secure);
    }

    #[test]
    fn render_contains_both_rows() {
        let r = run_defense(11, 4, 3, &Executor::single_threaded()).unwrap();
        let s = render_defense(&r);
        assert!(s.contains("random"));
        assert!(s.contains("security-aware"));
        assert!(s.contains("exposure"));
    }
}
