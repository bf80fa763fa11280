//! Fig. 8 — single-attacker maximum-damage and obfuscation success
//! probabilities on wireline and wireless topologies.
//!
//! "Because the number of malicious or compromised nodes is usually
//! limited in practice", the paper asks what a *single* random attacker
//! can do. Shape criteria: even one attacker often succeeds; max-damage
//! is more likely than obfuscation (which must push ≥ 5 victim links into
//! the uncertain band).

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use tomo_attack::montecarlo::{max_damage_trial, obfuscation_trial};
use tomo_attack::scenario::AttackScenario;
use tomo_core::params;
use tomo_par::{derive_seed, Executor};

use crate::topologies::{build_system, NetworkKind};
use crate::{report, SimError};

/// Fig. 8 experiment configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fig8Config {
    /// Independent topology/placement instances per network kind.
    pub num_systems: usize,
    /// Trials per instance per strategy.
    pub trials_per_system: usize,
    /// Minimum uncertain victims for obfuscation success (paper: 5).
    pub obfuscation_min_victims: usize,
}

impl Default for Fig8Config {
    fn default() -> Self {
        Fig8Config {
            num_systems: 2,
            trials_per_system: 30,
            obfuscation_min_victims: params::OBFUSCATION_MIN_VICTIMS,
        }
    }
}

/// Success probabilities of one network family.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Fig8Series {
    /// Max-damage success probability.
    pub max_damage: f64,
    /// Obfuscation success probability.
    pub obfuscation: f64,
    /// Trials per strategy.
    pub trials: usize,
    /// Mean damage over successful max-damage attacks (ms).
    pub mean_damage: f64,
}

/// Structured Fig. 8 result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig8Result {
    /// Master seed.
    pub seed: u64,
    /// Configuration used.
    pub config: Fig8Config,
    /// Wireline probabilities.
    pub wireline: Fig8Series,
    /// Wireless probabilities.
    pub wireless: Fig8Series,
}

fn run_family(
    kind: NetworkKind,
    config: &Fig8Config,
    master_seed: u64,
    exec: &Executor,
) -> Result<Fig8Series, SimError> {
    let scenario = AttackScenario::paper_defaults();
    let delay_model = params::default_delay_model();
    let mut md_success = 0usize;
    let mut ob_success = 0usize;
    let mut damage_sum = 0.0;
    let mut trials = 0usize;

    for s in 0..config.num_systems {
        let sys_seed = master_seed
            .wrapping_mul(7_777_777)
            .wrapping_add(s as u64)
            .wrapping_add(match kind {
                NetworkKind::Wireline => 0,
                NetworkKind::Wireless => 900_000,
            });
        let system = build_system(kind, sys_seed, exec)?;
        let trial_seed = sys_seed ^ 0x5a5a_5a5a;
        let outcomes = exec.try_map(config.trials_per_system, |t| {
            let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(trial_seed, t as u64));
            let md = max_damage_trial(&system, &scenario, &delay_model, &mut rng)?;
            let ob = obfuscation_trial(
                &system,
                &scenario,
                &delay_model,
                config.obfuscation_min_victims,
                &mut rng,
            )?;
            Ok::<_, SimError>((md.success, md.damage, ob.success))
        })?;
        for (md_ok, damage, ob_ok) in outcomes {
            trials += 1;
            if md_ok {
                md_success += 1;
                damage_sum += damage;
            }
            if ob_ok {
                ob_success += 1;
            }
        }
    }
    Ok(Fig8Series {
        max_damage: md_success as f64 / trials.max(1) as f64,
        obfuscation: ob_success as f64 / trials.max(1) as f64,
        trials,
        mean_damage: if md_success > 0 {
            damage_sum / md_success as f64
        } else {
            0.0
        },
    })
}

/// Runs the Fig. 8 experiment, fanning trials out over `exec`.
///
/// Each trial draws from its own `(seed, trial)`-derived RNG stream and
/// tallies are folded in trial order, so the output is bit-identical for
/// every thread count.
///
/// # Errors
///
/// Returns [`SimError`] on substrate failure.
pub fn run(seed: u64, config: &Fig8Config, exec: &Executor) -> Result<Fig8Result, SimError> {
    let _span = tomo_obs::span("sim.fig8");
    Ok(Fig8Result {
        seed,
        config: *config,
        wireline: run_family(NetworkKind::Wireline, config, seed, exec)?,
        wireless: run_family(NetworkKind::Wireless, config, seed, exec)?,
    })
}

/// Renders the four probabilities as a table.
#[must_use]
pub fn render(result: &Fig8Result) -> String {
    let rows = vec![
        (
            "maximum-damage".to_string(),
            format!(
                "{:>6.1}%          {:>6.1}%",
                result.wireline.max_damage * 100.0,
                result.wireless.max_damage * 100.0
            ),
        ),
        (
            "obfuscation".to_string(),
            format!(
                "{:>6.1}%          {:>6.1}%",
                result.wireline.obfuscation * 100.0,
                result.wireless.obfuscation * 100.0
            ),
        ),
    ];
    report::two_column_table(
        &format!(
            "Fig. 8 — single-attacker success probabilities\n\
             ({} trials per strategy per family; obfuscation needs ≥ {} uncertain victims)",
            result.wireline.trials, result.config.obfuscation_min_victims
        ),
        ("strategy", "wireline         wireless"),
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> Fig8Config {
        Fig8Config {
            num_systems: 1,
            trials_per_system: 8,
            obfuscation_min_victims: 5,
        }
    }

    #[test]
    fn fig8_shape_holds() {
        let r = run(21, &small_config(), &Executor::single_threaded()).unwrap();
        for series in [&r.wireline, &r.wireless] {
            assert!((0.0..=1.0).contains(&series.max_damage));
            assert!((0.0..=1.0).contains(&series.obfuscation));
            // Paper: max-damage is at least as likely as obfuscation.
            assert!(
                series.max_damage >= series.obfuscation,
                "max-damage {} < obfuscation {}",
                series.max_damage,
                series.obfuscation
            );
        }
        // Paper: "even one single attacker is likely to succeed" — some
        // trials must succeed somewhere.
        assert!(r.wireline.max_damage + r.wireless.max_damage > 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run(2, &small_config(), &Executor::single_threaded()).unwrap();
        let b = run(2, &small_config(), &Executor::new(4)).unwrap();
        assert_eq!(a.wireline.max_damage, b.wireline.max_damage);
        assert_eq!(a.wireless.obfuscation, b.wireless.obfuscation);
    }

    #[test]
    fn render_contains_table() {
        let r = run(21, &small_config(), &Executor::single_threaded()).unwrap();
        let s = render(&r);
        assert!(s.contains("Fig. 8"));
        assert!(s.contains("maximum-damage"));
        assert!(s.contains("obfuscation"));
    }
}
