//! Fig. 7 — chosen-victim success probability vs. attack presence
//! ratio, on wireline and wireless topologies.
//!
//! The paper's headline feasibility result: success probability grows
//! with the fraction of victim-crossing paths the attackers sit on
//! (Theorem 2), reaching certainty at ratio 1 (Theorem 1), with the
//! sparser wireless topology trailing the wireline one.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use tomo_attack::montecarlo::{chosen_victim_trial, ChosenVictimTrial, RatioBins};
use tomo_attack::scenario::AttackScenario;
use tomo_core::params;
use tomo_par::{derive_seed, Executor};

use crate::topologies::{build_system, NetworkKind};
use crate::{report, SimError};

/// Fig. 7 experiment configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fig7Config {
    /// Independent topology/placement instances per network kind.
    pub num_systems: usize,
    /// Attack trials per instance.
    pub trials_per_system: usize,
    /// Attacker-count range: each trial samples `1..=max_attackers`.
    pub max_attackers: usize,
    /// Presence-ratio bins over `[0, 1]`.
    pub bins: usize,
}

impl Default for Fig7Config {
    fn default() -> Self {
        Fig7Config {
            num_systems: 3,
            trials_per_system: 120,
            max_attackers: 4,
            bins: 10,
        }
    }
}

/// One network family's curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig7Series {
    /// Which family.
    pub kind: String,
    /// Binned success probabilities.
    pub bins: RatioBins,
    /// Total usable trials.
    pub trials: usize,
}

/// Structured Fig. 7 result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig7Result {
    /// Master seed.
    pub seed: u64,
    /// Configuration used.
    pub config: Fig7Config,
    /// Wireline curve.
    pub wireline: Fig7Series,
    /// Wireless curve.
    pub wireless: Fig7Series,
}

fn run_family(
    kind: NetworkKind,
    config: &Fig7Config,
    master_seed: u64,
    exec: &Executor,
) -> Result<Fig7Series, SimError> {
    let scenario = AttackScenario::paper_defaults();
    let delay_model = params::default_delay_model();
    let mut trials: Vec<ChosenVictimTrial> = Vec::new();

    for s in 0..config.num_systems {
        // Separate streams per family and instance.
        let sys_seed = master_seed
            .wrapping_mul(1_000_003)
            .wrapping_add(s as u64)
            .wrapping_add(match kind {
                NetworkKind::Wireline => 0,
                NetworkKind::Wireless => 500_000,
            });
        let system = build_system(kind, sys_seed, exec)?;
        let trial_seed = sys_seed ^ 0xabcd_ef01;
        let outcomes = exec.try_map(
            config.trials_per_system,
            |t| -> Result<_, tomo_attack::AttackError> {
                let stream_seed = derive_seed(trial_seed, t as u64);
                let mut rng = ChaCha8Rng::seed_from_u64(stream_seed);
                let k = rng.gen_range(1..=config.max_attackers.max(1));
                let trial = chosen_victim_trial(&system, &scenario, &delay_model, k, &mut rng)?;
                if tomo_obs::tracing_enabled() {
                    tomo_obs::record_trial(tomo_obs::TrialProvenance {
                        experiment: format!("fig7.{kind}.s{s}"),
                        trial: t as u64,
                        seed: stream_seed,
                        success: trial.as_ref().map(|r| r.success),
                        ..tomo_obs::TrialProvenance::default()
                    });
                }
                Ok(trial)
            },
        )?;
        trials.extend(outcomes.into_iter().flatten());
    }
    Ok(Fig7Series {
        kind: kind.to_string(),
        bins: RatioBins::from_trials(&trials, config.bins),
        trials: trials.len(),
    })
}

/// Runs the Fig. 7 experiment, fanning trials out over `exec`.
///
/// Each trial draws from its own `(seed, trial)`-derived RNG stream and
/// results are merged in trial order, so the output is bit-identical for
/// every thread count.
///
/// # Errors
///
/// Returns [`SimError`] on substrate failure.
pub fn run(seed: u64, config: &Fig7Config, exec: &Executor) -> Result<Fig7Result, SimError> {
    let _span = tomo_obs::span("sim.fig7");
    Ok(Fig7Result {
        seed,
        config: *config,
        wireline: run_family(NetworkKind::Wireline, config, seed, exec)?,
        wireless: run_family(NetworkKind::Wireless, config, seed, exec)?,
    })
}

/// Renders both curves as a table of per-bin success probabilities.
#[must_use]
pub fn render(result: &Fig7Result) -> String {
    let fmt_prob = |p: Option<f64>| match p {
        Some(v) => format!("{:>6.1}%", v * 100.0),
        None => "     —".into(),
    };
    let mut rows = Vec::new();
    for k in 0..result.wireline.bins.len() {
        let lo = result.wireline.bins.edges[k];
        let hi = result.wireline.bins.edges[k + 1];
        rows.push((
            format!("[{:.0}%, {:.0}%)", lo * 100.0, hi * 100.0),
            format!(
                "{} ({:>3})   {} ({:>3})",
                fmt_prob(result.wireline.bins.probability(k)),
                result.wireline.bins.counts[k],
                fmt_prob(result.wireless.bins.probability(k)),
                result.wireless.bins.counts[k],
            ),
        ));
    }
    report::two_column_table(
        &format!(
            "Fig. 7 — chosen-victim success probability vs attack presence ratio\n\
             ({} wireline / {} wireless trials)",
            result.wireline.trials, result.wireless.trials
        ),
        ("presence ratio", "wireline (n)   wireless (n)"),
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> Fig7Config {
        Fig7Config {
            num_systems: 1,
            trials_per_system: 40,
            max_attackers: 3,
            bins: 5,
        }
    }

    #[test]
    fn fig7_curves_have_the_paper_shape() {
        let r = run(11, &small_config(), &Executor::single_threaded()).unwrap();
        assert!(r.wireline.trials > 0);
        assert!(r.wireless.trials > 0);

        for series in [&r.wireline, &r.wireless] {
            // Success probability in the top bin dominates the bottom bin
            // (monotone trend, Theorem 2), whenever both are populated.
            let lowest = (0..series.bins.len()).find_map(|k| series.bins.probability(k));
            let highest = (0..series.bins.len())
                .rev()
                .find_map(|k| series.bins.probability(k));
            if let (Some(lo), Some(hi)) = (lowest, highest) {
                assert!(
                    hi >= lo,
                    "{}: high-ratio bin {hi} < low-ratio bin {lo}",
                    series.kind
                );
            }
            // Perfect cuts (ratio = 1) always succeed (Theorem 1): the
            // last bin, when populated by perfect cuts, is 1.0 — checked
            // statistically via the montecarlo unit tests; here we only
            // require it to be the maximum.
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run(4, &small_config(), &Executor::single_threaded()).unwrap();
        let b = run(4, &small_config(), &Executor::new(4)).unwrap();
        assert_eq!(a.wireline.bins.successes, b.wireline.bins.successes);
        assert_eq!(a.wireless.bins.counts, b.wireless.bins.counts);
    }

    #[test]
    fn render_contains_table() {
        let r = run(11, &small_config(), &Executor::single_threaded()).unwrap();
        let s = render(&r);
        assert!(s.contains("Fig. 7"));
        assert!(s.contains("presence ratio"));
        assert!(s.contains('%'));
    }
}
