//! Noise robustness of the detector — extension beyond the paper.
//!
//! The paper's Fig. 9 is noise-free. Real deployments are not, and
//! Remark 4 concedes that `R x̂ = y′` only holds approximately. This
//! experiment sweeps the measurement-noise level σ and reports, for the
//! paper's α = 200 ms: the false-alarm rate on clean rounds, the
//! detection rate on imperfect-cut attacks, and both again for the
//! round-averaged statistic (`tomo-detect::rounds`), which restores
//! detection power once σ gets uncomfortable.

use rand::seq::SliceRandom;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use tomo_attack::attacker::AttackerSet;
use tomo_attack::cut::{analyze_cut, CutKind};
use tomo_attack::scenario::AttackScenario;
use tomo_attack::strategy;
use tomo_core::delay::GaussianNoise;
use tomo_core::{fig1, params};
use tomo_detect::rounds::run_campaign;
use tomo_detect::ConsistencyDetector;
use tomo_graph::LinkId;
use tomo_par::{derive_seed, Executor};

use crate::{report, SimError};

/// Operating statistics at one noise level.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseLevelStats {
    /// Noise standard deviation (ms).
    pub sigma: f64,
    /// Single-round false-alarm rate on clean measurements.
    pub false_alarm_single: f64,
    /// Single-round detection rate on imperfect-cut attacks.
    pub detection_single: f64,
    /// Campaign (averaged over `rounds`) false-alarm rate.
    pub false_alarm_campaign: f64,
    /// Campaign detection rate.
    pub detection_campaign: f64,
}

/// Result of the noise sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NoiseSweepResult {
    /// Master seed.
    pub seed: u64,
    /// Rounds averaged per campaign.
    pub rounds: usize,
    /// Stats per noise level.
    pub levels: Vec<NoiseLevelStats>,
}

/// Runs the sweep on the Fig. 1 network, fanning trials out over `exec`.
///
/// Each trial derives its own RNG stream from `(seed ^ σ, trial)` and its
/// campaigns run on a sequential inner executor (the fan-out happens at
/// the trial level); tallies fold in trial order, so the result is
/// bit-identical for every thread count.
///
/// # Errors
///
/// Returns [`SimError`] on substrate failure.
pub fn run_noise_sweep(
    seed: u64,
    sigmas: &[f64],
    trials: usize,
    rounds: usize,
    exec: &Executor,
) -> Result<NoiseSweepResult, SimError> {
    let _span = tomo_obs::span("sim.noise");
    let system = fig1::fig1_system()?;
    let detector = ConsistencyDetector::paper_default();
    let delay_model = params::default_delay_model();
    let scenario = AttackScenario::paper_defaults();
    let inner = Executor::single_threaded();
    let mut levels = Vec::with_capacity(sigmas.len());

    for &sigma in sigmas {
        let noise =
            GaussianNoise::new(sigma).ok_or_else(|| SimError(format!("invalid sigma {sigma}")))?;
        let level_seed = seed ^ sigma.to_bits();

        // Per trial: (single false alarm, campaign false alarm, and — when
        // an imperfect-cut attack materialized — its detection outcomes).
        let outcomes = exec.try_map(trials, |t| {
            let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(level_seed, t as u64));
            let x = delay_model.sample(system.num_links(), &mut rng);

            // Clean rounds.
            let clean_seed = rng.next_u64();
            let clean = run_campaign(
                &system, &detector, &x, None, &noise, rounds, clean_seed, &inner,
            )?;
            let fa_single = clean.per_round_residuals[0] > detector.alpha();
            let fa_campaign = clean.mean_detected;

            // One imperfect-cut chosen-victim attack (random attackers).
            let mut nodes: Vec<_> = system.graph().nodes().collect();
            let (sampled, _) = nodes.partial_shuffle(&mut rng, 2);
            let attackers = AttackerSet::new(&system, sampled.to_vec())?;
            let free: Vec<LinkId> = (0..system.num_links())
                .map(LinkId)
                .filter(|&l| !attackers.controls_link(l))
                .collect();
            let Some(&victim) = free.as_slice().choose(&mut rng) else {
                return Ok((fa_single, fa_campaign, None));
            };
            if analyze_cut(&system, &attackers, &[victim]).kind != CutKind::Imperfect {
                return Ok((fa_single, fa_campaign, None));
            }
            let Some(s) = strategy::chosen_victim(&system, &attackers, &scenario, &x, &[victim])?
                .into_success()
            else {
                return Ok((fa_single, fa_campaign, None));
            };
            let attack_seed = rng.next_u64();
            let attacked = run_campaign(
                &system,
                &detector,
                &x,
                Some(&s.manipulation),
                &noise,
                rounds,
                attack_seed,
                &inner,
            )?;
            Ok::<_, SimError>((
                fa_single,
                fa_campaign,
                Some((
                    attacked.per_round_residuals[0] > detector.alpha(),
                    attacked.mean_detected,
                )),
            ))
        })?;

        let mut fa_single = 0usize;
        let mut fa_campaign = 0usize;
        let mut det_single = 0usize;
        let mut det_campaign = 0usize;
        let mut attacks = 0usize;
        for (fa_s, fa_c, attack) in outcomes {
            fa_single += usize::from(fa_s);
            fa_campaign += usize::from(fa_c);
            if let Some((det_s, det_c)) = attack {
                attacks += 1;
                det_single += usize::from(det_s);
                det_campaign += usize::from(det_c);
            }
        }
        levels.push(NoiseLevelStats {
            sigma,
            false_alarm_single: fa_single as f64 / trials as f64,
            detection_single: if attacks == 0 {
                0.0
            } else {
                det_single as f64 / attacks as f64
            },
            false_alarm_campaign: fa_campaign as f64 / trials as f64,
            detection_campaign: if attacks == 0 {
                0.0
            } else {
                det_campaign as f64 / attacks as f64
            },
        });
    }
    Ok(NoiseSweepResult {
        seed,
        rounds,
        levels,
    })
}

/// Renders the sweep as a table.
#[must_use]
pub fn render_noise_sweep(result: &NoiseSweepResult) -> String {
    let rows: Vec<(String, String)> = result
        .levels
        .iter()
        .map(|l| {
            (
                format!("σ = {:>5.1} ms", l.sigma),
                format!(
                    "{:>6.1}% / {:>6.1}%     {:>6.1}% / {:>6.1}%",
                    l.false_alarm_single * 100.0,
                    l.detection_single * 100.0,
                    l.false_alarm_campaign * 100.0,
                    l.detection_campaign * 100.0,
                ),
            )
        })
        .collect();
    report::two_column_table(
        &format!(
            "Noise robustness at α = {} ms (campaigns of {} rounds)\n\
             columns: false-alarm / detection",
            params::ALPHA_MS,
            result.rounds
        ),
        ("noise level", "single round          campaign"),
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_shows_noise_degradation_and_campaign_recovery() {
        let r =
            run_noise_sweep(5, &[0.0, 4.0, 60.0], 12, 16, &Executor::single_threaded()).unwrap();
        assert_eq!(r.levels.len(), 3);
        // Noise-free: ideal operation.
        assert_eq!(r.levels[0].false_alarm_single, 0.0);
        assert!(r.levels[0].detection_single > 0.99);
        // Mild noise: still clean.
        assert_eq!(r.levels[1].false_alarm_single, 0.0);
        // Heavy noise: single rounds false-alarm, campaigns stay clean.
        assert!(
            r.levels[2].false_alarm_single > 0.2,
            "heavy noise must trip single rounds"
        );
        assert!(
            r.levels[2].false_alarm_campaign < r.levels[2].false_alarm_single,
            "averaging must reduce false alarms"
        );
        // Attacks remain detectable by the campaign at all levels.
        for l in &r.levels {
            assert!(
                l.detection_campaign > 0.99,
                "σ {}: {}",
                l.sigma,
                l.detection_campaign
            );
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_noise_sweep(9, &[2.0], 6, 8, &Executor::single_threaded()).unwrap();
        let b = run_noise_sweep(9, &[2.0], 6, 8, &Executor::new(4)).unwrap();
        assert_eq!(a.levels, b.levels);
    }

    #[test]
    fn invalid_sigma_rejected() {
        assert!(run_noise_sweep(1, &[-1.0], 2, 2, &Executor::single_threaded()).is_err());
    }

    #[test]
    fn render_contains_table() {
        let r = run_noise_sweep(5, &[0.0, 8.0], 4, 4, &Executor::single_threaded()).unwrap();
        let s = render_noise_sweep(&r);
        assert!(s.contains("Noise robustness"));
        assert!(s.contains("σ ="));
    }
}
