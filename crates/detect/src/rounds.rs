//! Multi-round detection campaigns — extension beyond the paper.
//!
//! The paper inspects a single measurement round. Real operators probe
//! continuously, and a *persistent* attacker (one that applies the same
//! manipulation every round, which it must do to keep the scapegoat's
//! estimate pinned) faces an averaging operator: over `n` rounds the
//! measurement noise in the mean shrinks like `1/√n` while the attack
//! residual stays put. This module quantifies that advantage.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use tomo_core::delay::GaussianNoise;
use tomo_core::{CoreError, TomographySystem};
use tomo_linalg::Vector;
use tomo_obs::LazyCounter;
use tomo_par::{derive_seed, Executor};

use crate::detector::ensure_finite;
use crate::ConsistencyDetector;

static ROUNDS_TOTAL: LazyCounter = LazyCounter::new("detect.rounds.total");

/// Outcome of a measurement campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignOutcome {
    /// Residual of each individual round.
    pub per_round_residuals: Vec<f64>,
    /// Rounds individually flagged by the detector.
    pub rounds_detected: usize,
    /// Residual of the round-averaged measurement vector.
    pub mean_residual: f64,
    /// Verdict on the averaged measurements.
    pub mean_detected: bool,
}

impl CampaignOutcome {
    /// Fraction of individually flagged rounds.
    #[must_use]
    pub fn per_round_detection_ratio(&self) -> f64 {
        if self.per_round_residuals.is_empty() {
            0.0
        } else {
            self.rounds_detected as f64 / self.per_round_residuals.len() as f64
        }
    }
}

/// Runs `rounds` noisy measurement rounds with an optional persistent
/// manipulation added to each, inspecting both per-round and averaged
/// measurements. Rounds are fanned out across `exec`'s workers; each
/// round's noise comes from an RNG stream derived from `(seed, round)`
/// and the average is folded in round order, so the outcome is
/// bit-identical for every thread count.
///
/// # Errors
///
/// * [`CoreError::NonFiniteMeasurement`] if a NaN or infinite entry of
///   `true_metrics` or `manipulation` makes a reading of the
///   noise-free round non-finite (`row` is that reading's path),
/// * [`CoreError::DimensionMismatch`] if `true_metrics` or
///   `manipulation` have wrong lengths.
///
/// # Panics
///
/// Panics if `rounds == 0`.
#[allow(clippy::too_many_arguments)]
pub fn run_campaign(
    system: &TomographySystem,
    detector: &ConsistencyDetector,
    true_metrics: &Vector,
    manipulation: Option<&Vector>,
    noise: &GaussianNoise,
    rounds: usize,
    seed: u64,
    exec: &Executor,
) -> Result<CampaignOutcome, CoreError> {
    assert!(rounds > 0, "campaign needs at least one round");
    let _span = tomo_obs::span("detect.campaign");
    ROUNDS_TOTAL.add(rounds as u64);
    if let Some(m) = manipulation {
        if m.len() != system.num_paths() {
            return Err(CoreError::DimensionMismatch {
                context: "campaign: manipulation vector",
                expected: system.num_paths(),
                got: m.len(),
            });
        }
    }
    let clean = system.measure(true_metrics)?;
    let base = match manipulation {
        Some(m) => &clean + m,
        None => clean,
    };
    // Checked before any noise is drawn: the noise model clamps each
    // reading at zero, which turns a NaN reading into 0.0.
    ensure_finite(&base)?;
    let per_round = exec.try_map(rounds, |round| {
        let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(seed, round as u64));
        let y = noise.perturb(&base, &mut rng);
        let verdict = detector.inspect(system, &y)?;
        Ok::<_, CoreError>((verdict.residual_l1, verdict.detected, y))
    })?;

    let mut per_round_residuals = Vec::with_capacity(rounds);
    let mut rounds_detected = 0usize;
    let mut sum = Vector::zeros(system.num_paths());
    for (residual, detected, y) in &per_round {
        per_round_residuals.push(*residual);
        if *detected {
            rounds_detected += 1;
        }
        sum += y;
    }
    let mean = sum.scaled(1.0 / rounds as f64);
    let mean_verdict = detector.inspect(system, &mean)?;
    Ok(CampaignOutcome {
        per_round_residuals,
        rounds_detected,
        mean_residual: mean_verdict.residual_l1,
        mean_detected: mean_verdict.detected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tomo_attack::attacker::AttackerSet;
    use tomo_attack::scenario::AttackScenario;
    use tomo_attack::strategy;
    use tomo_core::{fig1, params};

    fn attacked_manipulation() -> (TomographySystem, Vector, Vector) {
        let system = fig1::fig1_system().unwrap();
        let topo = fig1::fig1_topology();
        let attackers = AttackerSet::new(&system, topo.attackers.clone()).unwrap();
        let x = Vector::filled(10, 10.0);
        let s = strategy::chosen_victim(
            &system,
            &attackers,
            &AttackScenario::paper_defaults(),
            &x,
            &[topo.paper_link(10)], // imperfect cut ⇒ residual
        )
        .unwrap()
        .into_success()
        .unwrap();
        (system, x, s.manipulation)
    }

    #[test]
    fn averaging_shrinks_clean_residuals() {
        let system = fig1::fig1_system().unwrap();
        let x = Vector::filled(10, 10.0);
        let noise = GaussianNoise::new(20.0).unwrap();
        let detector = ConsistencyDetector::new(1e9).unwrap(); // never flags
        let exec = Executor::single_threaded();
        let outcome = run_campaign(&system, &detector, &x, None, &noise, 64, 1, &exec).unwrap();
        let mean_single: f64 = outcome.per_round_residuals.iter().sum::<f64>()
            / outcome.per_round_residuals.len() as f64;
        assert!(
            outcome.mean_residual < mean_single / 3.0,
            "averaging should shrink noise: mean-of-rounds {mean_single:.1} vs \
             averaged {:.1}",
            outcome.mean_residual
        );
        assert!(!outcome.mean_detected);
    }

    #[test]
    fn persistent_attack_survives_averaging() {
        let (system, x, manipulation) = attacked_manipulation();
        let noise = GaussianNoise::new(20.0).unwrap();
        let detector = ConsistencyDetector::paper_default();
        let exec = Executor::single_threaded();
        let outcome = run_campaign(
            &system,
            &detector,
            &x,
            Some(&manipulation),
            &noise,
            32,
            2,
            &exec,
        )
        .unwrap();
        // The attack's structural residual dominates the averaged noise.
        assert!(outcome.mean_detected, "residual {}", outcome.mean_residual);
        assert!(outcome.mean_residual > params::ALPHA_MS);
        // Per-round detection is also (near-)perfect here, but the point
        // is that the averaged statistic is strictly cleaner.
        assert!(outcome.per_round_detection_ratio() > 0.5);
    }

    #[test]
    fn heavy_noise_single_rounds_vs_campaign() {
        // With σ large relative to α, single rounds false-alarm; the
        // averaged statistic does not.
        let system = fig1::fig1_system().unwrap();
        let x = Vector::filled(10, 10.0);
        let noise = GaussianNoise::new(60.0).unwrap();
        let detector = ConsistencyDetector::paper_default();
        let exec = Executor::single_threaded();
        let outcome = run_campaign(&system, &detector, &x, None, &noise, 64, 3, &exec).unwrap();
        assert!(
            outcome.rounds_detected > 0,
            "σ = 60 ms should trip α = 200 ms on some single rounds"
        );
        assert!(
            !outcome.mean_detected,
            "averaging must suppress false alarms"
        );
    }

    #[test]
    fn validation() {
        let system = fig1::fig1_system().unwrap();
        let x = Vector::filled(10, 10.0);
        let noise = GaussianNoise::new(1.0).unwrap();
        let detector = ConsistencyDetector::paper_default();
        let exec = Executor::single_threaded();
        let bad = Vector::zeros(3);
        assert!(run_campaign(&system, &detector, &x, Some(&bad), &noise, 4, 4, &exec).is_err());
        let outcome = run_campaign(&system, &detector, &x, None, &noise, 1, 4, &exec).unwrap();
        assert_eq!(outcome.per_round_residuals.len(), 1);
    }

    #[test]
    fn non_finite_inputs_are_errors_not_verdicts() {
        let (system, x, manipulation) = attacked_manipulation();
        let noise = GaussianNoise::new(1.0).unwrap();
        let detector = ConsistencyDetector::paper_default();
        let exec = Executor::single_threaded();
        let campaign = |x: &Vector, m: Option<&Vector>| {
            run_campaign(&system, &detector, x, m, &noise, 4, 6, &exec)
        };
        let mut nan_link = x.clone();
        nan_link[0] = f64::NAN;
        let err = campaign(&nan_link, None).unwrap_err();
        assert!(
            matches!(err, CoreError::NonFiniteMeasurement { .. }),
            "{err:?}"
        );
        let mut infinite = manipulation.clone();
        infinite[3] = f64::INFINITY;
        let err = campaign(&x, Some(&infinite)).unwrap_err();
        assert!(
            matches!(err, CoreError::NonFiniteMeasurement { row: 3 }),
            "{err:?}"
        );
        assert!(campaign(&x, Some(&manipulation)).is_ok());
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_rounds_panics() {
        let system = fig1::fig1_system().unwrap();
        let x = Vector::filled(10, 10.0);
        let _ = run_campaign(
            &system,
            &ConsistencyDetector::paper_default(),
            &x,
            None,
            &GaussianNoise::new(1.0).unwrap(),
            0,
            5,
            &Executor::single_threaded(),
        );
    }
}
