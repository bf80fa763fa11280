//! Threshold-sweep (ROC) analysis of the consistency detector under
//! measurement noise — the engineering question Remark 4 raises but the
//! paper leaves open: *how should α be chosen when `R x̂ ≠ y′` even
//! without an attack?*
//!
//! With Gaussian measurement noise the clean residual is no longer zero,
//! so α trades false alarms against missed (imperfect-cut) attacks. This
//! module sweeps α and reports the operating points.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use tomo_attack::attacker::AttackerSet;
use tomo_attack::scenario::AttackScenario;
use tomo_attack::{strategy, AttackError};
use tomo_core::delay::{DelayModel, GaussianNoise};
use tomo_core::TomographySystem;
use tomo_graph::LinkId;
use tomo_par::{derive_seed, Executor};

use crate::ConsistencyDetector;

/// One operating point of the detector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RocPoint {
    /// The threshold α.
    pub alpha: f64,
    /// True-positive ratio: detected attacks / attacks.
    pub true_positive: f64,
    /// False-positive ratio: flagged clean rounds / clean rounds.
    pub false_positive: f64,
}

/// Residual samples from matched clean/attacked rounds.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ResidualSamples {
    /// Residuals of clean (but noisy) rounds.
    pub clean: Vec<f64>,
    /// Residuals of attacked rounds (imperfect-cut chosen-victim).
    pub attacked: Vec<f64>,
}

impl ResidualSamples {
    /// Evaluates one threshold on the collected samples.
    #[must_use]
    pub fn operating_point(&self, alpha: f64) -> RocPoint {
        let tp = ratio_above(&self.attacked, alpha);
        let fp = ratio_above(&self.clean, alpha);
        RocPoint {
            alpha,
            true_positive: tp,
            false_positive: fp,
        }
    }

    /// Evaluates a whole sweep of thresholds.
    #[must_use]
    pub fn sweep(&self, alphas: &[f64]) -> Vec<RocPoint> {
        let _span = tomo_obs::span("detect.roc.sweep");
        alphas.iter().map(|&a| self.operating_point(a)).collect()
    }
}

fn ratio_above(samples: &[f64], alpha: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().filter(|&&r| r > alpha).count() as f64 / samples.len() as f64
}

/// Collects residual samples: per round, one noisy clean measurement and
/// one noisy attacked measurement (chosen-victim on a random
/// non-controlled link; rounds where the attack is infeasible contribute
/// only the clean sample).
///
/// Rounds are fanned out across `exec`'s workers, each drawing from its
/// own `(seed, round)`-derived RNG stream; samples are gathered in round
/// order, so the result is bit-identical for every thread count.
///
/// # Errors
///
/// Propagates attack construction errors.
#[allow(clippy::too_many_arguments)]
pub fn collect_residuals(
    system: &TomographySystem,
    scenario: &AttackScenario,
    delay_model: &DelayModel,
    noise: &GaussianNoise,
    num_attackers: usize,
    rounds: usize,
    seed: u64,
    exec: &Executor,
) -> Result<ResidualSamples, AttackError> {
    use rand::seq::SliceRandom;

    let _span = tomo_obs::span("detect.roc.collect");
    let zero_detector = ConsistencyDetector::new(0.0).expect("0 is valid");
    let nodes: Vec<_> = system.graph().nodes().collect();

    let per_round = exec.try_map(rounds, |round| {
        let rng = &mut ChaCha8Rng::seed_from_u64(derive_seed(seed, round as u64));
        let mut shuffled = nodes.clone();
        let (sampled, _) = shuffled.partial_shuffle(rng, num_attackers.max(1));
        let attackers = AttackerSet::new(system, sampled.to_vec())?;
        let x = delay_model.sample(system.num_links(), rng);
        let y_clean = system.measure(&x).map_err(AttackError::Core)?;

        let noisy_clean = noise.perturb(&y_clean, rng);
        let clean_verdict = zero_detector
            .inspect(system, &noisy_clean)
            .map_err(AttackError::Core)?;
        let clean_residual = clean_verdict.residual_l1;

        let free: Vec<LinkId> = (0..system.num_links())
            .map(LinkId)
            .filter(|&l| !attackers.controls_link(l))
            .collect();
        let Some(&victim) = free.as_slice().choose(rng) else {
            return Ok((clean_residual, None));
        };
        let outcome = strategy::chosen_victim(system, &attackers, scenario, &x, &[victim])?;
        let attacked_residual = match outcome.success() {
            Some(s) => {
                let y_attacked = noise.perturb(&(&y_clean + &s.manipulation), rng);
                let verdict = zero_detector
                    .inspect(system, &y_attacked)
                    .map_err(AttackError::Core)?;
                Some(verdict.residual_l1)
            }
            None => None,
        };
        Ok::<_, AttackError>((clean_residual, attacked_residual))
    })?;

    let mut samples = ResidualSamples::default();
    for (clean, attacked) in per_round {
        samples.clean.push(clean);
        samples.attacked.extend(attacked);
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tomo_core::{fig1, params};

    #[test]
    fn roc_points_are_monotone_in_alpha() {
        let samples = ResidualSamples {
            clean: vec![1.0, 2.0, 3.0, 4.0],
            attacked: vec![10.0, 20.0, 30.0, 0.5],
        };
        let points = samples.sweep(&[0.0, 2.5, 5.0, 100.0]);
        for w in points.windows(2) {
            assert!(w[1].true_positive <= w[0].true_positive);
            assert!(w[1].false_positive <= w[0].false_positive);
        }
        assert_eq!(points[0].true_positive, 1.0);
        assert_eq!(points[0].false_positive, 1.0);
        assert_eq!(points[3].true_positive, 0.0);
        assert_eq!(points[3].false_positive, 0.0);
        // alpha = 2.5 separates: fp 2/4, tp 3/4.
        assert_eq!(points[1].false_positive, 0.5);
        assert_eq!(points[1].true_positive, 0.75);
    }

    #[test]
    fn empty_samples_report_zero() {
        let samples = ResidualSamples::default();
        let p = samples.operating_point(1.0);
        assert_eq!(p.true_positive, 0.0);
        assert_eq!(p.false_positive, 0.0);
    }

    #[test]
    fn collected_residuals_separate_under_mild_noise() {
        let system = fig1::fig1_system().unwrap();
        let samples = collect_residuals(
            &system,
            &AttackScenario::paper_defaults(),
            &params::default_delay_model(),
            &GaussianNoise::new(1.0).unwrap(),
            2,
            20,
            3,
            &Executor::single_threaded(),
        )
        .unwrap();
        assert_eq!(samples.clean.len(), 20);
        assert!(!samples.attacked.is_empty());
        // The paper's α = 200 ms separates mild noise from attacks:
        // noise-driven clean residuals stay far below it, imperfect-cut
        // attack residuals exceed it. (Perfect-cut attacks land at ≈ the
        // noise floor and are indistinguishable, per Theorem 3 — the
        // imperfect ones dominate random draws on Fig. 1.)
        let p = samples.operating_point(params::ALPHA_MS);
        assert_eq!(p.false_positive, 0.0, "clean residuals exceed α");
        assert!(p.true_positive > 0.5, "tp {}", p.true_positive);
    }
}
