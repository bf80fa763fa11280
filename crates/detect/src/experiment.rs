//! Detection-ratio experiments — the machinery behind Fig. 9.
//!
//! Each trial samples attackers and routine delays, launches one of the
//! three strategies (a *rational* attacker: it first tries the stealthy,
//! consistency-preserving LP and falls back to the plain damage-maximal
//! LP), then runs the Eq. (23) detector on the manipulated measurements.
//! Results are tallied per (strategy × cut kind):
//!
//! * **perfect cut** ⇒ the stealthy LP is feasible ⇒ residual 0 ⇒
//!   detection ratio ≈ 0 (Theorem 3, undetectable branch);
//! * **imperfect cut** ⇒ only the plain LP succeeds ⇒ residual > α ⇒
//!   detection ratio ≈ 1 (detectable branch).
//!
//! Note: the paper's prose in Section V-D states the ratios the other way
//! around ("100% when attackers can perfectly cut"), which contradicts
//! its own Theorem 3; we implement the theorem (see DESIGN.md).

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use tomo_attack::attacker::AttackerSet;
use tomo_attack::cut::{analyze_cut, CutKind};
use tomo_attack::scenario::AttackScenario;
use tomo_attack::{strategy, AttackError, AttackOutcome};
use tomo_core::delay::DelayModel;
use tomo_core::TomographySystem;
use tomo_graph::{LinkId, NodeId};
use tomo_linalg::Vector;
use tomo_par::{derive_seed, Executor};

use crate::ConsistencyDetector;

/// Which scapegoating strategy a trial used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StrategyKind {
    /// Chosen-victim scapegoating (Eq. 4-7).
    ChosenVictim,
    /// Maximum-damage scapegoating (Eq. 8).
    MaxDamage,
    /// Obfuscation (Eq. 9-11).
    Obfuscation,
}

impl std::fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            StrategyKind::ChosenVictim => "chosen-victim",
            StrategyKind::MaxDamage => "maximum-damage",
            StrategyKind::Obfuscation => "obfuscation",
        };
        f.write_str(s)
    }
}

/// Tally of one (strategy, cut-kind) cell of Fig. 9.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DetectionCell {
    /// Successful attacks executed.
    pub attacks: usize,
    /// Of those, attacks flagged by the detector.
    pub detected: usize,
}

impl DetectionCell {
    /// Detection ratio (`None` when no attack landed in this cell).
    #[must_use]
    pub fn ratio(&self) -> Option<f64> {
        if self.attacks == 0 {
            None
        } else {
            Some(self.detected as f64 / self.attacks as f64)
        }
    }
}

/// Aggregated results of a detection experiment.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DetectionReport {
    /// Per-strategy tallies under perfect cuts.
    pub perfect: [DetectionCell; 3],
    /// Per-strategy tallies under imperfect cuts.
    pub imperfect: [DetectionCell; 3],
    /// Clean (no-attack) rounds inspected.
    pub clean_trials: usize,
    /// Clean rounds incorrectly flagged (false alarms).
    pub false_alarms: usize,
}

impl DetectionReport {
    /// The cell for a strategy and cut kind (perfect = `true`).
    #[must_use]
    pub fn cell(&self, strategy: StrategyKind, perfect: bool) -> DetectionCell {
        let idx = strategy_index(strategy);
        if perfect {
            self.perfect[idx]
        } else {
            self.imperfect[idx]
        }
    }

    /// False-alarm ratio on clean rounds (`None` before any clean round).
    #[must_use]
    pub fn false_alarm_ratio(&self) -> Option<f64> {
        if self.clean_trials == 0 {
            None
        } else {
            Some(self.false_alarms as f64 / self.clean_trials as f64)
        }
    }

    /// Adds another report's tallies into this one (used to reduce
    /// per-trial reports in index order).
    fn absorb(&mut self, other: &DetectionReport) {
        for i in 0..3 {
            self.perfect[i].attacks += other.perfect[i].attacks;
            self.perfect[i].detected += other.perfect[i].detected;
            self.imperfect[i].attacks += other.imperfect[i].attacks;
            self.imperfect[i].detected += other.imperfect[i].detected;
        }
        self.clean_trials += other.clean_trials;
        self.false_alarms += other.false_alarms;
    }
}

fn strategy_index(s: StrategyKind) -> usize {
    match s {
        StrategyKind::ChosenVictim => 0,
        StrategyKind::MaxDamage => 1,
        StrategyKind::Obfuscation => 2,
    }
}

/// Configuration of a detection experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectionConfig {
    /// Trials per strategy.
    pub trials: usize,
    /// Attackers sampled per trial.
    pub num_attackers: usize,
    /// Attack parameters (evasion flag is managed internally).
    pub scenario: AttackScenario,
    /// Minimum uncertain victims for obfuscation success.
    pub obfuscation_min_victims: usize,
}

/// Runs the rational attacker: stealthy LP first, plain LP as fallback.
///
/// Returns the outcome together with whether the *stealthy* variant was
/// the one that succeeded.
fn rational_attack<F>(run: F) -> Result<(AttackOutcome, bool), AttackError>
where
    F: Fn(bool) -> Result<AttackOutcome, AttackError>,
{
    let stealthy = run(true)?;
    if stealthy.is_success() {
        return Ok((stealthy, true));
    }
    Ok((run(false)?, false))
}

/// Runs the full Fig. 9 experiment on one measurement system, fanning
/// trials out across `exec`'s workers.
///
/// Each trial draws from its own RNG stream derived from
/// `(seed, trial_index)` and per-trial reports are reduced in index
/// order, so the result is bit-identical for every thread count.
///
/// # Errors
///
/// Propagates attack/tomography errors (infeasible attacks are not
/// errors; they simply do not contribute to any cell).
pub fn run_detection_experiment(
    system: &TomographySystem,
    detector: &ConsistencyDetector,
    delay_model: &DelayModel,
    config: &DetectionConfig,
    seed: u64,
    exec: &Executor,
) -> Result<DetectionReport, AttackError> {
    let _span = tomo_obs::span("detect.experiment");
    let per_trial = exec.try_map(config.trials, |trial| -> Result<_, AttackError> {
        let trial_seed = derive_seed(seed, trial as u64);
        let mut rng = ChaCha8Rng::seed_from_u64(trial_seed);
        let outcome = run_one_trial(system, detector, delay_model, config, &mut rng)?;
        if tomo_obs::tracing_enabled() {
            tomo_obs::record_trial(tomo_obs::TrialProvenance {
                experiment: "detect.fig9".to_string(),
                trial: trial as u64,
                seed: trial_seed,
                verdict: Some(outcome.clean_detected),
                residual: Some(outcome.clean_residual_l1),
                ..tomo_obs::TrialProvenance::default()
            });
        }
        Ok(outcome.report)
    })?;
    let mut report = DetectionReport::default();
    for trial_report in &per_trial {
        report.absorb(trial_report);
    }
    Ok(report)
}

/// One trial's report plus the clean-round verdict details that trace
/// provenance records (and the aggregate report discards).
struct TrialOutcome {
    report: DetectionReport,
    clean_residual_l1: f64,
    clean_detected: bool,
}

/// One trial: fresh attackers and routine delays, a clean round for
/// false-alarm accounting, then all three strategies.
fn run_one_trial<R: Rng + ?Sized>(
    system: &TomographySystem,
    detector: &ConsistencyDetector,
    delay_model: &DelayModel,
    config: &DetectionConfig,
    rng: &mut R,
) -> Result<TrialOutcome, AttackError> {
    let mut report = DetectionReport::default();
    let mut nodes: Vec<NodeId> = system.graph().nodes().collect();
    let (sampled, _) = nodes.partial_shuffle(rng, config.num_attackers.max(1));
    let attackers = AttackerSet::new(system, sampled.to_vec())?;
    let x = delay_model.sample(system.num_links(), rng);
    let y_clean = system.measure(&x)?;

    // Clean round: false-alarm accounting.
    let clean_verdict = detector
        .inspect(system, &y_clean)
        .map_err(AttackError::Core)?;
    report.clean_trials += 1;
    if clean_verdict.detected {
        report.false_alarms += 1;
    }

    // Chosen victim: a random non-controlled link.
    let free: Vec<LinkId> = (0..system.num_links())
        .map(LinkId)
        .filter(|&l| !attackers.controls_link(l))
        .collect();
    if let Some(&victim) = free.as_slice().choose(rng) {
        let (outcome, _) = rational_attack(|evade| {
            strategy::chosen_victim(
                system,
                &attackers,
                &config.scenario.with_evasion(evade),
                &x,
                &[victim],
            )
        })?;
        tally(
            system,
            detector,
            &attackers,
            &y_clean,
            StrategyKind::ChosenVictim,
            &outcome,
            &mut report,
        )?;
    }

    // Maximum damage.
    let (outcome, _) = rational_attack(|evade| {
        strategy::max_damage(system, &attackers, &config.scenario.with_evasion(evade), &x)
    })?;
    tally(
        system,
        detector,
        &attackers,
        &y_clean,
        StrategyKind::MaxDamage,
        &outcome,
        &mut report,
    )?;

    // Obfuscation.
    let (outcome, _) = rational_attack(|evade| {
        strategy::obfuscation(
            system,
            &attackers,
            &config.scenario.with_evasion(evade),
            &x,
            config.obfuscation_min_victims,
        )
    })?;
    tally(
        system,
        detector,
        &attackers,
        &y_clean,
        StrategyKind::Obfuscation,
        &outcome,
        &mut report,
    )?;
    Ok(TrialOutcome {
        report,
        clean_residual_l1: clean_verdict.residual_l1,
        clean_detected: clean_verdict.detected,
    })
}

/// Applies the detector to a successful attack, on the attacked vector
/// `y_clean + m`, and files it under the right (strategy, cut) cell.
fn tally(
    system: &TomographySystem,
    detector: &ConsistencyDetector,
    attackers: &AttackerSet,
    y_clean: &Vector,
    strategy: StrategyKind,
    outcome: &AttackOutcome,
    report: &mut DetectionReport,
) -> Result<(), AttackError> {
    let Some(s) = outcome.success() else {
        return Ok(());
    };
    let cut = analyze_cut(system, attackers, &s.victims);
    let verdict = detector
        .inspect(system, &(y_clean + &s.manipulation))
        .map_err(AttackError::Core)?;
    let idx = strategy_index(strategy);
    let cell = match cut.kind {
        CutKind::Perfect => &mut report.perfect[idx],
        CutKind::Imperfect | CutKind::NoCoverage => &mut report.imperfect[idx],
    };
    cell.attacks += 1;
    if verdict.detected {
        cell.detected += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tomo_core::{fig1, params};

    #[test]
    fn fig9_shape_on_fig1() {
        let system = fig1::fig1_system().unwrap();
        let detector = ConsistencyDetector::paper_default();
        let config = DetectionConfig {
            trials: 25,
            num_attackers: 2,
            scenario: AttackScenario::paper_defaults(),
            obfuscation_min_victims: 2,
        };
        let report = run_detection_experiment(
            &system,
            &detector,
            &params::default_delay_model(),
            &config,
            99,
            &Executor::single_threaded(),
        )
        .unwrap();

        // No false alarms on clean rounds (noise-free).
        assert_eq!(report.false_alarms, 0);
        assert_eq!(report.clean_trials, 25);

        let mut saw_perfect = false;
        let mut saw_imperfect = false;
        for s in [
            StrategyKind::ChosenVictim,
            StrategyKind::MaxDamage,
            StrategyKind::Obfuscation,
        ] {
            // Theorem 3: perfect-cut attacks are never detected…
            if let Some(r) = report.cell(s, true).ratio() {
                assert!(r < 1e-9, "{s}: perfect-cut detection ratio {r}");
                saw_perfect = true;
            }
            // …imperfect-cut attacks always are.
            if let Some(r) = report.cell(s, false).ratio() {
                assert!(r > 0.99, "{s}: imperfect-cut detection ratio {r}");
                saw_imperfect = true;
            }
        }
        assert!(saw_perfect, "no perfect-cut attack landed in 25 trials");
        assert!(saw_imperfect, "no imperfect-cut attack landed in 25 trials");
    }

    #[test]
    fn detection_cell_ratio() {
        assert_eq!(DetectionCell::default().ratio(), None);
        let c = DetectionCell {
            attacks: 4,
            detected: 1,
        };
        assert_eq!(c.ratio(), Some(0.25));
    }

    #[test]
    fn report_accessors() {
        let mut r = DetectionReport::default();
        assert_eq!(r.false_alarm_ratio(), None);
        r.clean_trials = 10;
        r.false_alarms = 1;
        assert_eq!(r.false_alarm_ratio(), Some(0.1));
        r.perfect[0] = DetectionCell {
            attacks: 2,
            detected: 0,
        };
        assert_eq!(r.cell(StrategyKind::ChosenVictim, true).ratio(), Some(0.0));
        assert_eq!(r.cell(StrategyKind::ChosenVictim, false).ratio(), None);
    }

    #[test]
    fn strategy_display() {
        assert_eq!(StrategyKind::ChosenVictim.to_string(), "chosen-victim");
        assert_eq!(StrategyKind::MaxDamage.to_string(), "maximum-damage");
        assert_eq!(StrategyKind::Obfuscation.to_string(), "obfuscation");
    }
}
