//! Fig. 9 — detection ratios of the consistency check, per strategy and
//! cut type.
//!
//! Per Theorem 3 (which the prose of Section V-D states with the labels
//! swapped — see DESIGN.md): perfect-cut attacks are *undetectable*
//! (ratio ≈ 0), imperfect-cut attacks are always detected (ratio ≈ 1),
//! and the detector raises no false alarms on clean rounds.
//!
//! **Reproduction finding:** at AS scale the damage-maximal LP can evade
//! the *pure* Eq. (23) check on imperfectly-cut victims by producing
//! consistent measurements whose estimates drive other links negative
//! (the proof of Theorem 3's detectable branch tacitly excludes such
//! manipulations). The experiment therefore runs the *recommended*
//! detector — consistency + plausibility (`x̂ ⪰ 0`) — which restores the
//! theorem's 0 % / 100 % split at every scale; see
//! `ConsistencyDetector::recommended` and DESIGN.md.

use serde::{Deserialize, Serialize};

use tomo_attack::scenario::AttackScenario;
use tomo_core::{fig1, params, TomographySystem};
use tomo_detect::experiment::{
    run_detection_experiment, DetectionConfig, DetectionReport, StrategyKind,
};
use tomo_detect::ConsistencyDetector;
use tomo_par::Executor;

use crate::{report, SimError};

/// Which measurement system Fig. 9 runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fig9Network {
    /// The 7-node running example (fast; the paper's illustration scale).
    Fig1,
    /// The AS-scale synthetic wireline topology (slower, closer to the
    /// paper's evaluation scale).
    Wireline,
}

/// Fig. 9 experiment configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig9Config {
    /// Trials (attack rounds) to run.
    pub trials: usize,
    /// Attackers per round.
    pub num_attackers: usize,
    /// Detection threshold α in ms (paper: 200).
    pub alpha: f64,
    /// Minimum uncertain victims for obfuscation success. Fig. 1 caps
    /// this at 3 (it has only 3 non-attacker links).
    pub obfuscation_min_victims: usize,
    /// Topology to run on.
    pub network: Fig9Network,
}

impl Default for Fig9Config {
    fn default() -> Self {
        Fig9Config {
            trials: 60,
            num_attackers: 2,
            alpha: params::ALPHA_MS,
            obfuscation_min_victims: 2,
            network: Fig9Network::Fig1,
        }
    }
}

/// Structured Fig. 9 result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig9Result {
    /// Master seed.
    pub seed: u64,
    /// Configuration used.
    pub config: Fig9Config,
    /// The per-cell detection report.
    pub report: DetectionReport,
}

/// Runs the Fig. 9 experiment on the configured network, fanning trials
/// out over `exec`; each trial derives its own RNG stream from
/// `(seed, trial)` and tallies are absorbed in trial order, so the report
/// is bit-identical for every thread count.
///
/// # Errors
///
/// Returns [`SimError`] on substrate failure.
pub fn run(seed: u64, config: &Fig9Config, exec: &Executor) -> Result<Fig9Result, SimError> {
    let _span = tomo_obs::span("sim.fig9");
    let system: TomographySystem = match config.network {
        Fig9Network::Fig1 => fig1::fig1_system()?,
        Fig9Network::Wireline => {
            crate::topologies::build_system(crate::topologies::NetworkKind::Wireline, seed, exec)?
        }
    };
    let detector = ConsistencyDetector::new(config.alpha)
        .ok_or_else(|| SimError(format!("invalid alpha {}", config.alpha)))?
        .with_plausibility(ConsistencyDetector::recommended().plausibility_tol());
    let detection_config = DetectionConfig {
        trials: config.trials,
        num_attackers: config.num_attackers,
        scenario: AttackScenario::paper_defaults(),
        obfuscation_min_victims: config.obfuscation_min_victims,
    };
    let report = run_detection_experiment(
        &system,
        &detector,
        &params::default_delay_model(),
        &detection_config,
        seed,
        exec,
    )?;
    Ok(Fig9Result {
        seed,
        config: *config,
        report,
    })
}

/// Renders the 3×2 detection-ratio table plus the false-alarm line.
#[must_use]
pub fn render(result: &Fig9Result) -> String {
    let fmt_cell = |s: StrategyKind, perfect: bool| {
        let cell = result.report.cell(s, perfect);
        match cell.ratio() {
            Some(r) => format!("{:>6.1}% ({:>3})", r * 100.0, cell.attacks),
            None => "     — (  0)".into(),
        }
    };
    let rows: Vec<(String, String)> = [
        StrategyKind::ChosenVictim,
        StrategyKind::MaxDamage,
        StrategyKind::Obfuscation,
    ]
    .into_iter()
    .map(|s| {
        (
            s.to_string(),
            format!("{}   {}", fmt_cell(s, true), fmt_cell(s, false)),
        )
    })
    .collect();
    let mut out = report::two_column_table(
        &format!(
            "Fig. 9 — detection ratios, α = {} ms (attacks in parentheses)",
            result.config.alpha
        ),
        ("strategy", "perfect cut     imperfect cut"),
        &rows,
    );
    out.push_str(&format!(
        "false alarms: {}/{} clean rounds\n",
        result.report.false_alarms, result.report.clean_trials
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> Fig9Config {
        Fig9Config {
            trials: 15,
            ..Fig9Config::default()
        }
    }

    #[test]
    fn fig9_matches_theorem_3() {
        let r = run(31, &small_config(), &Executor::single_threaded()).unwrap();
        // No false alarms (noise-free).
        assert_eq!(r.report.false_alarms, 0);
        for s in [
            StrategyKind::ChosenVictim,
            StrategyKind::MaxDamage,
            StrategyKind::Obfuscation,
        ] {
            if let Some(ratio) = r.report.cell(s, true).ratio() {
                assert!(ratio < 1e-9, "{s} perfect-cut ratio {ratio}");
            }
            if let Some(ratio) = r.report.cell(s, false).ratio() {
                assert!(ratio > 0.99, "{s} imperfect-cut ratio {ratio}");
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run(8, &small_config(), &Executor::single_threaded()).unwrap();
        let b = run(8, &small_config(), &Executor::new(4)).unwrap();
        assert_eq!(a.report.perfect, b.report.perfect);
        assert_eq!(a.report.imperfect, b.report.imperfect);
    }

    #[test]
    fn render_contains_table() {
        let r = run(31, &small_config(), &Executor::single_threaded()).unwrap();
        let s = render(&r);
        assert!(s.contains("Fig. 9"));
        assert!(s.contains("perfect cut"));
        assert!(s.contains("false alarms"));
    }

    #[test]
    fn fig9_on_wireline_matches_theorem_3() {
        let config = Fig9Config {
            trials: 4,
            network: Fig9Network::Wireline,
            ..Fig9Config::default()
        };
        let r = run(13, &config, &Executor::single_threaded()).unwrap();
        assert_eq!(r.report.false_alarms, 0);
        for s in [
            StrategyKind::ChosenVictim,
            StrategyKind::MaxDamage,
            StrategyKind::Obfuscation,
        ] {
            if let Some(ratio) = r.report.cell(s, true).ratio() {
                assert!(ratio < 1e-9, "{s} perfect-cut ratio {ratio}");
            }
            if let Some(ratio) = r.report.cell(s, false).ratio() {
                assert!(ratio > 0.99, "{s} imperfect-cut ratio {ratio}");
            }
        }
    }

    #[test]
    fn invalid_alpha_rejected() {
        let bad = Fig9Config {
            alpha: -5.0,
            ..small_config()
        };
        assert!(run(1, &bad, &Executor::single_threaded()).is_err());
    }
}
