//! Chaos experiment — detection degradation under injected faults.
//!
//! Sweeps a [`FaultSpec`] over a set of rate multipliers and, at each
//! point, runs chosen-victim attack trials on the Fig. 1 network while
//! the fault plan sabotages measurements (probe loss, corruption, stale
//! readings, mid-experiment link failures) and solves (forced simplex
//! iteration exhaustion, singular bases). Every layer degrades
//! instead of aborting: solver faults retry deterministically and
//! quarantine past the budget, and lost/non-finite rows route estimation
//! through [`TomographySystem::solve_degraded`]. A substrate failure
//! that no injected fault explains is a bug, not a fault: it fails the
//! sweep with an error naming the trial. The artifact is a
//! Fig. 7-style curve of detection rate vs. fault intensity plus a
//! balanced [`FaultReport`] ledger (`injected == handled + quarantined`).
//!
//! Determinism: each sweep point derives its own fault plan and each
//! trial its own ChaCha8 streams from `(seed, point, trial)` and results
//! merge in trial order, so the artifact is byte-identical for every
//! thread count.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use tomo_attack::montecarlo::{self, FaultedTrial};
use tomo_attack::scenario::AttackScenario;
use tomo_core::{fig1, params, TomographySystem};
use tomo_detect::ConsistencyDetector;
use tomo_fault::{
    fault_layer_enabled, FaultKindCounts, FaultPlan, FaultReport, FaultSpec, SolverFaultKind,
    LINK_FAILURE_DELAY_MS,
};
use tomo_linalg::Vector;
use tomo_par::{derive_seed, Executor};

use crate::{report, SimError};

/// Default fault mix for `tomo-sim run chaos` when `--faults` is not
/// given: measurement-layer faults only, so a default run completes with
/// zero quarantined trials.
pub const DEFAULT_FAULTS: &str = "loss=0.05,corrupt=0.01,stale=0.02,link_fail=0.01";

/// Stream salts separating the per-point fault plan, the per-trial
/// attack stream, and the per-trial attacker-count draw.
const PLAN_SALT: u64 = 0x6661_756c; // "faul"
const ATTACK_SALT: u64 = 0x5eed_a77a;
const COUNT_SALT: u64 = 0xa77a_c0de;

/// Chaos experiment configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosConfig {
    /// Attack trials per sweep point.
    pub trials_per_point: usize,
    /// Rate multipliers applied to the base spec, one sweep point each.
    pub scales: Vec<f64>,
    /// Attacker-count range: each trial samples `1..=max_attackers`.
    pub max_attackers: usize,
    /// Deterministic re-solve attempts after an injected solver fault
    /// before the trial is quarantined.
    pub solver_retries: u32,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            trials_per_point: 200,
            scales: vec![0.0, 0.5, 1.0, 2.0],
            max_attackers: 3,
            solver_retries: 1,
        }
    }
}

impl ChaosConfig {
    /// The `--quick` smoke-test configuration.
    #[must_use]
    pub fn quick() -> Self {
        ChaosConfig {
            trials_per_point: 40,
            ..ChaosConfig::default()
        }
    }
}

/// One sweep point: the base spec at one rate multiplier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosPoint {
    /// Rate multiplier applied to the base spec.
    pub scale: f64,
    /// The scaled spec actually injected.
    pub spec: FaultSpec,
    /// Trials attempted at this point.
    pub trials: usize,
    /// Trials where the attack LP was feasible (a manipulation exists).
    pub attacks_feasible: usize,
    /// Feasible attacks flagged by the detector.
    pub detected: usize,
    /// `detected / attacks_feasible` when any attack was feasible.
    pub detection_rate: Option<f64>,
    /// Detector firings on trials with *no* feasible attack — fault
    /// damage misread as manipulation.
    pub false_positives: usize,
    /// Trials with every surviving measurement lost (detection
    /// impossible).
    pub blinded_trials: u64,
    /// The point's fault ledger.
    pub report: FaultReport,
}

/// Structured chaos-sweep result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosResult {
    /// Master seed.
    pub seed: u64,
    /// Base (unscaled) fault spec.
    pub spec: FaultSpec,
    /// Configuration used.
    pub config: ChaosConfig,
    /// One entry per scale, in `config.scales` order.
    pub points: Vec<ChaosPoint>,
    /// Ledger merged across all points.
    pub totals: FaultReport,
}

/// What one trial contributed to its sweep point.
struct TrialOutcome {
    injected: u64,
    by_kind: FaultKindCounts,
    quarantined: bool,
    recovered: u32,
    feasible: bool,
    detected: bool,
    degraded: bool,
    used_ridge: bool,
    unidentifiable: u64,
    blinded: bool,
    /// Consistency residual of the degraded inspection, when one ran
    /// (trace provenance only — the artifact aggregates booleans).
    residual: Option<f64>,
}

fn run_point(
    system: &TomographySystem,
    detector: &ConsistencyDetector,
    base: &FaultSpec,
    scale: f64,
    point_seed: u64,
    config: &ChaosConfig,
    exec: &Executor,
) -> Result<ChaosPoint, SimError> {
    let spec = base.scaled(scale);
    let fault_on = fault_layer_enabled();
    let plan = FaultPlan::new(spec, point_seed ^ PLAN_SALT);
    let scenario = AttackScenario::paper_defaults();
    let delay_model = params::default_delay_model();
    let num_links = system.num_links();

    let outcomes = exec.try_map(config.trials_per_point, |t| {
        let run_trial = || -> Result<TrialOutcome, SimError> {
            // A scheduled fault stream per trial; skipped wholesale when the
            // layer is disabled (`TOMO_FAULT=0`). With every rate at zero the
            // enabled path draws nothing either, so both produce identical
            // trials — the bench harness compares exactly these two runs.
            let mut faults = fault_on.then(|| plan.trial(t as u64));
            let solver_fault =
                faults
                    .as_mut()
                    .and_then(|f| f.solver_fault())
                    .map(|kind| match kind {
                        SolverFaultKind::IterationExhaustion => {
                            tomo_lp::chaos::SolveFault::IterationExhaustion
                        }
                        SolverFaultKind::SingularBasis => tomo_lp::chaos::SolveFault::SingularBasis,
                    });
            let mut krng =
                ChaCha8Rng::seed_from_u64(derive_seed(point_seed ^ COUNT_SALT, t as u64));
            let k = krng.gen_range(1..=config.max_attackers.max(1));
            let attack_seed = derive_seed(point_seed ^ ATTACK_SALT, t as u64);
            // Substrate failures (not injected faults) are genuine bugs:
            // they fail the sweep, naming the trial.
            let failed = |what: &str, e: &dyn std::fmt::Display| {
                SimError(format!("chaos ×{scale} trial {t}: {what} failed: {e}"))
            };
            let trial = montecarlo::chosen_victim_trial_faulted(
                system,
                &scenario,
                &delay_model,
                k,
                solver_fault,
                config.solver_retries,
                attack_seed,
            )
            .map_err(|e| failed("attack substrate", &e))?;
            let tally = |f: &Option<tomo_fault::TrialFaults>| {
                f.as_ref()
                    .map(|f| (f.injected(), *f.by_kind()))
                    .unwrap_or_default()
            };
            let (detail, recovered) = match trial {
                FaultedTrial::Quarantined { .. } => {
                    let (injected, by_kind) = tally(&faults);
                    return Ok(TrialOutcome {
                        injected,
                        by_kind,
                        quarantined: true,
                        recovered: 0,
                        feasible: false,
                        detected: false,
                        degraded: false,
                        used_ridge: false,
                        unidentifiable: 0,
                        blinded: false,
                        residual: None,
                    });
                }
                FaultedTrial::Completed {
                    detail,
                    recovered_faults,
                } => (detail, recovered_faults),
            };
            let mut outcome = TrialOutcome {
                injected: 0,
                by_kind: FaultKindCounts::default(),
                quarantined: false,
                recovered,
                feasible: false,
                detected: false,
                degraded: false,
                used_ridge: false,
                unidentifiable: 0,
                blinded: false,
                residual: None,
            };
            let Some(detail) = detail else {
                // Degenerate draw (no frameable victim): nothing to measure.
                let (injected, by_kind) = tally(&faults);
                outcome.injected = injected;
                outcome.by_kind = by_kind;
                return Ok(outcome);
            };
            // The world the attacker planned against...
            let mut x = detail.true_delays.clone();
            let y_pre = system.measure(&x).map_err(|e| failed("measurement", &e))?;
            // ...then a link fails under them: the manipulation was computed
            // against delays that no longer exist.
            if let Some(link) = faults.as_mut().and_then(|f| f.link_failure(num_links)) {
                x[link] += LINK_FAILURE_DELAY_MS;
            }
            let mut y_observed = system.measure(&x).map_err(|e| failed("measurement", &e))?;
            outcome.feasible = detail.manipulation.is_some();
            if let Some(m) = &detail.manipulation {
                for (yo, mi) in y_observed.iter_mut().zip(m.iter()) {
                    *yo += mi;
                }
            }
            // Measurement-layer sabotage; stale rows replay the pristine
            // pre-attack, pre-failure reading.
            let mfaults = faults
                .as_mut()
                .map(|f| f.inject_measurement(y_observed.as_mut_slice(), y_pre.as_slice()))
                .unwrap_or_default();
            let (injected, by_kind) = tally(&faults);
            outcome.injected = injected;
            outcome.by_kind = by_kind;
            // Sanitization: lost rows are gone, non-finite corrupted rows are
            // excised (a real collector rejects them); finite spikes stay and
            // must be survived by the detector.
            let surviving: Vec<usize> = (0..y_observed.len())
                .filter(|&i| !mfaults.dropped.contains(&i) && y_observed[i].is_finite())
                .collect();
            if surviving.is_empty() {
                outcome.blinded = true;
                return Ok(outcome);
            }
            let y_sub: Vector = surviving.iter().map(|&i| y_observed[i]).collect();
            let verdict = detector
                .inspect_degraded(system, &surviving, &y_sub)
                .map_err(|e| failed("degraded inspection", &e))?;
            outcome.detected = verdict.verdict.detected;
            outcome.degraded = verdict.degraded;
            outcome.used_ridge = verdict.used_ridge;
            outcome.unidentifiable = verdict.unidentifiable.len() as u64;
            outcome.residual = Some(verdict.verdict.residual_l1);
            Ok(outcome)
        };
        let outcome = run_trial()?;
        if tomo_obs::tracing_enabled() {
            tomo_obs::record_trial(tomo_obs::TrialProvenance {
                experiment: format!("chaos.x{scale}"),
                trial: t as u64,
                seed: derive_seed(point_seed ^ ATTACK_SALT, t as u64),
                fault_digest: fault_on.then(|| plan.trial_digest(t as u64)),
                degraded: outcome.degraded,
                used_ridge: outcome.used_ridge,
                verdict: Some(outcome.detected),
                residual: outcome.residual,
                success: Some(outcome.feasible),
            });
        }
        Ok::<_, SimError>(outcome)
    })?;

    let mut point = ChaosPoint {
        scale,
        spec,
        trials: config.trials_per_point,
        attacks_feasible: 0,
        detected: 0,
        detection_rate: None,
        false_positives: 0,
        blinded_trials: 0,
        report: FaultReport::default(),
    };
    for outcome in &outcomes {
        let r = &mut point.report;
        r.injected += outcome.injected;
        r.by_kind.merge(&outcome.by_kind);
        if outcome.quarantined {
            r.quarantined += outcome.injected;
            r.quarantined_trials += 1;
        } else {
            r.handled += outcome.injected;
        }
        if outcome.recovered > 0 {
            r.retried_trials += 1;
        }
        if outcome.degraded {
            r.degraded_trials += 1;
        }
        if outcome.used_ridge {
            r.ridge_solves += 1;
        }
        r.unidentifiable_links += outcome.unidentifiable;
        if outcome.blinded {
            point.blinded_trials += 1;
        }
        if outcome.feasible {
            point.attacks_feasible += 1;
            if outcome.detected {
                point.detected += 1;
            }
        } else if outcome.detected {
            point.false_positives += 1;
        }
    }
    if point.attacks_feasible > 0 {
        point.detection_rate = Some(point.detected as f64 / point.attacks_feasible as f64);
    }
    debug_assert!(point.report.is_balanced());
    Ok(point)
}

/// Runs the chaos sweep, fanning trials out over `exec`.
///
/// # Errors
///
/// Returns [`SimError`] on substrate failure, naming the lowest-index
/// failed trial (injected faults are recovered or quarantined, not
/// propagated).
pub fn run(
    seed: u64,
    spec: &FaultSpec,
    config: &ChaosConfig,
    exec: &Executor,
) -> Result<ChaosResult, SimError> {
    let _span = tomo_obs::span("sim.chaos");
    if config.trials_per_point == 0 || config.scales.is_empty() {
        return Err(SimError(
            "chaos: need at least one scale and one trial per point".into(),
        ));
    }
    let system = fig1::fig1_system()?;
    let detector = ConsistencyDetector::recommended();
    let mut points = Vec::with_capacity(config.scales.len());
    let mut totals = FaultReport::default();
    for (pi, &scale) in config.scales.iter().enumerate() {
        let point_seed = derive_seed(seed, pi as u64);
        let point = run_point(&system, &detector, spec, scale, point_seed, config, exec)?;
        totals.merge(&point.report);
        points.push(point);
    }
    Ok(ChaosResult {
        seed,
        spec: *spec,
        config: config.clone(),
        points,
        totals,
    })
}

/// Renders the sweep as a table of detection quality vs. fault scale.
#[must_use]
pub fn render(result: &ChaosResult) -> String {
    let mut rows = Vec::new();
    for p in &result.points {
        let rate = match p.detection_rate {
            Some(r) => format!("{:>6.1}%", r * 100.0),
            None => "     —".into(),
        };
        rows.push((
            format!("×{:<4.2} ({})", p.scale, p.spec),
            format!(
                "{rate} ({:>3}/{:<3})  fp {:>2}  inj {:>4}  deg {:>3}  quar {:>2}",
                p.detected,
                p.attacks_feasible,
                p.false_positives,
                p.report.injected,
                p.report.degraded_trials,
                p.report.quarantined_trials,
            ),
        ));
    }
    let ledger = format!(
        "ledger: injected {} = handled {} + quarantined {} ({})",
        result.totals.injected,
        result.totals.handled,
        result.totals.quarantined,
        if result.totals.is_balanced() {
            "balanced"
        } else {
            "UNBALANCED"
        },
    );
    let mut out = report::two_column_table(
        &format!(
            "Chaos — detection degradation under injected faults (seed {})",
            result.seed
        ),
        ("fault scale", "detection (n/feasible)  extras"),
        &rows,
    );
    out.push_str(&ledger);
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ChaosConfig {
        ChaosConfig {
            trials_per_point: 12,
            scales: vec![0.0, 1.0],
            max_attackers: 3,
            solver_retries: 1,
        }
    }

    #[test]
    fn ledger_balances_under_measurement_faults() {
        let spec = FaultSpec::parse(DEFAULT_FAULTS).unwrap();
        let r = run(3, &spec, &tiny_config(), &Executor::single_threaded()).unwrap();
        assert!(r.totals.is_balanced(), "{:?}", r.totals);
        assert!(r.totals.injected > 0, "faults should fire at scale 1");
        // Measurement-only faults never quarantine a trial.
        assert_eq!(r.totals.quarantined_trials, 0);
        // Scale 0 injects nothing.
        assert_eq!(r.points[0].report.injected, 0);
        assert_eq!(r.points[0].report.degraded_trials, 0);
    }

    #[test]
    fn probe_loss_routes_through_the_degraded_path() {
        let spec = FaultSpec::parse("loss=0.3").unwrap();
        let r = run(5, &spec, &tiny_config(), &Executor::single_threaded()).unwrap();
        let p = &r.points[1];
        assert!(p.report.degraded_trials > 0, "{p:?}");
        assert_eq!(p.report.injected, p.report.by_kind.loss);
        assert!(r.totals.is_balanced());
    }

    #[test]
    fn solver_faults_recover_through_retries() {
        // Every trial's LP is sabotaged; one retry absorbs each fault.
        let spec = FaultSpec::parse("lp_iter=1").unwrap();
        let config = tiny_config();
        let r = run(7, &spec, &config, &Executor::single_threaded()).unwrap();
        let p = &r.points[1];
        assert_eq!(p.report.by_kind.lp_iteration as usize, p.trials);
        assert_eq!(p.report.retried_trials as usize, p.trials);
        assert_eq!(p.report.quarantined_trials, 0);
        assert!(r.totals.is_balanced());
    }

    #[test]
    fn exhausted_retry_budget_quarantines() {
        let spec = FaultSpec::parse("lp_singular=1").unwrap();
        let config = ChaosConfig {
            solver_retries: 0,
            ..tiny_config()
        };
        let r = run(7, &spec, &config, &Executor::single_threaded()).unwrap();
        let p = &r.points[1];
        assert_eq!(p.report.quarantined_trials as usize, p.trials);
        assert_eq!(p.report.quarantined, p.report.injected);
        assert_eq!(p.report.handled, 0);
        assert!(r.totals.is_balanced());
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let spec =
            FaultSpec::parse("loss=0.1,corrupt=0.05,stale=0.1,link_fail=0.05,lp_iter=0.1").unwrap();
        let a = run(11, &spec, &tiny_config(), &Executor::single_threaded()).unwrap();
        let b = run(11, &spec, &tiny_config(), &Executor::new(4)).unwrap();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn render_contains_table_and_ledger() {
        let spec = FaultSpec::parse(DEFAULT_FAULTS).unwrap();
        let r = run(3, &spec, &tiny_config(), &Executor::single_threaded()).unwrap();
        let s = render(&r);
        assert!(s.contains("Chaos"));
        assert!(s.contains("balanced"));
        assert!(!s.contains("UNBALANCED"));
    }

    #[test]
    fn rejects_empty_sweeps() {
        let spec = FaultSpec::default();
        let empty_scales = ChaosConfig {
            scales: vec![],
            ..tiny_config()
        };
        assert!(run(1, &spec, &empty_scales, &Executor::single_threaded()).is_err());
        let no_trials = ChaosConfig {
            trials_per_point: 0,
            ..tiny_config()
        };
        assert!(run(1, &spec, &no_trials, &Executor::single_threaded()).is_err());
    }
}
