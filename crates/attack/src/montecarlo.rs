//! Monte-Carlo attack-feasibility experiments (Figs. 7 and 8).
//!
//! Each *trial* draws random attackers, a random victim, and random
//! routine link delays on a fixed measurement system, then asks whether
//! the strategy's LP is feasible. The paper's success probability is the
//! fraction of feasible trials; for chosen-victim attacks it is reported
//! against the *attack presence ratio* (Theorem 2's driver), which this
//! module also bins.

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use tomo_core::delay::DelayModel;
use tomo_core::TomographySystem;
use tomo_graph::{LinkId, NodeId};
use tomo_linalg::Vector;
use tomo_lp::WarmStart;
use tomo_obs::LazyCounter;
use tomo_par::{derive_seed, Executor};

static TRIALS: LazyCounter = LazyCounter::new("attack.montecarlo.trials");
static DEGENERATE: LazyCounter = LazyCounter::new("attack.montecarlo.degenerate");
static FAULT_RECOVERED: LazyCounter = LazyCounter::new("attack.montecarlo.fault.recovered");
static FAULT_QUARANTINED: LazyCounter = LazyCounter::new("attack.montecarlo.fault.quarantined");

use crate::attacker::AttackerSet;
use crate::cut::analyze_cut;
use crate::scenario::AttackScenario;
use crate::strategy;
use crate::AttackError;

/// One chosen-victim trial's record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChosenVictimTrial {
    /// Attack presence ratio of the sampled (attackers, victim) pair.
    pub presence_ratio: f64,
    /// Whether the attackers perfectly cut the victim.
    pub perfect_cut: bool,
    /// Whether the strategy LP was feasible.
    pub success: bool,
    /// Damage achieved when successful.
    pub damage: f64,
}

/// One single-attacker trial's record (max-damage or obfuscation).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SingleAttackerTrial {
    /// Whether the strategy found any feasible victim set.
    pub success: bool,
    /// Damage achieved when successful.
    pub damage: f64,
}

/// Draws a uniformly random attacker set of `count` nodes.
///
/// Monitors are eligible — the paper allows compromised monitors
/// (Section II-D).
fn sample_attackers<R: Rng + ?Sized>(
    system: &TomographySystem,
    count: usize,
    rng: &mut R,
) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = system.graph().nodes().collect();
    let count = count.min(nodes.len()).max(1);
    // Partial Fisher–Yates: `count` swaps instead of a full shuffle —
    // coalition sizes are tiny compared to the node count.
    let (sampled, _) = nodes.partial_shuffle(rng, count);
    sampled.to_vec()
}

/// Runs one chosen-victim trial: random attackers, a random
/// non-controlled victim link, random routine delays.
///
/// Returns `None` when the draw is degenerate (attackers control every
/// link, or the victim is not covered by any path — impossible on
/// identifiable systems, kept for robustness).
///
/// # Errors
///
/// Propagates attack-construction errors.
pub fn chosen_victim_trial<R: Rng + ?Sized>(
    system: &TomographySystem,
    scenario: &AttackScenario,
    delay_model: &DelayModel,
    num_attackers: usize,
    rng: &mut R,
) -> Result<Option<ChosenVictimTrial>, AttackError> {
    Ok(chosen_victim_detail(system, scenario, delay_model, num_attackers, rng)?.map(|d| d.trial))
}

/// A chosen-victim trial's full context, beyond the summary record:
/// the sampled world and, on success, the manipulation vector. The
/// chaos experiment needs these to replay the attacked measurements
/// through a fault-injected detection round.
#[derive(Debug, Clone)]
pub struct ChosenVictimTrialDetail {
    /// The summary record (what [`chosen_victim_trial`] returns).
    pub trial: ChosenVictimTrial,
    /// The framed victim link.
    pub victim: LinkId,
    /// The sampled routine link delays `x`.
    pub true_delays: Vector,
    /// The manipulation vector `m` when the attack LP was feasible
    /// (attacked measurements are `y = R x + m`).
    pub manipulation: Option<Vector>,
}

/// [`chosen_victim_trial`] with the sampled world attached — identical
/// RNG draw sequence, so both variants produce the same trial for the
/// same stream.
///
/// The `_warm` handle is ignored and the attack LP solves cold; the
/// parameter is kept only because the benchmark in `perfbench/` still
/// passes it, and goes once the benchmark stops calling it.
///
/// # Errors
///
/// Propagates attack-construction errors.
pub fn chosen_victim_trial_detailed<R: Rng + ?Sized>(
    system: &TomographySystem,
    scenario: &AttackScenario,
    delay_model: &DelayModel,
    num_attackers: usize,
    _warm: Option<&WarmStart>,
    rng: &mut R,
) -> Result<Option<ChosenVictimTrialDetail>, AttackError> {
    chosen_victim_detail(system, scenario, delay_model, num_attackers, rng)
}

/// The chosen-victim trial behind [`chosen_victim_trial`],
/// [`chosen_victim_trial_detailed`] and [`chosen_victim_trial_faulted`].
fn chosen_victim_detail<R: Rng + ?Sized>(
    system: &TomographySystem,
    scenario: &AttackScenario,
    delay_model: &DelayModel,
    num_attackers: usize,
    rng: &mut R,
) -> Result<Option<ChosenVictimTrialDetail>, AttackError> {
    TRIALS.inc();
    let attackers = AttackerSet::new(system, sample_attackers(system, num_attackers, rng))?;
    let free_links: Vec<LinkId> = (0..system.num_links())
        .map(LinkId)
        .filter(|&l| !attackers.controls_link(l))
        .collect();
    let Some(&victim) = free_links.as_slice().choose(rng) else {
        DEGENERATE.inc();
        return Ok(None);
    };
    let cut = analyze_cut(system, &attackers, &[victim]);
    if cut.victim_paths.is_empty() {
        DEGENERATE.inc();
        return Ok(None);
    }
    let x = delay_model.sample(system.num_links(), rng);
    let outcome = strategy::chosen_victim(system, &attackers, scenario, &x, &[victim])?;
    let (success, damage, manipulation) = match outcome.success() {
        Some(s) => (true, s.damage, Some(s.manipulation.clone())),
        None => (false, 0.0, None),
    };
    Ok(Some(ChosenVictimTrialDetail {
        trial: ChosenVictimTrial {
            presence_ratio: cut.presence_ratio(),
            perfect_cut: cut.is_perfect(),
            success,
            damage,
        },
        victim,
        true_delays: x,
        manipulation,
    }))
}

/// Outcome of a fault-injected chosen-victim trial
/// (see [`chosen_victim_trial_faulted`]).
#[derive(Debug, Clone)]
pub enum FaultedTrial {
    /// The trial produced a record (possibly after absorbing injected
    /// solver faults through retries).
    Completed {
        /// The trial detail (`None` on a degenerate draw).
        detail: Option<ChosenVictimTrialDetail>,
        /// Injected solver faults absorbed by the retry ladder.
        recovered_faults: u32,
    },
    /// The retry budget was exhausted; the trial is abandoned with the
    /// final typed error rendered for the fault report.
    Quarantined {
        /// Display form of the last solver error.
        error: String,
    },
}

/// `true` for the typed LP errors the chaos layer injects
/// ([`tomo_lp::chaos`]) — the failures montecarlo converts into recorded
/// outcomes rather than aborts.
#[must_use]
pub fn is_injected_solver_fault(e: &AttackError) -> bool {
    matches!(
        e,
        AttackError::Lp(
            tomo_lp::LpError::IterationLimit { .. } | tomo_lp::LpError::SingularBasis { .. }
        )
    )
}

/// Runs a chosen-victim trial under an optionally armed solver fault,
/// with a bounded deterministic retry ladder.
///
/// Every attempt reseeds an identical RNG stream from `rng_seed`, so a
/// retry replays *exactly* the same trial — the only difference is that
/// the armed fault has been consumed, letting the solve complete. Solver
/// breakdowns that are **not** injected faults propagate as errors;
/// injected ones either recover (counted in `recovered_faults`) or,
/// after `max_retries` additional attempts, quarantine the trial as a
/// recorded outcome instead of an abort.
///
/// The armed fault is always disarmed before returning, whatever the
/// path, so no fault can leak into the next trial on this worker thread.
///
/// # Errors
///
/// Propagates attack-construction errors unrelated to fault injection.
pub fn chosen_victim_trial_faulted(
    system: &TomographySystem,
    scenario: &AttackScenario,
    delay_model: &DelayModel,
    num_attackers: usize,
    solver_fault: Option<tomo_lp::chaos::SolveFault>,
    max_retries: u32,
    rng_seed: u64,
) -> Result<FaultedTrial, AttackError> {
    let mut recovered = 0u32;
    for attempt in 0..=max_retries {
        if attempt == 0 {
            if let Some(fault) = solver_fault {
                tomo_lp::chaos::arm(fault);
            }
        }
        let mut rng = ChaCha8Rng::seed_from_u64(rng_seed);
        let result = chosen_victim_detail(system, scenario, delay_model, num_attackers, &mut rng);
        tomo_lp::chaos::disarm();
        match result {
            Ok(detail) => {
                if recovered > 0 {
                    FAULT_RECOVERED.add(u64::from(recovered));
                }
                return Ok(FaultedTrial::Completed {
                    detail,
                    recovered_faults: recovered,
                });
            }
            Err(e) if is_injected_solver_fault(&e) => {
                if attempt == max_retries {
                    FAULT_QUARANTINED.inc();
                    return Ok(FaultedTrial::Quarantined {
                        error: e.to_string(),
                    });
                }
                recovered += 1;
            }
            Err(e) => return Err(e),
        }
    }
    unreachable!("the retry loop always returns")
}

/// Runs one single-attacker maximum-damage trial (Fig. 8).
///
/// # Errors
///
/// Propagates attack-construction errors.
pub fn max_damage_trial<R: Rng + ?Sized>(
    system: &TomographySystem,
    scenario: &AttackScenario,
    delay_model: &DelayModel,
    rng: &mut R,
) -> Result<SingleAttackerTrial, AttackError> {
    TRIALS.inc();
    let attackers = AttackerSet::new(system, sample_attackers(system, 1, rng))?;
    let x = delay_model.sample(system.num_links(), rng);
    let outcome = strategy::max_damage(system, &attackers, scenario, &x)?;
    Ok(match outcome.success() {
        Some(s) => SingleAttackerTrial {
            success: true,
            damage: s.damage,
        },
        None => SingleAttackerTrial {
            success: false,
            damage: 0.0,
        },
    })
}

/// Runs one single-attacker obfuscation trial (Fig. 8): success requires
/// at least `min_victims` victim links in the uncertain state.
///
/// # Errors
///
/// Propagates attack-construction errors.
pub fn obfuscation_trial<R: Rng + ?Sized>(
    system: &TomographySystem,
    scenario: &AttackScenario,
    delay_model: &DelayModel,
    min_victims: usize,
    rng: &mut R,
) -> Result<SingleAttackerTrial, AttackError> {
    TRIALS.inc();
    let attackers = AttackerSet::new(system, sample_attackers(system, 1, rng))?;
    let x = delay_model.sample(system.num_links(), rng);
    let outcome = strategy::obfuscation(system, &attackers, scenario, &x, min_victims)?;
    Ok(match outcome.success() {
        Some(s) => SingleAttackerTrial {
            success: true,
            damage: s.damage,
        },
        None => SingleAttackerTrial {
            success: false,
            damage: 0.0,
        },
    })
}

/// Success probability as a function of coalition size — a natural
/// companion to Fig. 7 (which varies the presence *ratio*): how does the
/// number of colluding nodes translate into feasibility?
///
/// Runs `trials` chosen-victim trials for each coalition size in
/// `1..=max_attackers`, fanned out across `exec`'s workers, and returns
/// one success probability per size. Each trial draws from its own RNG
/// stream derived from `(seed, trial_index)`, so the curve is
/// bit-identical for every thread count.
///
/// # Errors
///
/// Propagates attack-construction errors.
pub fn coalition_sweep(
    system: &TomographySystem,
    scenario: &AttackScenario,
    delay_model: &DelayModel,
    max_attackers: usize,
    trials: usize,
    seed: u64,
    exec: &Executor,
) -> Result<Vec<f64>, AttackError> {
    let max_attackers = max_attackers.max(1);
    if trials == 0 {
        return Ok(vec![0.0; max_attackers]);
    }
    system.warm_estimator_cache()?;
    let records = exec.try_map(max_attackers * trials, |idx| {
        let k = idx / trials + 1;
        let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(seed, idx as u64));
        chosen_victim_trial(system, scenario, delay_model, k, &mut rng)
    })?;
    let curve = records
        .chunks(trials)
        .map(|chunk| {
            let usable = chunk.iter().flatten().count();
            let successes = chunk.iter().flatten().filter(|t| t.success).count();
            if usable == 0 {
                0.0
            } else {
                successes as f64 / usable as f64
            }
        })
        .collect();
    Ok(curve)
}

/// Success probability per presence-ratio bin — the Fig. 7 curve.
///
/// `bins` half-open intervals partition `[0, 1]`; the last bin is closed
/// at 1. Bins with no samples report `None`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RatioBins {
    /// Bin edges: `edges[k] .. edges[k+1]`.
    pub edges: Vec<f64>,
    /// Trials per bin.
    pub counts: Vec<usize>,
    /// Successes per bin.
    pub successes: Vec<usize>,
}

impl RatioBins {
    /// Builds `bins` equal-width bins over `[0, 1]` from trial records.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`.
    #[must_use]
    pub fn from_trials(trials: &[ChosenVictimTrial], bins: usize) -> Self {
        assert!(bins > 0, "at least one bin required");
        let edges: Vec<f64> = (0..=bins).map(|k| k as f64 / bins as f64).collect();
        let mut counts = vec![0usize; bins];
        let mut successes = vec![0usize; bins];
        for t in trials {
            let mut k = (t.presence_ratio * bins as f64).floor() as usize;
            if k >= bins {
                k = bins - 1; // ratio == 1.0 goes to the last bin
            }
            counts[k] += 1;
            if t.success {
                successes[k] += 1;
            }
        }
        RatioBins {
            edges,
            counts,
            successes,
        }
    }

    /// Success probability of bin `k` (`None` when empty).
    #[must_use]
    pub fn probability(&self, k: usize) -> Option<f64> {
        if self.counts[k] == 0 {
            None
        } else {
            Some(self.successes[k] as f64 / self.counts[k] as f64)
        }
    }

    /// Number of bins.
    #[must_use]
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// `true` if there are no bins (cannot happen via `from_trials`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tomo_core::{fig1, params};

    fn fig1_setup() -> (TomographySystem, AttackScenario, DelayModel) {
        (
            fig1::fig1_system().unwrap(),
            AttackScenario::paper_defaults(),
            params::default_delay_model(),
        )
    }

    #[test]
    fn chosen_victim_trials_produce_valid_records() {
        let (system, scenario, delays) = fig1_setup();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut any_success = false;
        for _ in 0..30 {
            if let Some(t) = chosen_victim_trial(&system, &scenario, &delays, 2, &mut rng).unwrap()
            {
                assert!((0.0..=1.0).contains(&t.presence_ratio));
                if t.perfect_cut {
                    assert!((t.presence_ratio - 1.0).abs() < 1e-12);
                    // Theorem 1: perfect cut ⇒ success.
                    assert!(t.success, "perfect cut must succeed");
                }
                if t.success {
                    assert!(t.damage > 0.0);
                    any_success = true;
                } else {
                    assert_eq!(t.damage, 0.0);
                }
            }
        }
        assert!(any_success, "some Fig. 1 trials must succeed");
    }

    #[test]
    fn single_attacker_trials_run() {
        let (system, scenario, delays) = fig1_setup();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut md_successes = 0;
        for _ in 0..10 {
            let t = max_damage_trial(&system, &scenario, &delays, &mut rng).unwrap();
            if t.success {
                md_successes += 1;
                assert!(t.damage > 0.0);
            }
        }
        // On Fig. 1 most single attackers can frame someone.
        assert!(md_successes > 0);

        let t = obfuscation_trial(&system, &scenario, &delays, 2, &mut rng).unwrap();
        // Either outcome is legitimate; record shape only.
        if !t.success {
            assert_eq!(t.damage, 0.0);
        }
    }

    #[test]
    fn trials_are_deterministic_per_seed() {
        let (system, scenario, delays) = fig1_setup();
        let a = chosen_victim_trial(
            &system,
            &scenario,
            &delays,
            2,
            &mut ChaCha8Rng::seed_from_u64(7),
        )
        .unwrap();
        let b = chosen_victim_trial(
            &system,
            &scenario,
            &delays,
            2,
            &mut ChaCha8Rng::seed_from_u64(7),
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn detailed_trial_matches_summary_trial() {
        let (system, scenario, delays) = fig1_setup();
        for seed in [3u64, 11, 19] {
            let summary = chosen_victim_trial(
                &system,
                &scenario,
                &delays,
                2,
                &mut ChaCha8Rng::seed_from_u64(seed),
            )
            .unwrap();
            let detail = chosen_victim_trial_detailed(
                &system,
                &scenario,
                &delays,
                2,
                None,
                &mut ChaCha8Rng::seed_from_u64(seed),
            )
            .unwrap();
            assert_eq!(summary, detail.as_ref().map(|d| d.trial));
            if let Some(d) = detail {
                assert_eq!(d.true_delays.len(), system.num_links());
                assert_eq!(d.manipulation.is_some(), d.trial.success);
                if let Some(m) = &d.manipulation {
                    assert_eq!(m.len(), system.num_paths());
                }
            }
        }
    }

    #[test]
    fn faulted_trial_without_fault_matches_plain_trial() {
        let (system, scenario, delays) = fig1_setup();
        let outcome =
            chosen_victim_trial_faulted(&system, &scenario, &delays, 2, None, 1, 77).unwrap();
        let FaultedTrial::Completed {
            detail,
            recovered_faults,
        } = outcome
        else {
            panic!("unfaulted trial cannot quarantine");
        };
        assert_eq!(recovered_faults, 0);
        let plain = chosen_victim_trial(
            &system,
            &scenario,
            &delays,
            2,
            &mut ChaCha8Rng::seed_from_u64(77),
        )
        .unwrap();
        assert_eq!(detail.map(|d| d.trial), plain);
    }

    #[test]
    fn injected_solver_faults_recover_through_retry() {
        let (system, scenario, delays) = fig1_setup();
        for fault in [
            tomo_lp::chaos::SolveFault::IterationExhaustion,
            tomo_lp::chaos::SolveFault::SingularBasis,
        ] {
            let outcome =
                chosen_victim_trial_faulted(&system, &scenario, &delays, 2, Some(fault), 1, 77)
                    .unwrap();
            let FaultedTrial::Completed {
                detail,
                recovered_faults,
            } = outcome
            else {
                panic!("{fault:?}: one retry must recover");
            };
            assert_eq!(recovered_faults, 1, "{fault:?}");
            // The retry replays the identical trial.
            let plain = chosen_victim_trial(
                &system,
                &scenario,
                &delays,
                2,
                &mut ChaCha8Rng::seed_from_u64(77),
            )
            .unwrap();
            assert_eq!(detail.map(|d| d.trial), plain, "{fault:?}");
        }
    }

    #[test]
    fn exhausted_retry_budget_quarantines_instead_of_aborting() {
        let (system, scenario, delays) = fig1_setup();
        let outcome = chosen_victim_trial_faulted(
            &system,
            &scenario,
            &delays,
            2,
            Some(tomo_lp::chaos::SolveFault::IterationExhaustion),
            0,
            77,
        )
        .unwrap();
        let FaultedTrial::Quarantined { error } = outcome else {
            panic!("zero retries must quarantine");
        };
        assert!(error.contains("iterations"), "error: {error}");
        // The armed fault was consumed: the next plain trial is healthy.
        assert!(chosen_victim_trial(
            &system,
            &scenario,
            &delays,
            2,
            &mut ChaCha8Rng::seed_from_u64(77),
        )
        .is_ok());
    }

    #[test]
    fn injected_fault_classifier() {
        assert!(is_injected_solver_fault(&AttackError::Lp(
            tomo_lp::LpError::IterationLimit { limit: 5 }
        )));
        assert!(is_injected_solver_fault(&AttackError::Lp(
            tomo_lp::LpError::SingularBasis { rows: 3 }
        )));
        assert!(!is_injected_solver_fault(&AttackError::Lp(
            tomo_lp::LpError::NonFiniteCoefficient { context: "x" }
        )));
    }

    #[test]
    fn coalition_sweep_grows_with_attackers() {
        let (system, scenario, delays) = fig1_setup();
        let exec = Executor::single_threaded();
        let curve = coalition_sweep(&system, &scenario, &delays, 4, 25, 10, &exec).unwrap();
        assert_eq!(curve.len(), 4);
        assert!(curve.iter().all(|p| (0.0..=1.0).contains(p)));
        // Larger coalitions should not be dramatically worse: compare the
        // best of sizes {3,4} against size 1 (statistical, generous slack).
        let large = curve[2].max(curve[3]);
        assert!(
            large + 0.25 >= curve[0],
            "coalitions of 3-4 ({large}) much weaker than singletons ({})",
            curve[0]
        );
    }

    #[test]
    fn coalition_sweep_is_thread_count_invariant() {
        let (system, scenario, delays) = fig1_setup();
        let seq = coalition_sweep(
            &system,
            &scenario,
            &delays,
            3,
            8,
            10,
            &Executor::single_threaded(),
        )
        .unwrap();
        let par =
            coalition_sweep(&system, &scenario, &delays, 3, 8, 10, &Executor::new(4)).unwrap();
        // Bit-identical, not approximately equal.
        assert_eq!(seq, par);
        // Degenerate sizes still produce a full curve.
        let empty = coalition_sweep(
            &system,
            &scenario,
            &delays,
            2,
            0,
            10,
            &Executor::single_threaded(),
        )
        .unwrap();
        assert_eq!(empty, vec![0.0, 0.0]);
    }

    #[test]
    fn ratio_bins_aggregate_correctly() {
        let trials = vec![
            ChosenVictimTrial {
                presence_ratio: 0.05,
                perfect_cut: false,
                success: false,
                damage: 0.0,
            },
            ChosenVictimTrial {
                presence_ratio: 0.55,
                perfect_cut: false,
                success: true,
                damage: 10.0,
            },
            ChosenVictimTrial {
                presence_ratio: 0.55,
                perfect_cut: false,
                success: false,
                damage: 0.0,
            },
            ChosenVictimTrial {
                presence_ratio: 1.0,
                perfect_cut: true,
                success: true,
                damage: 5.0,
            },
        ];
        let bins = RatioBins::from_trials(&trials, 10);
        assert_eq!(bins.len(), 10);
        assert!(!bins.is_empty());
        assert_eq!(bins.counts[0], 1);
        assert_eq!(bins.probability(0), Some(0.0));
        assert_eq!(bins.counts[5], 2);
        assert_eq!(bins.probability(5), Some(0.5));
        // ratio 1.0 lands in the last bin.
        assert_eq!(bins.counts[9], 1);
        assert_eq!(bins.probability(9), Some(1.0));
        assert_eq!(bins.probability(3), None);
        assert_eq!(bins.edges.len(), 11);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panics() {
        let _ = RatioBins::from_trials(&[], 0);
    }
}
