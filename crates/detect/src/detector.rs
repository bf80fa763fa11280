use serde::{Deserialize, Serialize};

use tomo_core::{params, CoreError, TomographySystem};
use tomo_graph::LinkId;
use tomo_linalg::{norms, Vector};

/// The consistency-based scapegoating detector of Eq. (23) / Remark 4 —
/// flag an attack when `‖R x̂ − y′‖₁ > α` — optionally paired with a
/// **plausibility check** on the estimate itself.
///
/// The plausibility check closes a hole this reproduction found in the
/// paper's Theorem 3 (see `tomo-sim::fig9` and DESIGN.md): the proof of
/// the "detectable" branch tacitly assumes attackers only distort victim
/// and own-link estimates. On AS-scale systems the damage-maximal LP can
/// instead produce *consistent* manipulated measurements (`R x̂ = y′`
/// exactly) whose estimates frame the victim while driving other links'
/// estimated delays strongly **negative** — physically impossible values
/// the pure Eq. (23) check never looks at. Flagging estimates below
/// `−plausibility_tol` restores detection; stealthy perfect-cut attacks
/// (which keep `x̂ ⪰ 0` by construction) remain invisible, exactly as
/// Theorem 3's undetectable branch promises.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConsistencyDetector {
    alpha: f64,
    /// Flag estimates below `−plausibility_tol`; `None` disables the
    /// check (the paper's literal Eq. 23 detector).
    plausibility_tol: Option<f64>,
}

/// The detector's decision for one measurement round.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Verdict {
    /// The consistency residual `‖R x̂ − y′‖₁`.
    pub residual_l1: f64,
    /// The smallest entry of the estimate `x̂` (negative values are
    /// physically impossible for delays).
    pub min_estimate: f64,
    /// `true` when the residual exceeds α, or — with the plausibility
    /// check enabled — when some estimate is implausibly negative.
    pub detected: bool,
}

impl ConsistencyDetector {
    /// Creates a pure Eq. (23) detector with threshold `alpha ≥ 0`.
    ///
    /// Returns `None` for negative or non-finite thresholds.
    #[must_use]
    pub fn new(alpha: f64) -> Option<Self> {
        if alpha.is_finite() && alpha >= 0.0 {
            Some(ConsistencyDetector {
                alpha,
                plausibility_tol: None,
            })
        } else {
            None
        }
    }

    /// The paper's experimental setting: `α = 200 ms`, consistency check
    /// only (Section V-D).
    #[must_use]
    pub fn paper_default() -> Self {
        ConsistencyDetector {
            alpha: params::ALPHA_MS,
            plausibility_tol: None,
        }
    }

    /// The recommended deployment: the paper's `α = 200 ms` consistency
    /// check *plus* a tight plausibility check (1 ms).
    ///
    /// The plausibility tolerance must sit at the measurement-noise
    /// floor, not at α: a consistent evader can spread its negative
    /// offsets across several links of each attacker-free path, keeping
    /// every individual estimate above any loose bound. With `tol` near
    /// zero the evader would need `Δx̂ ⪰ 0` everywhere, and then
    /// consistency forces `Δ = 0` along attacker-free victim paths —
    /// Theorem 3's detectable branch, restored. Under real measurement
    /// noise, calibrate the tolerance like α, as a high quantile of
    /// clean-round values.
    #[must_use]
    pub fn recommended() -> Self {
        ConsistencyDetector {
            alpha: params::ALPHA_MS,
            plausibility_tol: Some(1.0),
        }
    }

    /// Returns a copy with the plausibility check set to `tol` (flag when
    /// any estimate drops below `−tol`), or disabled with `None`.
    ///
    /// # Panics
    ///
    /// Panics if `tol` is negative or non-finite.
    #[must_use]
    pub fn with_plausibility(mut self, tol: Option<f64>) -> Self {
        if let Some(t) = tol {
            assert!(t.is_finite() && t >= 0.0, "plausibility tol must be ≥ 0");
        }
        self.plausibility_tol = tol;
        self
    }

    /// The threshold α.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The plausibility tolerance, if the check is enabled.
    #[must_use]
    pub fn plausibility_tol(&self) -> Option<f64> {
        self.plausibility_tol
    }

    /// Runs the check(s) on observed measurements `y′`: estimates `x̂`,
    /// re-projects `R x̂`, compares against `y′`, and (optionally)
    /// inspects `x̂` for implausibly negative entries.
    ///
    /// # Errors
    ///
    /// * [`CoreError::NonFiniteMeasurement`] if a reading is NaN or
    ///   infinite (a corrupted round is an error, never a clean verdict),
    /// * [`CoreError::DimensionMismatch`] if `y′` has the wrong length.
    pub fn inspect(
        &self,
        system: &TomographySystem,
        observed: &Vector,
    ) -> Result<Verdict, CoreError> {
        Ok(self.inspect_with_estimate(system, observed)?.0)
    }

    /// [`Self::inspect`], also returning the estimate it judged.
    fn inspect_with_estimate(
        &self,
        system: &TomographySystem,
        observed: &Vector,
    ) -> Result<(Verdict, Vector), CoreError> {
        let (residual_l1, estimate) = consistency_residual(system, observed)?;
        let verdict = self.verdict(residual_l1, estimate.min().unwrap_or(0.0));
        Ok((verdict, estimate))
    }

    /// The decision itself: flag when the residual exceeds α or, with
    /// the plausibility check on, when the smallest judged estimate is
    /// below `−tol`.
    fn verdict(&self, residual_l1: f64, min_estimate: f64) -> Verdict {
        let implausible = self.plausibility_tol.is_some_and(|tol| min_estimate < -tol);
        Verdict {
            residual_l1,
            min_estimate,
            detected: residual_l1 > self.alpha || implausible,
        }
    }

    /// Runs the check(s) on a *surviving subset* of measurements — the
    /// detector's graceful-degradation path after probe loss.
    ///
    /// When `surviving_rows` is exactly `0..|P|` (every row, in path
    /// order) this routes through [`Self::inspect`] and is bit-identical
    /// to it. Any other list, including a reordered or repeated one of
    /// length `|P|`, goes to [`TomographySystem::solve_degraded`], which
    /// validates it and gives the estimate; the residual is
    /// accumulated over the surviving rows only, and the plausibility
    /// check skips links flagged unidentifiable (their ridge coordinates
    /// carry no information and must not trigger detection). Either way
    /// the judged estimate is returned with the verdict.
    ///
    /// # Errors
    ///
    /// Propagates the validation errors of [`Self::inspect`] when every
    /// row survives and of [`TomographySystem::solve_degraded`]
    /// otherwise, including [`CoreError::NonFiniteMeasurement`]; rows
    /// out of ascending order or repeated are a
    /// [`CoreError::DimensionMismatch`] at any length.
    pub fn inspect_degraded(
        &self,
        system: &TomographySystem,
        surviving_rows: &[usize],
        observed_sub: &Vector,
    ) -> Result<DegradedVerdict, CoreError> {
        if surviving_rows.iter().copied().eq(0..system.num_paths()) {
            // Full survival: defer to the exact path (also re-validates).
            let (verdict, estimate) = self.inspect_with_estimate(system, observed_sub)?;
            return Ok(DegradedVerdict {
                verdict,
                estimate,
                degraded: false,
                rank: system.num_links(),
                used_ridge: false,
                unidentifiable: Vec::new(),
            });
        }
        let solve = system.solve_degraded(surviving_rows, observed_sub)?;
        let routing = system.routing_csr();
        let mut residual_l1 = 0.0;
        for (k, &row) in surviving_rows.iter().enumerate() {
            let reprojected: f64 = routing
                .row_iter(row)
                .map(|(j, r)| r * solve.estimate[j])
                .sum();
            residual_l1 += (reprojected - observed_sub[k]).abs();
        }
        let mut unidentifiable = vec![false; system.num_links()];
        for link in &solve.unidentifiable {
            unidentifiable[link.index()] = true;
        }
        let min_estimate = solve
            .estimate
            .iter()
            .zip(&unidentifiable)
            .filter(|(_, &skip)| !skip)
            .map(|(&v, _)| v)
            .fold(f64::INFINITY, f64::min);
        let min_estimate = if min_estimate.is_finite() {
            min_estimate
        } else {
            0.0
        };
        Ok(DegradedVerdict {
            verdict: self.verdict(residual_l1, min_estimate),
            estimate: solve.estimate,
            degraded: true,
            rank: solve.rank,
            used_ridge: solve.used_ridge,
            unidentifiable: solve.unidentifiable,
        })
    }
}

/// The Eq. 23 statistic `‖R x̂ − y′‖₁` over a full measurement vector,
/// with the estimate `x̂` it judged: the one place the estimate,
/// re-projection and ℓ₁ residual are computed for a whole system.
///
/// # Errors
///
/// * [`CoreError::NonFiniteMeasurement`] if a reading is NaN or
///   infinite,
/// * [`CoreError::DimensionMismatch`] if `observed` has the wrong length.
pub(crate) fn consistency_residual(
    system: &TomographySystem,
    observed: &Vector,
) -> Result<(f64, Vector), CoreError> {
    ensure_finite(observed)?;
    let estimate = system.estimate(observed)?;
    let reprojected = system.routing_csr().mul_vec(&estimate)?;
    Ok((norms::l1(&(&reprojected - observed)), estimate))
}

/// Rejects a measurement vector holding a NaN or infinite reading, the
/// check outside measurements pass where they enter detection.
pub(crate) fn ensure_finite(observed: &Vector) -> Result<(), CoreError> {
    match observed.iter().position(|v| !v.is_finite()) {
        Some(row) => Err(CoreError::NonFiniteMeasurement { row }),
        None => Ok(()),
    }
}

/// The verdicts on a base round and on the base plus a delta, each one
/// [`ConsistencyDetector::inspect`] call on the full vector.
///
/// Kept only because the frozen benchmark under `perfbench/` calls it;
/// it goes with that benchmark's next revision (ROADMAP item 1), as
/// `tomo_lp::WarmStart` does. New code calls `inspect` directly.
#[derive(Debug, Clone)]
pub struct ResidualTally {
    y_base: Vector,
    base_verdict: Verdict,
}

impl ResidualTally {
    /// Inspects the base round `y_base` and keeps it for [`Self::rescore`].
    ///
    /// # Errors
    ///
    /// The errors of [`ConsistencyDetector::inspect`] on `y_base`.
    pub fn new(
        detector: &ConsistencyDetector,
        system: &TomographySystem,
        y_base: &Vector,
    ) -> Result<Self, CoreError> {
        Ok(ResidualTally {
            base_verdict: detector.inspect(system, y_base)?,
            y_base: y_base.clone(),
        })
    }

    /// The verdict on the base round itself.
    #[must_use]
    pub fn base_verdict(&self) -> Verdict {
        self.base_verdict
    }

    /// [`ConsistencyDetector::inspect`] on `y_base + delta`.
    ///
    /// # Errors
    ///
    /// [`CoreError::DimensionMismatch`] if `delta` differs in length from
    /// the base round, and otherwise the errors of `inspect`, including
    /// [`CoreError::NonFiniteMeasurement`] for a NaN or infinite sum.
    pub fn rescore(
        &self,
        detector: &ConsistencyDetector,
        system: &TomographySystem,
        delta: &Vector,
    ) -> Result<Verdict, CoreError> {
        if delta.len() != self.y_base.len() {
            return Err(CoreError::DimensionMismatch {
                context: "residual tally: delta",
                expected: self.y_base.len(),
                got: delta.len(),
            });
        }
        detector.inspect(system, &(&self.y_base + delta))
    }
}

/// A [`Verdict`] from a degraded round, plus how degraded it was.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedVerdict {
    /// The detection decision.
    pub verdict: Verdict,
    /// The estimate the decision judged: [`TomographySystem::estimate`]
    /// when every row survived, [`TomographySystem::solve_degraded`]'s
    /// otherwise.
    pub estimate: Vector,
    /// `false` when every measurement survived (the decision then equals
    /// [`ConsistencyDetector::inspect`] exactly).
    pub degraded: bool,
    /// Rank of the surviving routing submatrix.
    pub rank: usize,
    /// Whether estimation needed the ridge fallback.
    pub used_ridge: bool,
    /// Links excluded from the plausibility check as unidentifiable.
    pub unidentifiable: Vec<LinkId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use tomo_attack::attacker::AttackerSet;
    use tomo_attack::scenario::AttackScenario;
    use tomo_attack::{strategy, theory};
    use tomo_core::fig1;

    #[test]
    fn validation() {
        assert!(ConsistencyDetector::new(0.0).is_some());
        assert!(ConsistencyDetector::new(-1.0).is_none());
        assert!(ConsistencyDetector::new(f64::NAN).is_none());
        assert_eq!(ConsistencyDetector::paper_default().alpha(), 200.0);
        assert_eq!(
            ConsistencyDetector::paper_default().plausibility_tol(),
            None
        );
        assert_eq!(
            ConsistencyDetector::recommended().plausibility_tol(),
            Some(1.0)
        );
    }

    #[test]
    #[should_panic(expected = "must be ≥ 0")]
    fn negative_plausibility_tol_panics() {
        let _ = ConsistencyDetector::paper_default().with_plausibility(Some(-1.0));
    }

    #[test]
    fn clean_measurements_pass() {
        let system = fig1::fig1_system().unwrap();
        for detector in [
            ConsistencyDetector::paper_default(),
            ConsistencyDetector::recommended(),
        ] {
            let y = system.measure(&Vector::filled(10, 15.0)).unwrap();
            let v = detector.inspect(&system, &y).unwrap();
            assert!(!v.detected);
            assert!(v.residual_l1 < 1e-6);
            assert!(v.min_estimate > 14.0);
        }
    }

    #[test]
    fn wrong_length_rejected() {
        let system = fig1::fig1_system().unwrap();
        let detector = ConsistencyDetector::paper_default();
        assert!(detector.inspect(&system, &Vector::zeros(5)).is_err());
    }

    #[test]
    fn perfect_cut_attack_is_undetectable_even_with_plausibility() {
        // Theorem 3, undetectable branch: the constructed perfect-cut
        // attack satisfies R x̂ = y′ exactly AND keeps estimates
        // non-negative, so even the recommended detector stays silent.
        let system = fig1::fig1_system().unwrap();
        let topo = fig1::fig1_topology();
        let attackers = AttackerSet::new(&system, topo.attackers.clone()).unwrap();
        let x = Vector::filled(10, 10.0);
        let outcome = theory::perfect_cut_attack(
            &system,
            &attackers,
            &AttackScenario::paper_defaults(),
            &x,
            &[topo.paper_link(1)],
            900.0,
        )
        .unwrap();
        let s = outcome.success().unwrap();
        let y_attacked = &system.measure(&x).unwrap() + &s.manipulation;
        let v = ConsistencyDetector::recommended()
            .inspect(&system, &y_attacked)
            .unwrap();
        assert!(
            !v.detected,
            "residual {} min {}",
            v.residual_l1, v.min_estimate
        );
        assert!(v.residual_l1 < 1e-6);
        assert!(v.min_estimate >= -1e-6);
    }

    #[test]
    fn imperfect_cut_attack_is_detected() {
        // Theorem 3, detectable branch on Fig. 1: framing the imperfectly
        // cut link 10 leaves a large residual.
        let system = fig1::fig1_system().unwrap();
        let topo = fig1::fig1_topology();
        let attackers = AttackerSet::new(&system, topo.attackers.clone()).unwrap();
        let x = Vector::filled(10, 10.0);
        let outcome = strategy::chosen_victim(
            &system,
            &attackers,
            &AttackScenario::paper_defaults(),
            &x,
            &[topo.paper_link(10)],
        )
        .unwrap();
        let s = outcome.success().unwrap();
        let y_attacked = &system.measure(&x).unwrap() + &s.manipulation;
        for detector in [
            ConsistencyDetector::paper_default(),
            ConsistencyDetector::recommended(),
        ] {
            let v = detector.inspect(&system, &y_attacked).unwrap();
            assert!(v.detected, "residual {}", v.residual_l1);
        }
    }

    #[test]
    fn plausibility_catches_negative_estimate_evasion() {
        // Hand-built evasion shape: measurements consistent with an
        // estimate that has a large negative entry. Construct x̂* with a
        // negative coordinate and feed y′ = R x̂* — residual is zero, only
        // the plausibility check can fire.
        let system = fig1::fig1_system().unwrap();
        let mut fake = Vector::filled(10, 10.0);
        fake[0] = 900.0; // framed victim
        fake[8] = -600.0; // the tell-tale negative estimate
        let y = system.routing_csr().mul_vec(&fake).unwrap();
        let pure = ConsistencyDetector::paper_default()
            .inspect(&system, &y)
            .unwrap();
        assert!(!pure.detected, "Eq. 23 alone is blind to this shape");
        assert!(pure.residual_l1 < 1e-6);
        let v = ConsistencyDetector::recommended()
            .inspect(&system, &y)
            .unwrap();
        assert!(v.detected, "plausibility check must fire");
        assert!(v.min_estimate < -500.0);
    }

    #[test]
    fn degraded_inspect_matches_full_inspect_when_everything_survives() {
        let system = fig1::fig1_system().unwrap();
        let detector = ConsistencyDetector::recommended();
        let y = system.measure(&Vector::filled(10, 15.0)).unwrap();
        let rows: Vec<usize> = (0..system.num_paths()).collect();
        let full = detector.inspect(&system, &y).unwrap();
        let deg = detector.inspect_degraded(&system, &rows, &y).unwrap();
        assert!(!deg.degraded);
        assert_eq!(
            deg.verdict.residual_l1.to_bits(),
            full.residual_l1.to_bits()
        );
        assert_eq!(
            deg.verdict.min_estimate.to_bits(),
            full.min_estimate.to_bits()
        );
        assert_eq!(deg.verdict.detected, full.detected);
    }

    #[test]
    fn full_length_rows_out_of_path_order_are_rejected() {
        // Only 0..|P| takes the full-survival shortcut: a swapped or
        // repeated list of |P| rows is validated like any shorter one,
        // never judged as if its readings came in path order.
        let system = fig1::fig1_system().unwrap();
        let detector = ConsistencyDetector::recommended();
        let y = system.measure(&Vector::filled(10, 15.0)).unwrap();
        let n = system.num_paths();
        let mut swapped: Vec<usize> = (0..n).collect();
        swapped.swap(0, 1);
        for rows in [swapped.clone(), vec![0; n], swapped[..n - 1].to_vec()] {
            let y_sub: Vector = rows.iter().map(|&i| y[i]).collect();
            let err = detector
                .inspect_degraded(&system, &rows, &y_sub)
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    CoreError::DimensionMismatch {
                        context:
                            "solve_degraded: surviving rows must be strictly ascending path indices",
                        ..
                    }
                ),
                "{rows:?}: {err:?}"
            );
        }
    }

    #[test]
    fn degraded_inspect_survives_rank_collapse() {
        // Keep so few rows that some links become unidentifiable: the
        // detector must not panic, must flag the degradation, and a clean
        // (fault-free) subset must not raise a false alarm.
        let system = fig1::fig1_system().unwrap();
        let detector = ConsistencyDetector::recommended();
        let x = Vector::filled(10, 15.0);
        let y = system.measure(&x).unwrap();
        let rows: Vec<usize> = (0..4).collect();
        let y_sub: Vector = rows.iter().map(|&i| y[i]).collect();
        let deg = detector.inspect_degraded(&system, &rows, &y_sub).unwrap();
        assert!(deg.degraded);
        assert!(deg.used_ridge);
        assert!(deg.rank < system.num_links());
        assert!(!deg.unidentifiable.is_empty());
        assert!(
            !deg.verdict.detected,
            "clean degraded round must stay silent: residual {} min {}",
            deg.verdict.residual_l1, deg.verdict.min_estimate
        );
    }

    #[test]
    fn degraded_inspect_still_detects_attacks_on_surviving_rows() {
        // Drop one redundant row; the imperfect-cut attack's residual
        // lives across many rows, so detection must survive the loss.
        let system = fig1::fig1_system().unwrap();
        let topo = fig1::fig1_topology();
        let attackers = AttackerSet::new(&system, topo.attackers.clone()).unwrap();
        let x = Vector::filled(10, 10.0);
        let outcome = strategy::chosen_victim(
            &system,
            &attackers,
            &AttackScenario::paper_defaults(),
            &x,
            &[topo.paper_link(10)],
        )
        .unwrap();
        let s = outcome.success().unwrap();
        let y_attacked = &system.measure(&x).unwrap() + &s.manipulation;
        let rows: Vec<usize> = (0..system.num_paths()).filter(|&i| i != 5).collect();
        let y_sub: Vector = rows.iter().map(|&i| y_attacked[i]).collect();
        let deg = ConsistencyDetector::recommended()
            .inspect_degraded(&system, &rows, &y_sub)
            .unwrap();
        assert!(deg.degraded);
        assert!(deg.verdict.detected, "residual {}", deg.verdict.residual_l1);
    }

    #[test]
    fn degraded_verdict_carries_the_solved_estimate() {
        // One solve per round: the verdict's estimate is bit for bit the
        // one solve_degraded (or, with every row surviving, estimate)
        // returns — exact subset, rank collapse and full survival alike.
        let system = fig1::fig1_system().unwrap();
        let detector = ConsistencyDetector::recommended();
        let x: Vector = (0..10).map(|j| 5.0 + j as f64).collect();
        let y = system.measure(&x).unwrap();
        let exact: Vec<usize> = (0..system.num_paths()).filter(|&i| i != 5).collect();
        let collapsed: Vec<usize> = (0..4).collect();
        let bits = |v: &Vector| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        for rows in [exact, collapsed] {
            let y_sub: Vector = rows.iter().map(|&i| y[i]).collect();
            let deg = detector.inspect_degraded(&system, &rows, &y_sub).unwrap();
            let solve = system.solve_degraded(&rows, &y_sub).unwrap();
            assert!(deg.degraded);
            assert_eq!(deg.used_ridge, solve.used_ridge);
            assert_eq!(bits(&deg.estimate), bits(&solve.estimate));
        }
        let all: Vec<usize> = (0..system.num_paths()).collect();
        let full = detector.inspect_degraded(&system, &all, &y).unwrap();
        assert_eq!(bits(&full.estimate), bits(&system.estimate(&y).unwrap()));
    }

    #[test]
    fn non_finite_readings_are_errors_not_verdicts() {
        let system = fig1::fig1_system().unwrap();
        let detector = ConsistencyDetector::recommended();
        let all: Vec<usize> = (0..system.num_paths()).collect();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut y = system.measure(&Vector::filled(10, 15.0)).unwrap();
            y[4] = bad;
            for err in [
                detector.inspect(&system, &y).unwrap_err(),
                detector.inspect_degraded(&system, &all, &y).unwrap_err(),
            ] {
                assert!(
                    matches!(err, CoreError::NonFiniteMeasurement { row: 4 }),
                    "{bad}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn tally_verdicts_are_inspect_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        let system = fig1::fig1_system().unwrap();
        let detector = ConsistencyDetector::recommended();
        let x: Vector = (0..10).map(|i| 5.0 + f64::from(i)).collect();
        let mut y = system.measure(&x).unwrap();
        y[3] += 37.5; // make the base mildly inconsistent
        let tally = ResidualTally::new(&detector, &system, &y).unwrap();
        assert_eq!(tally.base_verdict(), detector.inspect(&system, &y).unwrap());
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        for _ in 0..8 {
            let delta: Vector = (0..system.num_paths())
                .map(|_| rng.gen_range(-250.0..250.0))
                .collect();
            let scored = tally.rescore(&detector, &system, &delta).unwrap();
            let fresh = detector.inspect(&system, &(&y + &delta)).unwrap();
            assert_eq!(scored.residual_l1.to_bits(), fresh.residual_l1.to_bits());
            assert_eq!(scored.min_estimate.to_bits(), fresh.min_estimate.to_bits());
            assert_eq!(scored.detected, fresh.detected);
        }
    }

    #[test]
    fn tally_rejects_wrong_lengths_and_non_finite_rounds() {
        let system = fig1::fig1_system().unwrap();
        let detector = ConsistencyDetector::paper_default();
        let y = system.measure(&Vector::filled(10, 10.0)).unwrap();
        let tally = ResidualTally::new(&detector, &system, &y).unwrap();
        assert!(matches!(
            tally.rescore(&detector, &system, &Vector::zeros(3)),
            Err(CoreError::DimensionMismatch { .. })
        ));
        assert!(ResidualTally::new(&detector, &system, &Vector::zeros(3)).is_err());

        let mut nan_round = y.clone();
        nan_round[2] = f64::NAN;
        assert!(matches!(
            ResidualTally::new(&detector, &system, &nan_round),
            Err(CoreError::NonFiniteMeasurement { row: 2 })
        ));
        let mut delta = Vector::zeros(system.num_paths());
        delta[5] = f64::INFINITY;
        assert!(matches!(
            tally.rescore(&detector, &system, &delta),
            Err(CoreError::NonFiniteMeasurement { row: 5 })
        ));
    }

    #[test]
    fn zero_threshold_flags_any_inconsistency() {
        let system = fig1::fig1_system().unwrap();
        let detector = ConsistencyDetector::new(1e-6).unwrap();
        let mut y = system.measure(&Vector::filled(10, 15.0)).unwrap();
        // Perturb one redundant measurement out of the column space.
        y[0] += 50.0;
        let v = detector.inspect(&system, &y).unwrap();
        assert!(v.detected);
    }
}
