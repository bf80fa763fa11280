//! Running residual tallies — re-score the Eq. (23) detector per delta.
//!
//! [`ConsistencyDetector::inspect`] recomputes the estimate and the full
//! re-projection for every measurement vector it sees. Campaigns and
//! detection experiments, however, inspect many vectors that differ from
//! a common *base* only by a delta: per-round noise around a persistent
//! manipulation, or an attack manipulation added to a clean round. The
//! normal-equations estimator is linear in `y`, so both pieces of the
//! verdict update by rank-structured corrections:
//!
//! ```text
//! x̂(y + δ) = x̂(y) + A⁺δ
//! r(y + δ) = R x̂(y + δ) − (y + δ) = r(y) + (R A⁺δ − δ)
//! ```
//!
//! [`ResidualTally`] caches the base estimate and base residual vector
//! once and answers each re-score with one cached-factor solve and one
//! sparse re-projection — no per-delta Gram work, and the base verdict
//! itself is bit-identical to `inspect` on the base vector.
//!
//! The corrected verdicts agree with a fresh `inspect` to floating-point
//! working precision (the solve path associates differently), which is
//! far inside the detector's decision margins: stealthy attacks sit at
//! solver tolerance and plain attacks overshoot `α` by orders of
//! magnitude.

use tomo_core::{CoreError, TomographySystem};
use tomo_linalg::{norms, Vector};
use tomo_obs::LazyCounter;

use crate::{ConsistencyDetector, Verdict};

static TALLY_RESCORES: LazyCounter = LazyCounter::new("detect.tally.rescores");

/// Cached base state for incremental verdict re-scoring.
#[derive(Debug, Clone)]
pub struct ResidualTally {
    base_estimate: Vector,
    /// `R x̂ − y` on the base vector (kept as a vector, not just its ℓ₁
    /// norm, so deltas can correct it component-wise).
    base_residual: Vector,
    base_verdict: Verdict,
}

impl ResidualTally {
    /// Builds the tally for a base measurement vector: estimates,
    /// re-projects, and stores the residual *vector* alongside the
    /// verdict. The stored verdict is bit-identical to
    /// [`ConsistencyDetector::inspect`] on `y_base`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] if `y_base` has the
    /// wrong length.
    pub fn new(
        detector: &ConsistencyDetector,
        system: &TomographySystem,
        y_base: &Vector,
    ) -> Result<Self, CoreError> {
        let estimate = system.estimate(y_base)?;
        let reprojected = system.routing_csr().mul_vec(&estimate)?;
        let residual = &reprojected - y_base;
        let verdict = detector.verdict(norms::l1(&residual), estimate.min().unwrap_or(0.0));
        Ok(ResidualTally {
            base_estimate: estimate,
            base_residual: residual,
            base_verdict: verdict,
        })
    }

    /// The verdict on the base vector itself.
    #[must_use]
    pub fn base_verdict(&self) -> Verdict {
        self.base_verdict
    }

    /// The base estimate `x̂(y_base)`.
    #[must_use]
    pub fn base_estimate(&self) -> &Vector {
        &self.base_estimate
    }

    /// Re-scores the detector on `y_base + delta` from the cached base
    /// state: one cached-factor solve for `A⁺δ`, one sparse
    /// re-projection, and two vector corrections.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] if `delta` has the wrong
    /// length.
    pub fn rescore(
        &self,
        detector: &ConsistencyDetector,
        system: &TomographySystem,
        delta: &Vector,
    ) -> Result<Verdict, CoreError> {
        TALLY_RESCORES.inc();
        // Linearity of the estimator: x̂(y + δ) − x̂(y) = A⁺δ.
        let dx = system.estimate(delta)?;
        let r_dx = system.routing_csr().mul_vec(&dx)?;
        let residual = &(&self.base_residual + &r_dx) - delta;
        let estimate = &self.base_estimate + &dx;
        Ok(detector.verdict(norms::l1(&residual), estimate.min().unwrap_or(0.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use tomo_core::fig1;

    #[test]
    fn base_verdict_matches_inspect_bitwise() {
        let system = fig1::fig1_system().unwrap();
        let detector = ConsistencyDetector::recommended();
        let x = Vector::from((0..10).map(|i| 5.0 + i as f64).collect::<Vec<_>>());
        let mut y = system.measure(&x).unwrap();
        y[3] += 37.5; // make the base mildly inconsistent
        let tally = ResidualTally::new(&detector, &system, &y).unwrap();
        let fresh = detector.inspect(&system, &y).unwrap();
        assert_eq!(tally.base_verdict().residual_l1, fresh.residual_l1);
        assert_eq!(tally.base_verdict().min_estimate, fresh.min_estimate);
        assert_eq!(tally.base_verdict().detected, fresh.detected);
    }

    #[test]
    fn rescore_matches_fresh_inspect() {
        let system = fig1::fig1_system().unwrap();
        let detector = ConsistencyDetector::recommended();
        let x = Vector::filled(10, 12.0);
        let y = system.measure(&x).unwrap();
        let tally = ResidualTally::new(&detector, &system, &y).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..8 {
            let delta = Vector::from(
                (0..system.num_paths())
                    .map(|_| rng.gen_range(-250.0..250.0))
                    .collect::<Vec<_>>(),
            );
            let scored = tally.rescore(&detector, &system, &delta).unwrap();
            let fresh = detector.inspect(&system, &(&y + &delta)).unwrap();
            assert!(
                (scored.residual_l1 - fresh.residual_l1).abs() < 1e-8,
                "residual drift: {} vs {}",
                scored.residual_l1,
                fresh.residual_l1
            );
            assert!((scored.min_estimate - fresh.min_estimate).abs() < 1e-8);
            assert_eq!(scored.detected, fresh.detected);
        }
    }

    #[test]
    fn zero_delta_recovers_base_residual() {
        let system = fig1::fig1_system().unwrap();
        let detector = ConsistencyDetector::paper_default();
        let y = system.measure(&Vector::filled(10, 10.0)).unwrap();
        let tally = ResidualTally::new(&detector, &system, &y).unwrap();
        let zero = Vector::zeros(system.num_paths());
        let scored = tally.rescore(&detector, &system, &zero).unwrap();
        assert!(scored.residual_l1 < 1e-9);
        assert!(!scored.detected);
    }

    #[test]
    fn rejects_wrong_length() {
        let system = fig1::fig1_system().unwrap();
        let detector = ConsistencyDetector::paper_default();
        let y = system.measure(&Vector::filled(10, 10.0)).unwrap();
        let tally = ResidualTally::new(&detector, &system, &y).unwrap();
        assert!(tally
            .rescore(&detector, &system, &Vector::zeros(3))
            .is_err());
        assert!(ResidualTally::new(&detector, &system, &Vector::zeros(3)).is_err());
    }
}
