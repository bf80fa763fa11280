//! The paper's experimental parameters (Section V-A), collected in one
//! place so every crate and bench agrees on them.

use crate::delay::DelayModel;
use crate::StateThresholds;

/// Lower state threshold `b_l`: links below 100 ms are *normal*.
pub const B_L_MS: f64 = 100.0;

/// Upper state threshold `b_u`: links above 800 ms are *abnormal*.
pub const B_U_MS: f64 = 800.0;

/// Per-path manipulation cap: attackers "should not delay the delivery of
/// a packet on a measurement path for more than 2000 ms".
pub const PATH_CAP_MS: f64 = 2000.0;

/// Detection threshold `α = 200 ms` for the consistency check
/// `‖R x̂ − y′‖₁ > α` (Section V-D).
pub const ALPHA_MS: f64 = 200.0;

/// Routine per-link delay lower bound (1 ms).
pub const DELAY_MIN_MS: f64 = 1.0;

/// Routine per-link delay upper bound (20 ms).
pub const DELAY_MAX_MS: f64 = 20.0;

/// Minimum number of uncertain victim links for obfuscation to count as
/// successful (Section V-C2).
pub const OBFUSCATION_MIN_VICTIMS: usize = 5;

/// The paper's link-state thresholds `(100 ms, 800 ms)`.
///
/// ```
/// let t = tomo_core::params::default_thresholds();
/// assert_eq!(t.lower(), 100.0);
/// assert_eq!(t.upper(), 800.0);
/// ```
#[must_use]
pub fn default_thresholds() -> StateThresholds {
    StateThresholds::new(B_L_MS, B_U_MS).expect("constants are ordered")
}

/// The paper's routine traffic model: per-link delay uniform in
/// `[1 ms, 20 ms]`.
#[must_use]
pub fn default_delay_model() -> DelayModel {
    DelayModel::uniform(DELAY_MIN_MS, DELAY_MAX_MS).expect("constants are ordered")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)] // consistency checks ARE the test
    fn constants_are_consistent() {
        assert!(B_L_MS < B_U_MS);
        assert!(DELAY_MIN_MS < DELAY_MAX_MS);
        assert!(DELAY_MAX_MS < B_L_MS, "routine delays must look normal");
        assert!(PATH_CAP_MS > B_U_MS, "cap must allow abnormal estimates");
        assert!(ALPHA_MS > 0.0);
        assert!(OBFUSCATION_MIN_VICTIMS >= 1);
    }

    #[test]
    fn factories_match_constants() {
        let t = default_thresholds();
        assert_eq!((t.lower(), t.upper()), (B_L_MS, B_U_MS));
        let d = default_delay_model();
        assert_eq!((d.min(), d.max()), (DELAY_MIN_MS, DELAY_MAX_MS));
    }
}
