//! Attack scenario parameters shared by all strategies.

use serde::{Deserialize, Serialize};
use tomo_core::{params, StateThresholds};

/// Parameters of a scapegoating attempt: the operator's classification
/// thresholds (which the attacker is assumed to know or estimate), the
/// per-path manipulation cap, and the strictness margin used to turn the
/// paper's strict inequalities (`x̂ < b_l`, `x̂ > b_u`) into solvable
/// LP constraints.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AttackScenario {
    /// The operator's link-state thresholds `(b_l, b_u)`.
    pub thresholds: StateThresholds,
    /// Per-path manipulation cap in metric units (the paper: 2000 ms).
    pub path_cap: f64,
    /// Margin by which state constraints clear their thresholds. Must be
    /// positive; also absorbs numerical error in the LP solution.
    pub margin: f64,
    /// When set, the attacker additionally enforces measurement
    /// consistency `R x̂(m) = y + m` (plus, by default, physical
    /// plausibility `x̂(m) ⪰ 0`), making the attack invisible to the
    /// Eq. (23) consistency detector. Per Theorem 3 this is achievable
    /// exactly when the attackers perfectly cut the victims; with an
    /// imperfect cut the stealthy LP is (generically) infeasible. With
    /// plausibility on, the theorem's argument is a bound: an
    /// attacker-free path through a victim keeps its clean estimate sum,
    /// so it caps the victim's estimate, and a goal above that cap is
    /// decided without a solve (see
    /// [`ManipulationProblem::solve`](crate::manipulation::ManipulationProblem::solve)).
    pub evade_detection: bool,
    /// Only meaningful with [`Self::evade_detection`]: when `false`, the
    /// evader drops the plausibility constraint `x̂(m) ⪰ 0` and is willing
    /// to leave *negative* link estimates behind. This is the exploit for
    /// the gap in Theorem 3's detectable branch (see DESIGN.md): at AS
    /// scale it can succeed even on imperfectly-cut victims, evading the
    /// paper's pure consistency check — only a plausibility-checking
    /// detector catches it.
    pub plausible_evasion: bool,
}

impl AttackScenario {
    /// The paper's Section V-A setup: `b_l = 100 ms`, `b_u = 800 ms`,
    /// cap `2000 ms`, with a 1 ms strictness margin, no detection
    /// evasion.
    ///
    /// ```
    /// let s = tomo_attack::scenario::AttackScenario::paper_defaults();
    /// assert_eq!(s.path_cap, 2000.0);
    /// assert_eq!(s.thresholds.lower(), 100.0);
    /// assert!(!s.evade_detection);
    /// ```
    #[must_use]
    pub fn paper_defaults() -> Self {
        AttackScenario {
            thresholds: params::default_thresholds(),
            path_cap: params::PATH_CAP_MS,
            margin: 1.0,
            evade_detection: false,
            plausible_evasion: true,
        }
    }

    /// The paper defaults with detection evasion switched on.
    #[must_use]
    pub fn paper_defaults_stealthy() -> Self {
        AttackScenario {
            evade_detection: true,
            ..AttackScenario::paper_defaults()
        }
    }

    /// Creates a scenario, validating `path_cap > 0` and `margin > 0`.
    #[must_use]
    pub fn new(thresholds: StateThresholds, path_cap: f64, margin: f64) -> Option<Self> {
        if path_cap.is_finite() && path_cap > 0.0 && margin.is_finite() && margin > 0.0 {
            Some(AttackScenario {
                thresholds,
                path_cap,
                margin,
                evade_detection: false,
                plausible_evasion: true,
            })
        } else {
            None
        }
    }

    /// Returns a copy with [`Self::evade_detection`] set.
    #[must_use]
    pub fn with_evasion(mut self, evade: bool) -> Self {
        self.evade_detection = evade;
        self
    }

    /// The gap-exploiting evader: consistency without plausibility (see
    /// [`Self::plausible_evasion`]).
    #[must_use]
    pub fn paper_defaults_implausible_evader() -> Self {
        AttackScenario {
            evade_detection: true,
            plausible_evasion: false,
            ..AttackScenario::paper_defaults()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let s = AttackScenario::paper_defaults();
        assert_eq!(s.thresholds.lower(), 100.0);
        assert_eq!(s.thresholds.upper(), 800.0);
        assert_eq!(s.path_cap, 2000.0);
        assert!(s.margin > 0.0);
    }

    #[test]
    fn validation() {
        let t = StateThresholds::new(1.0, 2.0).unwrap();
        assert!(AttackScenario::new(t, 10.0, 0.1).is_some());
        assert!(AttackScenario::new(t, 0.0, 0.1).is_none());
        assert!(AttackScenario::new(t, 10.0, 0.0).is_none());
        assert!(AttackScenario::new(t, f64::NAN, 0.1).is_none());
    }
}
