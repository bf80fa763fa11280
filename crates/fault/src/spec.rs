//! The `--faults` grammar: comma-separated `key=rate` pairs.

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

/// Per-kind fault rates, each a probability in `[0, 1]`.
///
/// Measurement-layer rates apply per *path* (row of `y`); `link_fail` and
/// the solver rates apply per *trial*. Parsed from the CLI grammar
///
/// ```text
/// loss=0.05,corrupt=0.01,stale=0.02,link_fail=0.01,lp_iter=0.005,lp_singular=0.005
/// ```
///
/// Unlisted keys stay 0; the literal `off` (or an empty string) is the
/// all-zero spec. [`fmt::Display`] renders the canonical form, which
/// round-trips through [`FaultSpec::parse`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Per-row probability that a probe is lost (row dropped from `R`/`y`).
    pub loss: f64,
    /// Per-row probability of measurement corruption (NaN, +∞, or an
    /// outlier spike).
    pub corrupt: f64,
    /// Per-row probability of a stale reading (the pre-attack value is
    /// reported instead of the current one).
    pub stale: f64,
    /// Per-trial probability that one random link fails mid-experiment
    /// (its delay jumps by [`crate::LINK_FAILURE_DELAY_MS`] after the
    /// attack was planned).
    pub link_fail: f64,
    /// Per-trial probability of forced simplex iteration exhaustion.
    pub lp_iter: f64,
    /// Per-trial probability of a singular-basis injection.
    pub lp_singular: f64,
    /// Per-frame probability of a wire-stream fault (truncate, garble,
    /// duplicate, or reorder — a uniform sub-draw picks which). Applies
    /// to `tomo-serve` ingest frames; batch-solve targets ignore it.
    pub frame: f64,
}

impl FaultSpec {
    /// Parses the `key=rate,...` grammar. `""` and `"off"` mean all-zero.
    ///
    /// # Errors
    ///
    /// Returns [`FaultSpecError`] on unknown keys, malformed pairs, or
    /// rates outside `[0, 1]`.
    pub fn parse(s: &str) -> Result<Self, FaultSpecError> {
        let s = s.trim();
        let mut spec = FaultSpec::default();
        if s.is_empty() || s.eq_ignore_ascii_case("off") {
            return Ok(spec);
        }
        for pair in s.split(',') {
            let pair = pair.trim();
            let Some((key, value)) = pair.split_once('=') else {
                return Err(FaultSpecError::MalformedPair { pair: pair.into() });
            };
            let (key, value) = (key.trim(), value.trim());
            let rate: f64 = value.parse().map_err(|_| FaultSpecError::BadRate {
                key: key.into(),
                value: value.into(),
            })?;
            if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                return Err(FaultSpecError::RateOutOfRange {
                    key: key.into(),
                    rate,
                });
            }
            match key {
                "loss" => spec.loss = rate,
                "corrupt" => spec.corrupt = rate,
                "stale" => spec.stale = rate,
                "link_fail" => spec.link_fail = rate,
                "lp_iter" => spec.lp_iter = rate,
                "lp_singular" => spec.lp_singular = rate,
                "frame" => spec.frame = rate,
                other => {
                    return Err(FaultSpecError::UnknownKey { key: other.into() });
                }
            }
        }
        Ok(spec)
    }

    /// `true` when every rate is exactly 0 — the fault layer is then a
    /// guaranteed no-op (no fault can ever fire).
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.loss == 0.0
            && self.corrupt == 0.0
            && self.stale == 0.0
            && self.link_fail == 0.0
            && self.lp_iter == 0.0
            && self.lp_singular == 0.0
            && self.frame == 0.0
    }

    /// Every rate multiplied by `factor` and clamped to `[0, 1]` — the
    /// sweep axis of the chaos experiment.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or non-finite.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "fault scale factor must be finite and ≥ 0, got {factor}"
        );
        let s = |r: f64| (r * factor).clamp(0.0, 1.0);
        FaultSpec {
            loss: s(self.loss),
            corrupt: s(self.corrupt),
            stale: s(self.stale),
            link_fail: s(self.link_fail),
            lp_iter: s(self.lp_iter),
            lp_singular: s(self.lp_singular),
            frame: s(self.frame),
        }
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_noop() {
            return write!(f, "off");
        }
        let mut first = true;
        for (key, rate) in [
            ("loss", self.loss),
            ("corrupt", self.corrupt),
            ("stale", self.stale),
            ("link_fail", self.link_fail),
            ("lp_iter", self.lp_iter),
            ("lp_singular", self.lp_singular),
            ("frame", self.frame),
        ] {
            if rate > 0.0 {
                if !first {
                    write!(f, ",")?;
                }
                write!(f, "{key}={rate}")?;
                first = false;
            }
        }
        Ok(())
    }
}

/// Errors from parsing a `--faults` specification.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FaultSpecError {
    /// A pair was not of the form `key=rate`.
    MalformedPair {
        /// The offending fragment.
        pair: String,
    },
    /// A rate failed to parse as a number.
    BadRate {
        /// The fault kind.
        key: String,
        /// The unparsable value.
        value: String,
    },
    /// A rate fell outside `[0, 1]`.
    RateOutOfRange {
        /// The fault kind.
        key: String,
        /// The out-of-range rate.
        rate: f64,
    },
    /// An unrecognized fault kind.
    UnknownKey {
        /// The unknown key.
        key: String,
    },
}

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultSpecError::MalformedPair { pair } => {
                write!(f, "malformed fault pair {pair:?} (expected key=rate)")
            }
            FaultSpecError::BadRate { key, value } => {
                write!(f, "fault rate for {key:?} is not a number: {value:?}")
            }
            FaultSpecError::RateOutOfRange { key, rate } => {
                write!(f, "fault rate for {key:?} must lie in [0, 1], got {rate}")
            }
            FaultSpecError::UnknownKey { key } => write!(
                f,
                "unknown fault kind {key:?} (known: loss, corrupt, stale, link_fail, lp_iter, lp_singular, frame)"
            ),
        }
    }
}

impl Error for FaultSpecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_grammar() {
        let s = FaultSpec::parse(
            "loss=0.05, corrupt=0.01,stale=0.02,link_fail=0.01,lp_iter=0.005,lp_singular=0.003",
        )
        .unwrap();
        assert_eq!(s.loss, 0.05);
        assert_eq!(s.corrupt, 0.01);
        assert_eq!(s.stale, 0.02);
        assert_eq!(s.link_fail, 0.01);
        assert_eq!(s.lp_iter, 0.005);
        assert_eq!(s.lp_singular, 0.003);
        assert!(!s.is_noop());
    }

    #[test]
    fn parses_frame_family() {
        let s = FaultSpec::parse("frame=0.1").unwrap();
        assert_eq!(s.frame, 0.1);
        assert!(!s.is_noop());
        assert_eq!(s.to_string(), "frame=0.1");
        assert_eq!(FaultSpec::parse(&s.to_string()).unwrap(), s);
        assert_eq!(s.scaled(2.0).frame, 0.2);
        assert!(FaultSpec::parse("frame=0").unwrap().is_noop());
    }

    #[test]
    fn off_and_empty_are_noops() {
        assert!(FaultSpec::parse("off").unwrap().is_noop());
        assert!(FaultSpec::parse("OFF").unwrap().is_noop());
        assert!(FaultSpec::parse("").unwrap().is_noop());
        assert!(FaultSpec::parse("loss=0").unwrap().is_noop());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(matches!(
            FaultSpec::parse("loss").unwrap_err(),
            FaultSpecError::MalformedPair { .. }
        ));
        assert!(matches!(
            FaultSpec::parse("loss=abc").unwrap_err(),
            FaultSpecError::BadRate { .. }
        ));
        assert!(matches!(
            FaultSpec::parse("loss=1.5").unwrap_err(),
            FaultSpecError::RateOutOfRange { .. }
        ));
        assert!(matches!(
            FaultSpec::parse("loss=-0.1").unwrap_err(),
            FaultSpecError::RateOutOfRange { .. }
        ));
        assert!(matches!(
            FaultSpec::parse("jitter=0.1").unwrap_err(),
            FaultSpecError::UnknownKey { .. }
        ));
        assert!(FaultSpec::parse("loss=NaN").is_err());
    }

    #[test]
    fn display_round_trips() {
        for text in ["off", "loss=0.05,corrupt=0.01", "lp_iter=0.5"] {
            let spec = FaultSpec::parse(text).unwrap();
            assert_eq!(FaultSpec::parse(&spec.to_string()).unwrap(), spec);
        }
        assert_eq!(FaultSpec::default().to_string(), "off");
    }

    #[test]
    fn scaling_clamps_and_zeroes() {
        let s = FaultSpec::parse("loss=0.4,lp_iter=0.6").unwrap();
        let doubled = s.scaled(2.0);
        assert_eq!(doubled.loss, 0.8);
        assert_eq!(doubled.lp_iter, 1.0);
        assert!(s.scaled(0.0).is_noop());
        let same = s.scaled(1.0);
        assert_eq!(same, s);
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn negative_scale_panics() {
        let _ = FaultSpec::default().scaled(-1.0);
    }

    #[test]
    fn serde_round_trip() {
        let s = FaultSpec::parse("loss=0.1,stale=0.25").unwrap();
        let json = serde_json::to_string(&s).unwrap();
        let back: FaultSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
