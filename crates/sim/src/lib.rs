//! Experiment harness reproducing every figure of the paper's evaluation
//! (Section V).
//!
//! Each `figN` module runs one experiment with seeded randomness and
//! returns a structured, serializable result plus a human-readable
//! rendering; the `tomo-sim` binary drives them from the command line and
//! `tomo-bench` wraps them in Criterion benchmarks.
//!
//! | Module | Paper figure | Content |
//! |--------|--------------|---------|
//! | [`fig2`] | Fig. 2 | strategy portraits (illustrative) |
//! | [`fig4`] | Fig. 4 | chosen-victim on Fig. 1's link 10 |
//! | [`fig5`] | Fig. 5 | maximum-damage on Fig. 1 |
//! | [`fig6`] | Fig. 6 | obfuscation on Fig. 1 |
//! | [`fig7`] | Fig. 7 | chosen-victim success prob. vs presence ratio |
//! | [`fig8`] | Fig. 8 | single-attacker max-damage & obfuscation prob. |
//! | [`fig9`] | Fig. 9 | detection ratios per strategy × cut |
//! | [`chaos`] | — | detection degradation under injected faults |
//! | [`serve_chaos`] | — | live `tomo-serve` daemon chaos: wire faults + kill/restart |
//! | [`scale`] | — | Rocketfuel-scale kernel sweep (1k–50k links) |
//!
//! Wireline experiments run on the synthetic AS1221-scale ISP topology,
//! wireless ones on the paper's 100-node λ=5 random geometric graph (see
//! [`topologies`] and DESIGN.md's substitution table).
//!
//! # Example
//!
//! ```no_run
//! use tomo_sim::fig4;
//!
//! let result = fig4::run(42).unwrap();
//! println!("{}", fig4::render(&result));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod chaos;
pub mod defense;
pub mod fig2;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
mod fleet;
pub mod gap;
pub mod noise;
pub mod report;
pub mod scale;
pub mod serve_chaos;
pub mod serve_load;
pub mod topologies;

use std::error::Error;
use std::fmt;

/// Errors from experiment runs: any failure in the underlying stack.
#[derive(Debug)]
pub struct SimError(pub String);

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "experiment failed: {}", self.0)
    }
}

impl Error for SimError {}

impl From<tomo_core::CoreError> for SimError {
    fn from(e: tomo_core::CoreError) -> Self {
        SimError(e.to_string())
    }
}

impl From<tomo_attack::AttackError> for SimError {
    fn from(e: tomo_attack::AttackError) -> Self {
        SimError(e.to_string())
    }
}

impl From<tomo_graph::GraphError> for SimError {
    fn from(e: tomo_graph::GraphError) -> Self {
        SimError(e.to_string())
    }
}

impl From<tomo_fault::FaultSpecError> for SimError {
    fn from(e: tomo_fault::FaultSpecError) -> Self {
        SimError(format!("bad fault spec: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_error_display_and_conversions() {
        let e = SimError("boom".into());
        assert!(e.to_string().contains("boom"));
        let c: SimError = tomo_core::CoreError::NoPaths.into();
        assert!(c.to_string().contains("path"));
        let a: SimError = tomo_attack::AttackError::NoAttackers.into();
        assert!(a.to_string().contains("empty"));
        let g: SimError = tomo_graph::GraphError::GenerationFailed { reason: "x".into() }.into();
        assert!(g.to_string().contains("x"));
        let f: SimError = tomo_fault::FaultSpec::parse("loss=2").unwrap_err().into();
        assert!(f.to_string().contains("bad fault spec"));
    }
}
