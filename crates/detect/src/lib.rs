//! Detection of scapegoating attacks (Section IV-B of the paper).
//!
//! The operator's only hope of noticing a manipulated tomography run is a
//! *consistency check*: re-project the estimate through the measurement
//! model and compare with what was observed,
//!
//! ```text
//! scapegoating exists      if  R x̂ ≠ y′            (Eq. 23)
//! practically:             if  ‖R x̂ − y′‖₁ > α     (Remark 4)
//! ```
//!
//! Theorem 3 bounds what this can achieve: attacks behind a **perfect
//! cut** satisfy `R x̂ = y′` exactly and are *undetectable*; imperfect-cut
//! attacks leave a nonzero residual and are detectable. [`experiment`]
//! reproduces Fig. 9 (detection ratios per strategy × cut type);
//! [`roc`] sweeps the threshold under measurement noise; [`localize`]
//! extends detection to *who*: rank nodes by whether excluding their
//! paths restores consistency.
//!
//! # Example
//!
//! ```
//! use tomo_core::fig1::fig1_system;
//! use tomo_detect::ConsistencyDetector;
//! use tomo_linalg::Vector;
//!
//! # fn main() -> Result<(), tomo_core::CoreError> {
//! let system = fig1_system()?;
//! let detector = ConsistencyDetector::paper_default();
//! // A clean measurement is perfectly consistent.
//! let y = system.measure(&Vector::filled(10, 10.0))?;
//! let verdict = detector.inspect(&system, &y)?;
//! assert!(!verdict.detected);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod detector;

pub mod experiment;
pub mod localize;
pub mod roc;
pub mod rounds;

pub use detector::{ConsistencyDetector, DegradedVerdict, ResidualTally, Verdict};
