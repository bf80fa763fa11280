//! The network-tomography engine: monitors, measurement paths, routing
//! matrices, estimation, and link-state classification.
//!
//! This crate implements Section II of the scapegoating paper:
//!
//! * the linear measurement model `y = R x` (Eq. 1) with the routing
//!   matrix `R` built from monitor-to-monitor measurement paths,
//! * the least-squares estimator `x̂ = (RᵀR)⁻¹Rᵀy` (Eq. 2),
//! * the three-state link classifier of Definition 1
//!   (normal / uncertain / abnormal with thresholds `b_l`, `b_u`),
//! * identifiability-driven monitor placement and measurement-path
//!   selection (`R` full column rank), and
//! * the delay/noise simulation models of Section V-A.
//!
//! # Example
//!
//! Build the paper's Fig. 1 measurement system and run clean tomography:
//!
//! ```
//! use tomo_core::fig1::fig1_system;
//! use tomo_core::params;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), tomo_core::CoreError> {
//! let system = fig1_system()?;
//! assert_eq!(system.num_paths(), 23);   // the paper's path count
//! assert_eq!(system.num_links(), 10);
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let x = params::default_delay_model().sample(system.num_links(), &mut rng);
//! let y = system.measure(&x)?;
//! let x_hat = system.estimate(&y)?;
//! assert!(x_hat.approx_eq(&x, 1e-6));   // noise-free tomography is exact
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod state;
mod system;

pub mod delay;
pub mod fig1;
pub mod identifiability;
pub mod metrics;
pub mod params;
pub mod placement;
pub mod selection;

pub use error::CoreError;
pub use state::{LinkState, StateThresholds};
pub use system::{build_routing_csr, DegradedSolve, TomographySystem, DEFAULT_RIDGE_LAMBDA};
