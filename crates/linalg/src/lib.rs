//! Focused linear algebra for network tomography.
//!
//! This crate provides exactly the numerical toolkit the scapegoating
//! reproduction needs, implemented from scratch and tested exhaustively.
//!
//! The kernels production code runs:
//!
//! * [`Matrix`] / [`Vector`] — dense row-major matrices and column vectors,
//! * [`CsrMatrix`] — compressed-sparse-row routing matrices whose kernels
//!   are bit-identical to the dense ones,
//! * [`rank::SparseRank`] — the exact sparse rank tracker behind every
//!   identifiability decision and consistency-check column basis,
//! * [`lstsq::NormalEquationsSolver`] — the one normal-equations path for
//!   Eq. (2), factoring the Gram matrix with the dense
//!   [`cholesky::Cholesky`] below [`lstsq::SPARSE_FACTOR_MIN_DIM`] links
//!   and with the up-looking [`sparse_chol::SparseCholesky`] at or above
//!   it.
//!
//! Kept as references that tests compare against:
//!
//! * [`lu::Lu`] — LU decomposition with partial pivoting (solve, inverse,
//!   determinant),
//! * [`qr::Qr`] — Householder QR and column-pivoted QR (rank-revealing),
//! * [`rank::rank`] — numerical rank by pivoted QR,
//! * [`lstsq::solve`] — least squares by Householder QR.
//!
//! # Example
//!
//! Solve the tomography inversion `x̂ = (RᵀR)⁻¹Rᵀy` for a tiny system:
//!
//! ```
//! use tomo_linalg::{Matrix, Vector, lstsq};
//!
//! # fn main() -> Result<(), tomo_linalg::LinalgError> {
//! // Two paths over two links: path 1 = {l1}, path 2 = {l1, l2}.
//! let r = Matrix::from_rows(&[vec![1.0, 0.0], vec![1.0, 1.0]])?;
//! let y = Vector::from(vec![3.0, 8.0]);
//! let x_hat = lstsq::solve(&r, &y)?;
//! assert!((x_hat[0] - 3.0).abs() < 1e-9);
//! assert!((x_hat[1] - 5.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod matrix;
mod sparse;
mod vector;

pub mod cholesky;
pub mod lstsq;
pub mod lu;
pub mod norms;
pub mod qr;
pub mod rank;
pub mod sparse_chol;

pub use error::LinalgError;
pub use matrix::Matrix;
pub use sparse::{CsrBuilder, CsrMatrix};
pub use vector::Vector;

/// Default absolute tolerance used by rank decisions and singularity checks.
///
/// Routing matrices are small 0/1 matrices, so a fixed absolute tolerance
/// (scaled by matrix magnitude where appropriate) is adequate.
pub const DEFAULT_TOL: f64 = 1e-9;

/// Returns `true` if two floats are equal within `tol`.
///
/// ```
/// assert!(tomo_linalg::approx_eq(1.0, 1.0 + 1e-12, 1e-9));
/// assert!(!tomo_linalg::approx_eq(1.0, 1.1, 1e-9));
/// ```
#[must_use]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol
}
