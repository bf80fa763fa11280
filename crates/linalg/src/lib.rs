//! Focused dense linear algebra for network tomography.
//!
//! This crate provides exactly the numerical toolkit the scapegoating
//! reproduction needs, implemented from scratch and tested exhaustively:
//!
//! * [`Matrix`] / [`Vector`] — dense row-major matrices and column vectors,
//! * [`CsrMatrix`] — compressed-sparse-row routing matrices whose kernels
//!   are bit-identical to the dense ones,
//! * [`lu::Lu`] — LU decomposition with partial pivoting (solve, inverse,
//!   determinant),
//! * [`cholesky::Cholesky`] — SPD factorization used for the normal
//!   equations `RᵀR`, with rank-1 update/downdate for path deltas,
//! * [`sparse_chol::SparseCholesky`] — up-looking sparse factorization
//!   of CSR Gram matrices (the Rocketfuel-scale build kernel),
//! * [`incremental`] — the delta engine: [`incremental::IncrementalNormalSolver`]
//!   absorbs path add/drop deltas by rank-1 rotations with a
//!   refactor-after-K drift cadence, plus Sherman–Morrison updates of a
//!   materialized pseudo-inverse,
//! * [`qr::Qr`] — Householder QR and column-pivoted QR (rank-revealing),
//! * [`lstsq`] — least-squares solvers (QR-based, normal equations),
//! * [`rank`] — numerical rank and the exact sparse rank tracker
//!   ([`rank::SparseRank`]) behind every identifiability decision.
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
pub mod incremental;
pub mod lstsq;
pub mod lu;
pub mod norms;
pub mod qr;
pub mod rank;
pub mod sparse_chol;

pub use error::LinalgError;
pub use matrix::{Matrix, MTS_BLOCK_THRESHOLD};
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
