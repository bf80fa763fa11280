//! LU decomposition with partial pivoting.
//!
//! The general square solver: inverses, determinants and the 1-norm
//! condition number, and the reference the Cholesky tests check against.

use crate::{LinalgError, Matrix, Vector, DEFAULT_TOL};
use tomo_obs::LazyHistogram;

static FACTOR_SECONDS: LazyHistogram = LazyHistogram::new("linalg.lu.factor_seconds");

/// An LU factorization `P A = L U` of a square matrix with partial pivoting.
///
/// ```
/// use tomo_linalg::{Matrix, Vector, lu::Lu};
///
/// # fn main() -> Result<(), tomo_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[vec![4.0, 3.0], vec![6.0, 3.0]])?;
/// let lu = Lu::new(&a)?;
/// let x = lu.solve(&Vector::from(vec![10.0, 12.0]))?;
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    /// Packed L (unit lower, below diagonal) and U (upper incl. diagonal).
    lu: Matrix,
    /// Row permutation: `perm[i]` is the original row index now at row `i`.
    perm: Vec<usize>,
    /// Number of row swaps performed (for the determinant sign).
    swaps: usize,
}

impl Lu {
    /// Factorizes a square matrix.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] if `a` is not square.
    /// * [`LinalgError::Singular`] if a pivot is numerically zero.
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { dims: a.shape() });
        }
        let _timer = FACTOR_SECONDS.start_timer();
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut swaps = 0;
        let tol = DEFAULT_TOL * (1.0 + a.max_abs());

        for k in 0..n {
            // Partial pivoting: pick the largest |entry| in column k at/below k.
            let mut pivot_row = k;
            let mut pivot_val = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = i;
                }
            }
            if pivot_val <= tol {
                return Err(LinalgError::Singular { pivot: k });
            }
            if pivot_row != k {
                lu.swap_rows(k, pivot_row);
                perm.swap(k, pivot_row);
                swaps += 1;
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let factor = lu[(i, k)] / pivot;
                lu[(i, k)] = factor;
                if factor == 0.0 {
                    continue;
                }
                for j in (k + 1)..n {
                    let ukj = lu[(k, j)];
                    lu[(i, j)] -= factor * ukj;
                }
            }
        }
        Ok(Lu { lu, perm, swaps })
    }

    /// Dimension of the factorized matrix.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve(&self, b: &Vector) -> Result<Vector, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "lu_solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        // Apply permutation: y = P b.
        let mut x: Vector = self.perm.iter().map(|&p| b[p]).collect();
        // Forward substitution with unit lower triangular L.
        for i in 1..n {
            let mut sum = x[i];
            for j in 0..i {
                sum -= self.lu[(i, j)] * x[j];
            }
            x[i] = sum;
        }
        // Back substitution with U.
        for i in (0..n).rev() {
            let mut sum = x[i];
            for j in (i + 1)..n {
                sum -= self.lu[(i, j)] * x[j];
            }
            x[i] = sum / self.lu[(i, i)];
        }
        Ok(x)
    }

    /// Solves `A X = B` column by column.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.rows() != dim()`.
    pub fn solve_mat(&self, b: &Matrix) -> Result<Matrix, LinalgError> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "lu_solve_mat",
                lhs: (n, n),
                rhs: b.shape(),
            });
        }
        let mut out = Matrix::zeros(n, b.cols());
        for j in 0..b.cols() {
            let col = self.solve(&b.col(j))?;
            for i in 0..n {
                out[(i, j)] = col[i];
            }
        }
        Ok(out)
    }

    /// Computes the inverse `A⁻¹`.
    ///
    /// # Errors
    ///
    /// Propagates solver errors (cannot occur once factorization succeeded,
    /// but the signature stays fallible for uniformity).
    pub fn inverse(&self) -> Result<Matrix, LinalgError> {
        self.solve_mat(&Matrix::identity(self.dim()))
    }

    /// Determinant of the factorized matrix.
    #[must_use]
    pub fn det(&self) -> f64 {
        let mut det = if self.swaps.is_multiple_of(2) {
            1.0
        } else {
            -1.0
        };
        for i in 0..self.dim() {
            det *= self.lu[(i, i)];
        }
        det
    }
}

/// Convenience wrapper: solves the square system `A x = b` in one call.
///
/// # Errors
///
/// See [`Lu::new`] and [`Lu::solve`].
pub fn solve(a: &Matrix, b: &Vector) -> Result<Vector, LinalgError> {
    Lu::new(a)?.solve(b)
}

/// Convenience wrapper: computes `A⁻¹` in one call.
///
/// # Errors
///
/// See [`Lu::new`].
pub fn inverse(a: &Matrix) -> Result<Matrix, LinalgError> {
    Lu::new(a)?.inverse()
}

/// 1-norm condition number `κ₁(A) = ‖A‖₁ · ‖A⁻¹‖₁` of a square matrix.
///
/// Large values (≫ 1/ε) warn that tomography estimates from this routing
/// matrix amplify measurement noise; useful as a placement diagnostic on
/// the normal-equations matrix `RᵀR`.
///
/// # Errors
///
/// * [`LinalgError::NotSquare`] for non-square input,
/// * [`LinalgError::Singular`] when the matrix cannot be inverted
///   (condition number is effectively infinite).
pub fn condition_number_1(a: &Matrix) -> Result<f64, LinalgError> {
    let inv = inverse(a)?;
    Ok(one_norm(a) * one_norm(&inv))
}

/// Matrix 1-norm: maximum absolute column sum.
fn one_norm(a: &Matrix) -> f64 {
    (0..a.cols())
        .map(|j| (0..a.rows()).map(|i| a[(i, j)].abs()).sum::<f64>())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_conditioned() -> Matrix {
        Matrix::from_rows(&[
            vec![4.0, -2.0, 1.0],
            vec![-2.0, 4.0, -2.0],
            vec![1.0, -2.0, 4.0],
        ])
        .unwrap()
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = well_conditioned();
        let x_true = Vector::from(vec![1.0, -2.0, 3.0]);
        let b = a.mul_vec(&x_true).unwrap();
        let x = solve(&a, &b).unwrap();
        assert!(x.approx_eq(&x_true, 1e-10));
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = well_conditioned();
        let inv = inverse(&a).unwrap();
        let prod = a.mul_mat(&inv).unwrap();
        assert!(prod.approx_eq(&Matrix::identity(3), 1e-10));
        let prod2 = inv.mul_mat(&a).unwrap();
        assert!(prod2.approx_eq(&Matrix::identity(3), 1e-10));
    }

    #[test]
    fn det_of_known_matrices() {
        assert!((Lu::new(&Matrix::identity(4)).unwrap().det() - 1.0).abs() < 1e-12);
        let a = Matrix::from_rows(&[vec![2.0, 0.0], vec![0.0, 3.0]]).unwrap();
        assert!((Lu::new(&a).unwrap().det() - 6.0).abs() < 1e-12);
        // Swapped rows flip the sign.
        let b = Matrix::from_rows(&[vec![0.0, 3.0], vec![2.0, 0.0]]).unwrap();
        assert!((Lu::new(&b).unwrap().det() + 6.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_rejected() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        assert!(matches!(Lu::new(&a), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn non_square_is_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(Lu::new(&a), Err(LinalgError::NotSquare { .. })));
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let x = solve(&a, &Vector::from(vec![5.0, 7.0])).unwrap();
        assert!(x.approx_eq(&Vector::from(vec![7.0, 5.0]), 1e-12));
    }

    #[test]
    fn solve_mat_matches_columnwise_solve() {
        let a = well_conditioned();
        let lu = Lu::new(&a).unwrap();
        let b = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]).unwrap();
        let x = lu.solve_mat(&b).unwrap();
        let recon = a.mul_mat(&x).unwrap();
        assert!(recon.approx_eq(&b, 1e-10));
    }

    #[test]
    fn solve_rejects_wrong_length() {
        let lu = Lu::new(&Matrix::identity(3)).unwrap();
        assert!(lu.solve(&Vector::zeros(2)).is_err());
        assert!(lu.solve_mat(&Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn condition_number_of_identity_is_one() {
        let k = condition_number_1(&Matrix::identity(5)).unwrap();
        assert!((k - 1.0).abs() < 1e-12);
    }

    #[test]
    fn condition_number_of_diagonal_matrix() {
        // diag(1, 100): κ₁ = 100.
        let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 100.0]]).unwrap();
        let k = condition_number_1(&a).unwrap();
        assert!((k - 100.0).abs() < 1e-9);
    }

    #[test]
    fn condition_number_detects_near_singularity() {
        // Nearly dependent rows: enormous condition number. (A 1e-9
        // perturbation would fall below the LU singularity tolerance, so
        // use 1e-7 — still conditioned like ~4/ε.)
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0 + 1e-7]]).unwrap();
        let k = condition_number_1(&a).unwrap();
        assert!(k > 1e6, "κ = {k}");
        // Truly singular matrices error instead.
        let s = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]).unwrap();
        assert!(condition_number_1(&s).is_err());
        assert!(condition_number_1(&Matrix::zeros(2, 3)).is_err());
    }
}
