//! Least-squares solvers for the tomography inversion (Eq. (2) of the
//! paper): `x̂ = (RᵀR)⁻¹ Rᵀ y`.
//!
//! Two routes are provided and cross-checked in tests:
//!
//! * [`solve`] — Householder QR (numerically robust, one-shot),
//! * [`NormalEquationsSolver`] — Cholesky on `RᵀR` (the paper's literal
//!   formula), factorized once and reused for every right-hand side.

use crate::cholesky::Cholesky;
use crate::qr::Qr;
use crate::sparse_chol::SparseCholesky;
use crate::{CsrMatrix, LinalgError, Matrix, Vector};
use tomo_obs::LazyHistogram;

static SOLVE_SECONDS: LazyHistogram = LazyHistogram::new("linalg.lstsq.solve_seconds");

/// Gram dimension at/above which [`NormalEquationsSolver::from_sparse`]
/// factorizes with the sparse kernel instead of the dense one. Every
/// committed-artifact workload (≈150-link topologies) sits far below
/// this, so the historical dense code path — and its byte-exact
/// artifacts — is untouched; the Rocketfuel-scale sweep sits far above
/// it, where the dense kernel's 256s/800MB cost was the measured wall.
pub const SPARSE_FACTOR_MIN_DIM: usize = 512;

/// The cached Gram factorization: dense below [`SPARSE_FACTOR_MIN_DIM`],
/// sparse at or above it.
#[derive(Debug, Clone)]
enum GramFactor {
    Dense(Cholesky),
    Sparse(SparseCholesky),
}

/// Solves `min ‖A x − b‖₂` via Householder QR.
///
/// # Errors
///
/// * [`LinalgError::DimensionMismatch`] if `b.len() != A.rows()`.
/// * [`LinalgError::RankDeficient`] if `A` lacks full column rank.
///
/// ```
/// use tomo_linalg::{lstsq, Matrix, Vector};
///
/// # fn main() -> Result<(), tomo_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]])?;
/// let b = Vector::from(vec![1.0, 2.0, 3.0]);
/// let x = lstsq::solve(&a, &b)?;
/// assert!((x[0] - 1.0).abs() < 1e-9);
/// assert!((x[1] - 2.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn solve(a: &Matrix, b: &Vector) -> Result<Vector, LinalgError> {
    SOLVE_SECONDS.time(|| Qr::new(a).solve_lstsq(b))
}

/// A reusable least-squares solver that factorizes `A` once and then solves
/// for many right-hand sides — the common pattern in Monte-Carlo attack
/// experiments where the routing matrix `R` is fixed per instance. Column
/// `i` of the estimator matrix `A⁺ = (AᵀA)⁻¹Aᵀ` is the solve of the unit
/// vector `eᵢ`.
#[derive(Debug, Clone)]
pub struct NormalEquationsSolver {
    a: CsrMatrix,
    factor: GramFactor,
}

impl NormalEquationsSolver {
    /// Factorizes the Gram matrix of `a`.
    ///
    /// The matrix is stored in CSR form and the Gram matrix is built by
    /// the sparse kernel ([`CsrMatrix::gram`]), bit-identical to the
    /// dense [`Matrix::mul_transpose_self`] accumulation.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotPositiveDefinite`] if `a` lacks full
    /// column rank.
    pub fn new(a: Matrix) -> Result<Self, LinalgError> {
        Self::from_sparse(CsrMatrix::from_dense(&a))
    }

    /// Factorizes the Gram matrix of an already-sparse `a` without a
    /// dense detour.
    ///
    /// Below [`SPARSE_FACTOR_MIN_DIM`] columns this is the historical
    /// dense route (`Cholesky::new` over the dense Gram); at or above it
    /// the Gram stays in CSR form end to end and an up-looking
    /// [`SparseCholesky`] factorizes only the nonzero pattern — the fix
    /// for the 256s, 800 MB dense build at 10k links.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotPositiveDefinite`] if `a` lacks full
    /// column rank.
    pub fn from_sparse(a: CsrMatrix) -> Result<Self, LinalgError> {
        let factor = if a.cols() >= SPARSE_FACTOR_MIN_DIM {
            GramFactor::Sparse(SparseCholesky::new(&a.gram_csr())?)
        } else {
            GramFactor::Dense(Cholesky::new(&a.gram())?)
        };
        Ok(NormalEquationsSolver { a, factor })
    }

    /// The matrix being inverted (design/routing matrix), in CSR form.
    #[must_use]
    pub fn matrix(&self) -> &CsrMatrix {
        &self.a
    }

    /// Solves `min ‖A x − b‖₂` for one right-hand side.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != A.rows()`.
    pub fn solve(&self, b: &Vector) -> Result<Vector, LinalgError> {
        let atb = self.a.mul_transpose_vec(b)?;
        match &self.factor {
            GramFactor::Dense(chol) => chol.solve(&atb),
            GramFactor::Sparse(chol) => chol.solve(&atb),
        }
    }
}

/// The component of `b` orthogonal to the column space of `a` — the
/// least-squares residual vector, computed without requiring `a` to have
/// full column rank (modified Gram-Schmidt over the columns, dependent
/// columns skipped).
///
/// A zero result means `b` is *consistent* with the linear model `a·x`;
/// this is the primitive behind consistency checking on rank-deficient
/// measurement subsets (e.g. attacker localization).
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] if `b.len() != a.rows()`.
///
/// ```
/// use tomo_linalg::{lstsq, Matrix, Vector, norms};
///
/// # fn main() -> Result<(), tomo_linalg::LinalgError> {
/// // Rank-1 matrix; b inside the column space leaves no residual.
/// let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]])?;
/// let consistent = Vector::from(vec![3.0, 6.0]);
/// let r = lstsq::residual_outside_column_space(&a, &consistent)?;
/// assert!(norms::l2(&r) < 1e-9);
/// let inconsistent = Vector::from(vec![3.0, 0.0]);
/// let r = lstsq::residual_outside_column_space(&a, &inconsistent)?;
/// assert!(norms::l2(&r) > 1.0);
/// # Ok(())
/// # }
/// ```
pub fn residual_outside_column_space(a: &Matrix, b: &Vector) -> Result<Vector, LinalgError> {
    if b.len() != a.rows() {
        return Err(LinalgError::DimensionMismatch {
            op: "residual_outside_column_space",
            lhs: a.shape(),
            rhs: (b.len(), 1),
        });
    }
    let mut basis: Vec<Vector> = Vec::new();
    let tol = crate::DEFAULT_TOL * (1.0 + a.max_abs());
    for j in 0..a.cols() {
        let mut q = a.col(j);
        // Two MGS passes for robustness.
        for _ in 0..2 {
            for e in &basis {
                let c = q.dot(e).expect("same length");
                if c != 0.0 {
                    q = q.axpy(-c, e).expect("same length");
                }
            }
        }
        let norm = crate::norms::l2(&q);
        if norm > tol {
            basis.push(q.scaled(1.0 / norm));
        }
    }
    let mut r = b.clone();
    for _ in 0..2 {
        for e in &basis {
            let c = r.dot(e).expect("same length");
            if c != 0.0 {
                r = r.axpy(-c, e).expect("same length");
            }
        }
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn routing_like(seed: u64, rows: usize, cols: usize) -> Option<Matrix> {
        // Random 0/1 matrix; retry densities until full column rank.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..20 {
            let m = Matrix::from_fn(rows, cols, |_, _| if rng.gen_bool(0.4) { 1.0 } else { 0.0 });
            if crate::rank::rank(&m) == cols {
                return Some(m);
            }
        }
        None
    }

    #[test]
    fn qr_and_normal_equations_agree() {
        let a = routing_like(7, 12, 6).expect("full-rank instance");
        let b: Vector = (0..12).map(|i| (i as f64) * 1.7 - 3.0).collect();
        let x_qr = solve(&a, &b).unwrap();
        let x_ne = NormalEquationsSolver::new(a).unwrap().solve(&b).unwrap();
        assert!(x_qr.approx_eq(&x_ne, 1e-8));
    }

    #[test]
    fn exact_system_recovered() {
        let a = routing_like(11, 10, 5).expect("full-rank instance");
        let x_true = Vector::from(vec![5.0, 1.0, 9.0, 2.0, 7.0]);
        let b = a.mul_vec(&x_true).unwrap();
        let x = solve(&a, &b).unwrap();
        assert!(x.approx_eq(&x_true, 1e-9));
    }

    #[test]
    fn reusable_solver_matches_one_shot() {
        let a = routing_like(3, 9, 4).expect("full-rank instance");
        let solver = NormalEquationsSolver::new(a.clone()).unwrap();
        for k in 0..5 {
            let b: Vector = (0..9).map(|i| ((i * k) as f64).sin() * 10.0).collect();
            let x1 = solver.solve(&b).unwrap();
            let x2 = solve(&a, &b).unwrap();
            assert!(x1.approx_eq(&x2, 1e-8), "rhs {k}");
        }
    }

    #[test]
    fn unit_solves_form_a_left_inverse() {
        // Column i of (AᵀA)⁻¹Aᵀ is solve(eᵢ); the columns times A give I.
        let a = routing_like(5, 11, 6).expect("full-rank instance");
        let solver = NormalEquationsSolver::new(a.clone()).unwrap();
        let mut pinv = Matrix::zeros(6, 11);
        for i in 0..11 {
            let mut e = Vector::zeros(11);
            e[i] = 1.0;
            let col = solver.solve(&e).unwrap();
            for j in 0..6 {
                pinv[(j, i)] = col[j];
            }
        }
        assert!(pinv
            .mul_mat(&a)
            .unwrap()
            .approx_eq(&Matrix::identity(6), 1e-9));
    }

    #[test]
    fn rank_deficient_rejected() {
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0], vec![2.0, 2.0]]).unwrap();
        assert!(solve(&a, &Vector::zeros(3)).is_err());
        assert!(NormalEquationsSolver::new(a).is_err());
    }

    #[test]
    fn residual_outside_column_space_matches_lstsq_residual() {
        let a = routing_like(21, 12, 5).expect("full-rank instance");
        let b: Vector = (0..12).map(|i| (i as f64) * 1.3 - 4.0).collect();
        let x = solve(&a, &b).unwrap();
        let classic = &b - &a.mul_vec(&x).unwrap();
        let via_projection = residual_outside_column_space(&a, &b).unwrap();
        assert!(classic.approx_eq(&via_projection, 1e-8));
    }

    #[test]
    fn residual_outside_column_space_handles_rank_deficiency() {
        // Two identical columns: rank 1, but the routine must not error.
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0], vec![0.0, 0.0]]).unwrap();
        let consistent = Vector::from(vec![2.0, 2.0, 0.0]);
        let r = residual_outside_column_space(&a, &consistent).unwrap();
        assert!(crate::norms::l2(&r) < 1e-9);
        let inconsistent = Vector::from(vec![2.0, 0.0, 1.0]);
        let r = residual_outside_column_space(&a, &inconsistent).unwrap();
        assert!(crate::norms::l2(&r) > 0.5);
        // Dimension check.
        assert!(residual_outside_column_space(&a, &Vector::zeros(2)).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Least-squares residuals are orthogonal to the column space, and
        /// the two solver routes agree, on random full-rank 0/1 systems.
        #[test]
        fn residual_orthogonality(seed in 0u64..500) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xdead_beef);
            if let Some(a) = routing_like(seed, 14, 6) {
                let b: Vector = (0..14).map(|_| rng.gen_range(-50.0..50.0)).collect();
                let x = solve(&a, &b).unwrap();
                let r = &b - &a.mul_vec(&x).unwrap();
                let atr = a.mul_transpose_vec(&r).unwrap();
                prop_assert!(atr.approx_eq(&Vector::zeros(6), 1e-7));

                let x_ne = NormalEquationsSolver::new(a).unwrap().solve(&b).unwrap();
                prop_assert!(x.approx_eq(&x_ne, 1e-6));
            }
        }
    }
}
