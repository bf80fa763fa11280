//! Least-squares solvers for the tomography inversion (Eq. (2) of the
//! paper): `x̂ = (RᵀR)⁻¹ Rᵀ y`.
//!
//! Two routes are provided and cross-checked in tests:
//!
//! * [`solve`] — Householder QR (numerically robust, the default),
//! * [`solve_normal_equations`] — Cholesky on `RᵀR` (the paper's literal
//!   formula; faster when the same `R` is reused, see
//!   [`NormalEquationsSolver`]).

use crate::cholesky::Cholesky;
use crate::qr::Qr;
use crate::sparse_chol::SparseCholesky;
use crate::{CsrMatrix, LinalgError, Matrix, Vector};
use tomo_obs::{LazyCounter, LazyHistogram};

static SOLVE_SECONDS: LazyHistogram = LazyHistogram::new("linalg.lstsq.solve_seconds");
static RIDGE_SOLVES: LazyCounter = LazyCounter::new("linalg.lstsq.ridge_solves");

/// Gram dimension at/above which [`NormalEquationsSolver::from_sparse`]
/// factorizes with the sparse kernel instead of the dense one. Every
/// committed-artifact workload (≈150-link topologies) sits far below
/// this, so the historical dense code path — and its byte-exact
/// artifacts — is untouched; the Rocketfuel-scale sweep sits far above
/// it, where the dense kernel's 256s/800MB cost was the measured wall.
pub const SPARSE_FACTOR_MIN_DIM: usize = 512;

/// The cached Gram factorization: dense (updatable by rank-1
/// corrections) below [`SPARSE_FACTOR_MIN_DIM`], sparse above it.
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

/// Solves `min ‖A x − b‖₂` via the normal equations `(AᵀA) x = Aᵀ b`,
/// exactly the paper's Eq. (2).
///
/// # Errors
///
/// * [`LinalgError::DimensionMismatch`] if `b.len() != A.rows()`.
/// * [`LinalgError::NotPositiveDefinite`] if `A` lacks full column rank
///   (the Gram matrix is then singular).
pub fn solve_normal_equations(a: &Matrix, b: &Vector) -> Result<Vector, LinalgError> {
    let _timer = SOLVE_SECONDS.start_timer();
    let atb = a.mul_transpose_vec(b)?;
    Cholesky::new(&a.mul_transpose_self())?.solve(&atb)
}

/// A reusable least-squares solver that factorizes `A` once and then solves
/// for many right-hand sides — the common pattern in Monte-Carlo attack
/// experiments where the routing matrix `R` is fixed per instance.
///
/// Also exposes the *estimator matrix* `A⁺ = (AᵀA)⁻¹Aᵀ`, which the attack
/// LPs need explicitly (the estimate responds linearly to manipulations:
/// `x̂(m) = x̂₀ + A⁺ m`).
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

    /// The cached dense Gram factor, when this solver holds one — the
    /// representation the rank-1 update/downdate engine needs. `None`
    /// on the sparse route (callers fall back to rebuilding).
    #[must_use]
    pub fn dense_factor(&self) -> Option<&Cholesky> {
        match &self.factor {
            GramFactor::Dense(chol) => Some(chol),
            GramFactor::Sparse(_) => None,
        }
    }

    /// Which factor kind construction chose: `"dense"` or `"sparse"`.
    #[must_use]
    pub fn factor_kind(&self) -> &'static str {
        match &self.factor {
            GramFactor::Dense(_) => "dense",
            GramFactor::Sparse(_) => "sparse",
        }
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

    /// Materializes the Moore-Penrose pseudo-inverse `(AᵀA)⁻¹Aᵀ`
    /// (size `n × m`).
    ///
    /// # Errors
    ///
    /// Propagates internal solve errors (cannot occur after successful
    /// construction).
    pub fn pseudo_inverse(&self) -> Result<Matrix, LinalgError> {
        match &self.factor {
            GramFactor::Dense(chol) => {
                // Solve (AᵀA) Z = Aᵀ columnwise.
                let at = self.a.to_dense().transpose();
                chol.solve_mat(&at)
            }
            GramFactor::Sparse(chol) => {
                // Column j of Aᵀ is row j of A, scattered sparse.
                let (m, n) = self.a.shape();
                let mut out = Matrix::zeros(n, m);
                let mut col = Vector::zeros(n);
                for j in 0..m {
                    for (k, v) in self.a.row_iter(j) {
                        col[k] = v;
                    }
                    let z = chol.solve(&col)?;
                    for i in 0..n {
                        out[(i, j)] = z[i];
                    }
                    for (k, _) in self.a.row_iter(j) {
                        col[k] = 0.0;
                    }
                }
                Ok(out)
            }
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

/// Solves the ridge-regularized least-squares problem
/// `min ‖A x − b‖₂² + λ′ ‖x‖₂²` via Cholesky on `AᵀA + λ′ I`.
///
/// The actual shift is `λ′ = λ · (1 + mean(diag(AᵀA)))` — scaling by the
/// Gram diagonal keeps the regularization meaningful whether the matrix
/// entries are O(1) routing indicators or O(10³) delay columns. For any
/// `λ > 0` the shifted Gram matrix is symmetric positive definite, so
/// this succeeds even when `A` is rank deficient: it is the degraded
/// fallback after probe loss has destroyed identifiability.
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] if `b.len() != A.rows()`.
///
/// # Panics
///
/// Panics if `lambda` is not finite and strictly positive.
pub fn solve_ridge(a: &Matrix, b: &Vector, lambda: f64) -> Result<Vector, LinalgError> {
    assert!(
        lambda.is_finite() && lambda > 0.0,
        "ridge lambda must be finite and > 0, got {lambda}"
    );
    if b.len() != a.rows() {
        return Err(LinalgError::DimensionMismatch {
            op: "solve_ridge",
            lhs: a.shape(),
            rhs: (b.len(), 1),
        });
    }
    RIDGE_SOLVES.inc();
    let _timer = SOLVE_SECONDS.start_timer();
    let mut gram = a.mul_transpose_self();
    let n = gram.rows();
    let mean_diag = if n == 0 {
        0.0
    } else {
        (0..n).map(|j| gram[(j, j)]).sum::<f64>() / n as f64
    };
    let shift = lambda * (1.0 + mean_diag);
    for j in 0..n {
        gram[(j, j)] += shift;
    }
    let atb = a.mul_transpose_vec(b)?;
    Cholesky::new(&gram)?.solve(&atb)
}

/// Columns of `a` whose coordinate is not determined by the rows — the
/// *unidentifiable* links after probe loss, in tomography terms.
///
/// Builds an orthonormal basis `{qₖ}` of the row space (two-pass modified
/// Gram-Schmidt over the rows); column `j` is identifiable iff the
/// indicator `eⱼ` lies in the row space, i.e. `Σₖ qₖ[j]² = 1`. Returns
/// the indices where `1 − Σₖ qₖ[j]²` exceeds a small tolerance, in
/// ascending order. Empty iff `a` has full column rank.
#[must_use]
pub fn unidentifiable_columns(a: &Matrix) -> Vec<usize> {
    let mut basis: Vec<Vector> = Vec::new();
    let tol = crate::DEFAULT_TOL * (1.0 + a.max_abs());
    for i in 0..a.rows() {
        let mut q = Vector::from(a.row(i).to_vec());
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
    (0..a.cols())
        .filter(|&j| {
            let projected: f64 = basis.iter().map(|q| q[j] * q[j]).sum();
            1.0 - projected > 1e-7
        })
        .collect()
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
        let x_ne = solve_normal_equations(&a, &b).unwrap();
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
    fn pseudo_inverse_is_left_inverse() {
        let a = routing_like(5, 11, 6).expect("full-rank instance");
        let solver = NormalEquationsSolver::new(a.clone()).unwrap();
        let pinv = solver.pseudo_inverse().unwrap();
        assert_eq!(pinv.shape(), (6, 11));
        let prod = pinv.mul_mat(&a).unwrap();
        assert!(prod.approx_eq(&Matrix::identity(6), 1e-9));
    }

    #[test]
    fn pseudo_inverse_reproduces_estimates() {
        let a = routing_like(9, 10, 5).expect("full-rank instance");
        let solver = NormalEquationsSolver::new(a.clone()).unwrap();
        let pinv = solver.pseudo_inverse().unwrap();
        let b: Vector = (0..10).map(|i| i as f64 * 0.3).collect();
        let via_pinv = pinv.mul_vec(&b).unwrap();
        let via_solve = solver.solve(&b).unwrap();
        assert!(via_pinv.approx_eq(&via_solve, 1e-9));
    }

    #[test]
    fn rank_deficient_rejected() {
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0], vec![2.0, 2.0]]).unwrap();
        assert!(solve(&a, &Vector::zeros(3)).is_err());
        assert!(solve_normal_equations(&a, &Vector::zeros(3)).is_err());
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

    #[test]
    fn ridge_approaches_exact_solution_on_full_rank() {
        let a = routing_like(13, 12, 6).expect("full-rank instance");
        let b: Vector = (0..12).map(|i| (i as f64) * 2.1 - 5.0).collect();
        let exact = solve(&a, &b).unwrap();
        let ridged = solve_ridge(&a, &b, 1e-10).unwrap();
        assert!(ridged.approx_eq(&exact, 1e-6));
    }

    #[test]
    fn ridge_survives_rank_deficiency() {
        // Two identical columns: exact solvers reject, ridge succeeds
        // and splits the weight between the twins.
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0], vec![2.0, 2.0]]).unwrap();
        let b = Vector::from(vec![2.0, 2.0, 4.0]);
        assert!(solve(&a, &b).is_err());
        let x = solve_ridge(&a, &b, 1e-6).unwrap();
        assert!(x.iter().all(|v| v.is_finite()));
        assert!(
            (x[0] - x[1]).abs() < 1e-6,
            "symmetric columns, symmetric weights"
        );
        assert!((x[0] + x[1] - 2.0).abs() < 1e-3);
    }

    #[test]
    fn ridge_validates_input() {
        let a = Matrix::identity(3);
        assert!(solve_ridge(&a, &Vector::zeros(2), 1e-6).is_err());
    }

    #[test]
    #[should_panic(expected = "ridge lambda")]
    fn ridge_rejects_nonpositive_lambda() {
        let a = Matrix::identity(2);
        let _ = solve_ridge(&a, &Vector::zeros(2), 0.0);
    }

    #[test]
    fn unidentifiable_columns_empty_on_full_rank() {
        let a = routing_like(17, 12, 6).expect("full-rank instance");
        assert!(unidentifiable_columns(&a).is_empty());
    }

    #[test]
    fn unidentifiable_columns_flags_unseen_and_aliased() {
        // Column 2 is never measured; columns 0 and 1 always appear
        // together, so none of {0, 1, 2} is identifiable but column 3 is.
        let a = Matrix::from_rows(&[
            vec![1.0, 1.0, 0.0, 0.0],
            vec![1.0, 1.0, 0.0, 1.0],
            vec![0.0, 0.0, 0.0, 1.0],
        ])
        .unwrap();
        assert_eq!(unidentifiable_columns(&a), vec![0, 1, 2]);
    }

    #[test]
    fn unidentifiable_columns_matches_rank_augmentation() {
        // Brute-force cross-check: column j is identifiable iff appending
        // eⱼ as a row does NOT raise the rank of the row space.
        for seed in 0..12u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
            let a = Matrix::from_fn(6, 8, |_, _| if rng.gen_bool(0.35) { 1.0 } else { 0.0 });
            let base_rank = crate::rank::rank(&a);
            let flagged = unidentifiable_columns(&a);
            for j in 0..a.cols() {
                let mut rows: Vec<Vec<f64>> = (0..a.rows()).map(|i| a.row(i).to_vec()).collect();
                let mut e = vec![0.0; a.cols()];
                e[j] = 1.0;
                rows.push(e);
                let augmented = Matrix::from_rows(&rows).unwrap();
                let expect_unidentifiable = crate::rank::rank(&augmented) > base_rank;
                assert_eq!(
                    flagged.contains(&j),
                    expect_unidentifiable,
                    "seed {seed} col {j}"
                );
            }
        }
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

                let x_ne = solve_normal_equations(&a, &b).unwrap();
                prop_assert!(x.approx_eq(&x_ne, 1e-6));
            }
        }
    }
}
