//! Sparse Cholesky factorization for CSR Gram matrices.
//!
//! `BENCH_scale.json` put a number on the Rocketfuel-scale wall: at
//! 10,027 links the dense normal-equations build spends 256s — almost
//! all of it materializing an 800 MB dense Gram matrix (0.08% nonzero)
//! and running the O(n³) dense factorization over its zeros. The Gram
//! of a path routing matrix is *structurally* sparse (two links share a
//! Gram entry only if some path traverses both), so an up-looking
//! sparse factorization that touches only the nonzero pattern brings
//! the factor cost down to O(Σᵢ |pattern(i)|·avg-col-nnz) — milliseconds
//! where the dense kernel took minutes.
//!
//! Numerics: row `i` of `L` solves `L[0..i, 0..i] · l_rowᵀ = A[0..i, i]`
//! with the columns of the pattern processed in ascending order, the
//! same subtraction chains as the dense kernel — skipped
//! (structurally zero) terms contribute exact `±0.0·x` products, so the
//! result matches the dense factor to within the invisibility of those
//! skips (bit-for-bit on every fixture we test; the parity suite pins
//! a tight tolerance rather than bytes because exact-cancellation zeros
//! are dropped from the stored pattern). The positive-definiteness
//! tolerance is the same `1e-12·(1 + max|A|)` formula as
//! [`Cholesky`](crate::cholesky::Cholesky), and a failure reports the
//! same first-failing pivot index.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::{CsrMatrix, LinalgError, Vector};
use tomo_obs::{LazyGauge, LazyHistogram};

static SPARSE_FACTOR_SECONDS: LazyHistogram =
    LazyHistogram::new("linalg.sparse_chol.factor_seconds");
static SPARSE_FACTOR_NNZ: LazyGauge = LazyGauge::new("linalg.sparse_chol.nnz");

/// A sparse Cholesky factorization `A = L Lᵀ` of an SPD CSR matrix,
/// stored column-compressed (strictly-below-diagonal entries per
/// column, rows ascending) with a separate diagonal.
#[derive(Debug, Clone)]
pub struct SparseCholesky {
    n: usize,
    diag: Vec<f64>,
    /// `cols[k]` holds the below-diagonal entries `(i, L[i][k])` of
    /// column `k`, row indices strictly increasing.
    cols: Vec<Vec<(usize, f64)>>,
}

impl SparseCholesky {
    /// Factorizes a symmetric positive-definite CSR matrix (the full
    /// symmetric pattern must be stored, as [`CsrMatrix::gram_csr`]
    /// produces).
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] if `a` is not square.
    /// * [`LinalgError::NotPositiveDefinite`] at the first non-positive
    ///   pivot, same index as the dense kernel would report.
    pub fn new(a: &CsrMatrix) -> Result<Self, LinalgError> {
        if a.rows() != a.cols() {
            return Err(LinalgError::NotSquare {
                dims: (a.rows(), a.cols()),
            });
        }
        let _timer = SPARSE_FACTOR_SECONDS.start_timer();
        let n = a.rows();
        let mut max_abs = 0.0f64;
        for i in 0..n {
            for &v in a.row_values(i) {
                max_abs = max_abs.max(v.abs());
            }
        }
        let tol = 1e-12 * (1.0 + max_abs);

        let mut diag = vec![0.0f64; n];
        let mut cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        // Scatter workspace for the current row: `x[j]` is live iff
        // `stamp[j] == i + 1`.
        let mut x = vec![0.0f64; n];
        let mut stamp = vec![0usize; n];
        let mut heap: BinaryHeap<Reverse<usize>> = BinaryHeap::new();

        for i in 0..n {
            let mark = i + 1;
            let mut di = 0.0f64;
            for (j, v) in a.row_iter(i) {
                match j.cmp(&i) {
                    std::cmp::Ordering::Less => {
                        stamp[j] = mark;
                        x[j] = v;
                        heap.push(Reverse(j));
                    }
                    std::cmp::Ordering::Equal => di = v,
                    std::cmp::Ordering::Greater => {} // upper triangle: symmetric duplicate
                }
            }
            // Process the pattern in ascending column order, discovering
            // fill as we go (Gilbert–Peierls-style worklist, as in the
            // revised simplex's sparse LU).
            let mut row_entries: Vec<(usize, f64)> = Vec::new();
            while let Some(Reverse(k)) = heap.pop() {
                if stamp[k] != mark {
                    continue; // duplicate heap entry, already processed
                }
                stamp[k] = 0;
                let lik = x[k] / diag[k];
                di -= lik * lik;
                // Scatter column k into the remaining workspace.
                for &(j, ljk) in &cols[k] {
                    if j >= i {
                        break;
                    }
                    if stamp[j] != mark {
                        stamp[j] = mark;
                        x[j] = 0.0;
                        heap.push(Reverse(j));
                    }
                    x[j] -= ljk * lik;
                }
                if lik != 0.0 {
                    row_entries.push((k, lik));
                }
            }
            if di <= tol {
                return Err(LinalgError::NotPositiveDefinite { index: i });
            }
            diag[i] = di.sqrt();
            for (k, lik) in row_entries {
                cols[k].push((i, lik));
            }
        }
        let factor = SparseCholesky { n, diag, cols };
        SPARSE_FACTOR_NNZ.set(factor.nnz() as f64);
        Ok(factor)
    }

    /// Dimension of the factorized matrix.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Stored nonzeros of `L`, diagonal included.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.n + self.cols.iter().map(Vec::len).sum::<usize>()
    }

    /// Solves `A x = b` via column-oriented forward/back substitution.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve(&self, b: &Vector) -> Result<Vector, LinalgError> {
        let n = self.n;
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "sparse_cholesky_solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        let mut x = b.clone();
        // Forward: L z = b, column-oriented.
        for k in 0..n {
            let xk = x[k] / self.diag[k];
            x[k] = xk;
            for &(i, lik) in &self.cols[k] {
                x[i] -= lik * xk;
            }
        }
        // Backward: Lᵀ y = z. Row i of Lᵀ is column i of L.
        for i in (0..n).rev() {
            let mut sum = x[i];
            for &(j, lji) in &self.cols[i] {
                sum -= lji * x[j];
            }
            x[i] = sum / self.diag[i];
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky::Cholesky;
    use crate::Matrix;

    /// The factor expanded to a dense lower-triangular matrix, for
    /// comparison against the dense kernel.
    fn to_dense_factor(f: &SparseCholesky) -> Matrix {
        let mut l = Matrix::zeros(f.n, f.n);
        for k in 0..f.n {
            l[(k, k)] = f.diag[k];
            for &(i, lik) in &f.cols[k] {
                l[(i, k)] = lik;
            }
        }
        l
    }

    /// A routing-like sparse system: one-hop rows plus overlapping
    /// multi-hop paths.
    fn path_system(n: usize) -> CsrMatrix {
        let mut paths: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        for s in 0..n {
            let p: Vec<usize> = (s..(s + 4).min(n)).collect();
            if p.len() > 1 {
                paths.push(p);
            }
            if s % 3 == 0 && s + 7 < n {
                paths.push(vec![s, s + 5, s + 7]);
            }
        }
        CsrMatrix::from_paths(&paths, n).unwrap()
    }

    #[test]
    fn matches_dense_factor() {
        let a = path_system(40);
        let gram = a.gram_csr();
        let sparse = SparseCholesky::new(&gram).unwrap();
        let dense = Cholesky::new(&gram.to_dense()).unwrap();
        let expanded = to_dense_factor(&sparse);
        assert!(expanded.approx_eq(dense.l(), 1e-12));
        // On this fixture the subtraction chains line up bit for bit.
        for (x, y) in expanded.as_slice().iter().zip(dense.l().as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn solve_matches_dense() {
        let a = path_system(33);
        let gram = a.gram_csr();
        let sparse = SparseCholesky::new(&gram).unwrap();
        let dense = Cholesky::new(&gram.to_dense()).unwrap();
        let b = Vector::from((0..33).map(|i| (i as f64 * 0.7).sin()).collect::<Vec<_>>());
        let xs = sparse.solve(&b).unwrap();
        let xd = dense.solve(&b).unwrap();
        assert!(xs.approx_eq(&xd, 1e-10));
        assert!(sparse.solve(&Vector::zeros(5)).is_err());
    }

    #[test]
    fn reports_same_failing_pivot_as_dense() {
        // Links 5 and 6 are covered only by a duplicated two-hop path:
        // the Gram is singular and both kernels must fail at the same
        // column.
        let mut paths: Vec<Vec<usize>> = (0..5).map(|i| vec![i]).collect();
        paths.push(vec![5, 6]);
        paths.push(vec![5, 6]);
        paths.push(vec![0, 1, 5, 6]);
        let a = CsrMatrix::from_paths(&paths, 7).unwrap();
        let gram = a.gram_csr();
        let sparse_err = SparseCholesky::new(&gram).unwrap_err();
        let dense_err = Cholesky::new(&gram.to_dense()).unwrap_err();
        match (sparse_err, dense_err) {
            (
                LinalgError::NotPositiveDefinite { index: s },
                LinalgError::NotPositiveDefinite { index: d },
            ) => assert_eq!(s, d),
            other => panic!("expected NotPositiveDefinite pair, got {other:?}"),
        }
    }

    #[test]
    fn rejects_non_square() {
        let a = CsrMatrix::from_paths(&[vec![0], vec![1]], 3).unwrap();
        assert!(matches!(
            SparseCholesky::new(&a),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn nnz_counts_diagonal_and_fill() {
        let a = path_system(20);
        let sparse = SparseCholesky::new(&a.gram_csr()).unwrap();
        assert!(sparse.nnz() >= 20);
        assert_eq!(sparse.dim(), 20);
    }
}
