//! Compressed sparse row (CSR) kernels for the routing matrix.
//!
//! The routing matrix `R` of Eq. (1) is 0/1 and extremely sparse — each
//! measurement path crosses a handful of links — so the dense kernels in
//! [`Matrix`] waste almost all of their work multiplying by structural
//! zeros. [`CsrMatrix`] stores only the nonzero entries and provides the
//! three kernels the tomography stack runs per trial: `R v`
//! ([`CsrMatrix::mul_vec`]), `Rᵀ v` ([`CsrMatrix::mul_transpose_vec`]) and
//! the Gram matrix `RᵀR` ([`CsrMatrix::gram`]).
//!
//! # Bit-exactness
//!
//! Every kernel visits the surviving terms in **exactly the index order of
//! the corresponding dense loop** and merely skips terms whose stored
//! coefficient is zero. Skipping is bitwise invisible:
//!
//! * a skipped term contributes `0.0 * x = ±0.0`;
//! * `acc + (-0.0)` is `acc` bitwise for every `acc`, and `acc + (+0.0)`
//!   is `acc` bitwise unless `acc` is `-0.0`;
//! * the `out[j] += a * b` accumulators of [`CsrMatrix::mul_transpose_vec`]
//!   and [`CsrMatrix::gram`] start at `+0.0` and can never become `-0.0`:
//!   under round-to-nearest a sum is `-0.0` only when both addends are
//!   `-0.0` (exact cancellation of nonzeros yields `+0.0`), which cannot
//!   be reached from a `+0.0` start, so skipping zero terms is invisible;
//! * [`CsrMatrix::mul_vec`] mirrors `iter::Sum<f64>`, whose fold starts at
//!   `-0.0`. A `-0.0` accumulator is flipped to `+0.0` by the dense loop's
//!   first `+0.0` product, so rows whose stored products are all `-0.0`
//!   (in particular empty rows) take an explicit slow path that replays
//!   the skipped `0.0 * v[j]` signs.
//!
//! Hence each sparse kernel returns results bit-identical to its dense
//! counterpart on [`CsrMatrix::to_dense`] (equal to the source matrix of
//! [`CsrMatrix::from_dense`] whenever it stores no explicit `-0.0`
//! entries), and the estimator / detector / LP pipeline downstream of the
//! swap reproduces the committed artifacts byte-for-byte.

use serde::{Deserialize, Serialize};

use crate::{LinalgError, Matrix, Vector};
use tomo_obs::LazyGauge;

static NNZ: LazyGauge = LazyGauge::new("linalg.sparse.nnz");
static DENSITY: LazyGauge = LazyGauge::new("linalg.sparse.density");

/// A compressed-sparse-row matrix of `f64` values.
///
/// Stored as the classic three-array layout: `indptr[i]..indptr[i + 1]`
/// delimits row `i`'s entries inside `indices` (ascending column numbers)
/// and `values` (the matching coefficients). Zero coefficients are never
/// stored.
///
/// ```
/// use tomo_linalg::{CsrMatrix, Matrix, Vector};
///
/// let dense = Matrix::from_rows(&[vec![1.0, 0.0, 1.0], vec![0.0, 1.0, 1.0]]).unwrap();
/// let sparse = CsrMatrix::from_dense(&dense);
/// assert_eq!(sparse.nnz(), 4);
/// let v = Vector::from(vec![1.0, 2.0, 3.0]);
/// assert_eq!(
///     sparse.mul_vec(&v).unwrap().as_slice(),
///     dense.mul_vec(&v).unwrap().as_slice(),
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from a dense one, dropping zero entries.
    #[must_use]
    pub fn from_dense(dense: &Matrix) -> Self {
        let (rows, cols) = dense.shape();
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        for i in 0..rows {
            for (j, &a) in dense.row(i).iter().enumerate() {
                if a != 0.0 {
                    indices.push(j);
                    values.push(a);
                }
            }
            indptr.push(indices.len());
        }
        let csr = CsrMatrix {
            rows,
            cols,
            indptr,
            indices,
            values,
        };
        csr.publish_stats();
        csr
    }

    /// Builds the 0/1 routing matrix directly from per-path link index
    /// lists (one list per row), without materializing a dense matrix.
    ///
    /// Duplicate indices within a path are collapsed; indices are sorted
    /// so each row is in ascending column order.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidShape`] if any link index is `>=
    /// cols`.
    pub fn from_paths(paths: &[Vec<usize>], cols: usize) -> Result<Self, LinalgError> {
        let mut indptr = Vec::with_capacity(paths.len() + 1);
        let mut indices = Vec::new();
        indptr.push(0);
        for (row, links) in paths.iter().enumerate() {
            let mut sorted = links.clone();
            sorted.sort_unstable();
            sorted.dedup();
            if let Some(&bad) = sorted.iter().find(|&&j| j >= cols) {
                return Err(LinalgError::InvalidShape {
                    reason: format!("path {row} crosses link {bad} but there are only {cols}"),
                });
            }
            indices.extend_from_slice(&sorted);
            indptr.push(indices.len());
        }
        let values = vec![1.0; indices.len()];
        let csr = CsrMatrix {
            rows: paths.len(),
            cols,
            indptr,
            indices,
            values,
        };
        csr.publish_stats();
        Ok(csr)
    }

    fn publish_stats(&self) {
        NNZ.set(self.nnz() as f64);
        DENSITY.set(self.density());
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored (nonzero) entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of entries that are nonzero (0 for an empty matrix).
    #[must_use]
    pub fn density(&self) -> f64 {
        let total = self.rows * self.cols;
        if total == 0 {
            0.0
        } else {
            self.nnz() as f64 / total as f64
        }
    }

    /// Column indices of row `i`'s stored entries, in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[must_use]
    pub fn row_indices(&self, i: usize) -> &[usize] {
        assert!(i < self.rows, "row index {i} out of range ({})", self.rows);
        &self.indices[self.indptr[i]..self.indptr[i + 1]]
    }

    /// Coefficients of row `i`'s stored entries, aligned with
    /// [`CsrMatrix::row_indices`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[must_use]
    pub fn row_values(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of range ({})", self.rows);
        &self.values[self.indptr[i]..self.indptr[i + 1]]
    }

    /// Iterator over `(column, coefficient)` pairs of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row_iter(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.row_indices(i)
            .iter()
            .zip(self.row_values(i).iter())
            .map(|(&j, &a)| (j, a))
    }

    /// Expands the matrix back to dense form.
    #[must_use]
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for (j, a) in self.row_iter(i) {
                out[(i, j)] = a;
            }
        }
        out
    }

    /// Matrix-vector product `A v`, bit-identical to
    /// [`Matrix::mul_vec`] on the dense expansion.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `v.len() != cols`.
    pub fn mul_vec(&self, v: &Vector) -> Result<Vector, LinalgError> {
        if v.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "mul_vec",
                lhs: (self.rows, self.cols),
                rhs: (v.len(), 1),
            });
        }
        Ok((0..self.rows)
            .map(|i| {
                let acc: f64 = self.row_iter(i).map(|(j, a)| a * v[j]).sum();
                if acc == 0.0 && acc.is_sign_negative() {
                    // `Sum<f64>` folds from -0.0, and every stored product
                    // kept it there. The dense loop additionally adds
                    // `0.0 * v[j]` for each structural zero, which turns
                    // the accumulator into +0.0 as soon as one such
                    // product is +0.0 — replay those signs.
                    let mut stored = self.row_indices(i).iter().peekable();
                    for j in 0..self.cols {
                        if stored.peek() == Some(&&j) {
                            stored.next();
                        } else if !(0.0 * v[j]).is_sign_negative() {
                            return 0.0;
                        }
                    }
                }
                acc
            })
            .collect())
    }

    /// Transposed matrix-vector product `Aᵀ v`, bit-identical to
    /// [`Matrix::mul_transpose_vec`] on the dense expansion.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `v.len() != rows`.
    pub fn mul_transpose_vec(&self, v: &Vector) -> Result<Vector, LinalgError> {
        if v.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "mul_transpose_vec",
                lhs: (self.cols, self.rows),
                rhs: (v.len(), 1),
            });
        }
        let mut out = Vector::zeros(self.cols);
        for i in 0..self.rows {
            let vi = v[i];
            if vi == 0.0 {
                continue;
            }
            for (j, a) in self.row_iter(i) {
                out[j] += a * vi;
            }
        }
        Ok(out)
    }

    /// Gram matrix `AᵀA` (the normal-equations matrix `RᵀR` of Eq. (2)),
    /// bit-identical to [`Matrix::mul_transpose_self`] on the dense
    /// expansion.
    ///
    /// Accumulates the upper triangle by row-pair products in the same
    /// ascending-column order as the dense loop, then mirrors it — the
    /// identical structure, minus the terms the dense loop multiplies by
    /// zero.
    #[must_use]
    pub fn gram(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.cols);
        for i in 0..self.rows {
            let idx = self.row_indices(i);
            let val = self.row_values(i);
            for (p, (&ja, &a)) in idx.iter().zip(val.iter()).enumerate() {
                for (&jb, &b) in idx[p..].iter().zip(val[p..].iter()) {
                    out[(ja, jb)] += a * b;
                }
            }
        }
        for r in 1..self.cols {
            for c in 0..r {
                out[(r, c)] = out[(c, r)];
            }
        }
        out
    }

    /// Returns the transpose as a new CSR matrix.
    ///
    /// Counting sort over column indices, O(nnz + rows + cols). Because
    /// the source is scanned in row-major order, each output row's
    /// indices come out strictly ascending. Does not republish the
    /// `linalg.sparse.*` gauges (it is an internal building block of
    /// [`CsrMatrix::gram_csr`], not a new routing matrix).
    #[must_use]
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.cols + 1];
        for &j in &self.indices {
            counts[j + 1] += 1;
        }
        for c in 1..=self.cols {
            counts[c] += counts[c - 1];
        }
        let indptr = counts.clone();
        let mut next = counts;
        let mut indices = vec![0usize; self.nnz()];
        let mut values = vec![0.0f64; self.nnz()];
        for i in 0..self.rows {
            for (j, a) in self.row_iter(i) {
                let p = next[j];
                next[j] += 1;
                indices[p] = i;
                values[p] = a;
            }
        }
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            indptr,
            indices,
            values,
        }
    }

    /// Sparse-output Gram matrix `AᵀA` as CSR, with entries bit-identical
    /// to [`CsrMatrix::gram`] (and hence to the dense
    /// [`Matrix::mul_transpose_self`]) on [`CsrMatrix::to_dense`].
    ///
    /// For path routing matrices the Gram matrix is itself sparse — two
    /// links couple only if some path crosses both — so at Rocketfuel
    /// scale (tens of thousands of links) the `cols²` dense output of
    /// [`CsrMatrix::gram`] is the memory wall, not the flops. This
    /// routine builds only the structurally nonzero entries: row `ja` of
    /// the upper triangle is the merge of every matrix row containing
    /// column `ja` (found via [`CsrMatrix::transpose`], rows ascending)
    /// into a dense accumulator over the touched columns.
    ///
    /// Bit-parity argument: entry `(ja, jb)` accumulates exactly the
    /// products `a[i][ja]·a[i][jb]` over stored rows `i` in ascending
    /// `i` — the same terms in the same order as the dense upper-triangle
    /// loop (which merely adds invisible `±0.0` terms; the accumulator
    /// starts at `+0.0` and can never become `-0.0`, see the module
    /// docs). Entries that cancel to an exact `0.0` are dropped by the
    /// builder, which expands back to the same `+0.0` the dense path
    /// stores. The lower triangle is the transpose of the upper one —
    /// the same bit-copy mirroring the dense path performs.
    #[must_use]
    pub fn gram_csr(&self) -> CsrMatrix {
        let n = self.cols;
        let at = self.transpose();
        let mut acc = vec![0.0f64; n];
        let mut stamp = vec![usize::MAX; n];
        let mut touched: Vec<usize> = Vec::new();
        let mut upper = CsrBuilder::new(n);
        for ja in 0..n {
            touched.clear();
            for (i, va) in at.row_iter(ja) {
                let idx = self.row_indices(i);
                let val = self.row_values(i);
                let start = idx.partition_point(|&j| j < ja);
                for (&jb, &vb) in idx[start..].iter().zip(&val[start..]) {
                    if stamp[jb] != ja {
                        stamp[jb] = ja;
                        acc[jb] = 0.0;
                        touched.push(jb);
                    }
                    acc[jb] += va * vb;
                }
            }
            touched.sort_unstable();
            upper
                .push_row(touched.iter().map(|&jb| (jb, acc[jb])))
                .expect("touched columns are ascending and in range");
        }
        let u = upper.finish();
        let ut = u.transpose();
        // Symmetric assembly: strict lower part from Uᵀ, then U's row.
        let mut b = CsrBuilder::new(n);
        for ja in 0..n {
            let lower = ut.row_iter(ja).filter(|&(jb, _)| jb < ja);
            b.push_row(lower.chain(u.row_iter(ja)))
                .expect("lower then upper columns are ascending and in range");
        }
        b.finish()
    }
}

/// Incremental row-by-row construction of a [`CsrMatrix`].
///
/// Callers that already iterate their data row-wise — LP assembly walking
/// estimator rows restricted to attacked columns, for example — can push
/// each row's `(column, value)` pairs directly instead of materializing a
/// dense intermediate. Entries must arrive in strictly ascending column
/// order and zero values are skipped, so the finished matrix is
/// indistinguishable from one produced by [`CsrMatrix::from_dense`] on
/// the equivalent dense data.
///
/// ```
/// use tomo_linalg::{CsrBuilder, Matrix};
///
/// let mut b = CsrBuilder::new(3);
/// b.push_row([(0, 2.0), (2, -1.0)]).unwrap();
/// b.push_row([]).unwrap();
/// let csr = b.finish();
/// let dense = Matrix::from_rows(&[vec![2.0, 0.0, -1.0], vec![0.0, 0.0, 0.0]]).unwrap();
/// assert_eq!(csr, tomo_linalg::CsrMatrix::from_dense(&dense));
/// ```
#[derive(Debug, Clone)]
pub struct CsrBuilder {
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl CsrBuilder {
    /// Starts a builder for matrices with `cols` columns and no rows yet.
    #[must_use]
    pub fn new(cols: usize) -> Self {
        CsrBuilder {
            cols,
            indptr: vec![0],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Appends one row given its `(column, value)` entries in strictly
    /// ascending column order. Zero values are dropped.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidShape`] when a column is out of
    /// range or out of order.
    pub fn push_row(
        &mut self,
        entries: impl IntoIterator<Item = (usize, f64)>,
    ) -> Result<(), LinalgError> {
        let row = self.indptr.len() - 1;
        let start = self.indices.len();
        let mut prev: Option<usize> = None;
        for (col, val) in entries {
            if col >= self.cols {
                self.truncate_to(start);
                return Err(LinalgError::InvalidShape {
                    reason: format!(
                        "row {row} column {col} out of range for {} columns",
                        self.cols
                    ),
                });
            }
            if prev.is_some_and(|p| p >= col) {
                self.truncate_to(start);
                return Err(LinalgError::InvalidShape {
                    reason: format!("row {row} columns must be strictly ascending at {col}"),
                });
            }
            prev = Some(col);
            if val != 0.0 {
                self.indices.push(col);
                self.values.push(val);
            }
        }
        self.indptr.push(self.indices.len());
        Ok(())
    }

    /// Consumes the builder and returns the finished matrix.
    #[must_use]
    pub fn finish(self) -> CsrMatrix {
        let csr = CsrMatrix {
            rows: self.indptr.len() - 1,
            cols: self.cols,
            indptr: self.indptr,
            indices: self.indices,
            values: self.values,
        };
        csr.publish_stats();
        csr
    }

    fn truncate_to(&mut self, len: usize) {
        self.indices.truncate(len);
        self.values.truncate(len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_dense() -> Matrix {
        Matrix::from_rows(&[
            vec![1.0, 0.0, 1.0, 0.0, 1.0],
            vec![0.0, 0.0, 0.0, 0.0, 0.0],
            vec![0.0, 1.0, 1.0, 0.0, 0.0],
            vec![1.0, 0.0, 0.0, 1.0, 0.0],
        ])
        .unwrap()
    }

    #[test]
    fn from_dense_roundtrip_and_stats() {
        let dense = sample_dense();
        let csr = CsrMatrix::from_dense(&dense);
        assert_eq!(csr.shape(), (4, 5));
        assert_eq!(csr.nnz(), 7);
        assert!((csr.density() - 7.0 / 20.0).abs() < 1e-15);
        assert_eq!(csr.to_dense(), dense);
        assert_eq!(csr.row_indices(0), &[0, 2, 4]);
        assert_eq!(csr.row_indices(1), &[] as &[usize]);
        assert_eq!(csr.row_values(3), &[1.0, 1.0]);
    }

    #[test]
    fn from_paths_matches_dense_build() {
        let paths = vec![vec![2, 0, 4, 0], vec![], vec![1, 2], vec![3, 0]];
        let csr = CsrMatrix::from_paths(&paths, 5).unwrap();
        assert_eq!(csr.to_dense(), sample_dense());
        assert!(CsrMatrix::from_paths(&[vec![5]], 5).is_err());
    }

    #[test]
    fn mul_vec_bit_identical_to_dense() {
        let dense = sample_dense();
        let csr = CsrMatrix::from_dense(&dense);
        let v = Vector::from(vec![0.25, -3.5, 1.0 / 3.0, 7.25, -0.125]);
        let sparse = csr.mul_vec(&v).unwrap();
        let exact = dense.mul_vec(&v).unwrap();
        for (a, b) in sparse.iter().zip(exact.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(csr.mul_vec(&Vector::zeros(4)).is_err());

        // Zero rows reproduce the dense loop's sign-of-zero: an all
        // negative `v` keeps the `Sum` fold at -0.0, a mixed one flips
        // it to +0.0.
        let neg = Vector::from(vec![-1.0; 5]);
        let d = dense.mul_vec(&neg).unwrap();
        let s = csr.mul_vec(&neg).unwrap();
        for (a, b) in s.iter().zip(d.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(d[1] == 0.0 && d[1].is_sign_negative());
    }

    #[test]
    fn mul_transpose_vec_bit_identical_to_dense() {
        let dense = sample_dense();
        let csr = CsrMatrix::from_dense(&dense);
        let v = Vector::from(vec![1.5, -2.25, 0.0, 1.0 / 7.0]);
        let sparse = csr.mul_transpose_vec(&v).unwrap();
        let exact = dense.mul_transpose_vec(&v).unwrap();
        for (a, b) in sparse.iter().zip(exact.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert!(csr.mul_transpose_vec(&Vector::zeros(5)).is_err());
    }

    #[test]
    fn gram_bit_identical_to_dense() {
        // Irregular (non-0/1) coefficients to exercise real rounding.
        let dense = Matrix::from_fn(7, 5, |i, j| {
            if (i + j) % 3 == 0 {
                0.0
            } else {
                ((i * 5 + j) as f64).sin() * 7.3 - 2.1
            }
        });
        let csr = CsrMatrix::from_dense(&dense);
        let sparse = csr.gram();
        let exact = dense.mul_transpose_self();
        assert_eq!(sparse.shape(), exact.shape());
        for (a, b) in sparse.as_slice().iter().zip(exact.as_slice().iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn empty_matrix_is_fine() {
        let csr = CsrMatrix::from_paths(&[], 0).unwrap();
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.density(), 0.0);
        assert_eq!(csr.gram().shape(), (0, 0));
        assert_eq!(csr.transpose().shape(), (0, 0));
        assert_eq!(csr.gram_csr().shape(), (0, 0));
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let dense = sample_dense();
        let csr = CsrMatrix::from_dense(&dense);
        let t = csr.transpose();
        assert_eq!(t.shape(), (5, 4));
        assert_eq!(t.to_dense(), dense.transpose());
        // Double transpose is the identity, including stored order.
        assert_eq!(t.transpose(), csr);
        // Rows of the transpose list the original rows ascending.
        assert_eq!(t.row_indices(0), &[0, 3]);
        assert_eq!(t.row_indices(3), &[3]);
    }

    #[test]
    fn gram_csr_bit_identical_to_dense_gram() {
        // Irregular (non-0/1) coefficients, including a zero column.
        let dense = Matrix::from_fn(9, 6, |i, j| {
            if j == 4 || (i + j) % 3 == 0 {
                0.0
            } else {
                ((i * 6 + j) as f64).sin() * 7.3 - 2.1
            }
        });
        let csr = CsrMatrix::from_dense(&dense);
        let sparse = csr.gram_csr();
        let exact = dense.mul_transpose_self();
        assert_eq!(sparse.shape(), exact.shape());
        for (a, b) in sparse.to_dense().as_slice().iter().zip(exact.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // The zero column produces a structurally empty row/column.
        assert_eq!(sparse.row_indices(4), &[] as &[usize]);
    }

    #[test]
    fn gram_csr_matches_gram_on_path_matrices() {
        let paths = vec![vec![0, 2, 4], vec![1, 2], vec![0, 3], vec![2, 4], vec![]];
        let csr = CsrMatrix::from_paths(&paths, 5).unwrap();
        let sparse = csr.gram_csr();
        let exact = csr.gram();
        for (a, b) in sparse.to_dense().as_slice().iter().zip(exact.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Links 0 and 1 never share a path: structurally absent.
        assert!(!sparse.row_indices(0).contains(&1));
    }

    #[test]
    fn serde_roundtrip() {
        let csr = CsrMatrix::from_dense(&sample_dense());
        let json = serde_json::to_string(&csr).unwrap();
        let back: CsrMatrix = serde_json::from_str(&json).unwrap();
        assert_eq!(csr, back);
    }

    #[test]
    fn builder_matches_from_dense() {
        let dense = sample_dense();
        let mut b = CsrBuilder::new(dense.shape().1);
        for i in 0..dense.shape().0 {
            b.push_row(
                dense
                    .row(i)
                    .iter()
                    .enumerate()
                    .map(|(j, &a)| (j, a))
                    .filter(|&(_, a)| a != 0.0),
            )
            .unwrap();
        }
        assert_eq!(b.finish(), CsrMatrix::from_dense(&dense));
    }

    #[test]
    fn builder_rejects_bad_rows() {
        let mut b = CsrBuilder::new(3);
        assert!(b.push_row([(0, 1.0), (3, 2.0)]).is_err());
        assert!(b.push_row([(1, 1.0), (1, 2.0)]).is_err());
        assert!(b.push_row([(2, 1.0), (0, 2.0)]).is_err());
        // Failed pushes must not leave partial entries behind.
        b.push_row([(0, 1.0), (2, 2.0)]).unwrap();
        let csr = b.finish();
        assert_eq!(csr.shape(), (1, 3));
        assert_eq!(csr.nnz(), 2);
    }
}
