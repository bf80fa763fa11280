use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

use serde::{Deserialize, Serialize};

use crate::{LinalgError, Vector};

/// Output-column strip width of [`Matrix::mul_transpose_self`] (the
/// active strip is `MTS_TILE × cols × 8` bytes, sized to stay cache
/// resident).
const MTS_TILE: usize = 128;

/// A dense, row-major matrix of `f64` values.
///
/// The central instance in this workspace is the routing/measurement matrix
/// `R` (paths × links, entries in {0, 1}) from Eq. (1) of the paper, but the
/// type is a general-purpose dense matrix.
///
/// ```
/// use tomo_linalg::Matrix;
///
/// let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
/// assert_eq!(m[(1, 0)], 3.0);
/// assert_eq!(m.transpose()[(0, 1)], 3.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` zero matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    ///
    /// ```
    /// let i = tomo_linalg::Matrix::identity(3);
    /// assert_eq!(i[(1, 1)], 1.0);
    /// assert_eq!(i[(0, 1)], 0.0);
    /// ```
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidShape`] if the rows have differing
    /// lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, LinalgError> {
        if rows.is_empty() {
            return Ok(Matrix::zeros(0, 0));
        }
        let cols = rows[0].len();
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(LinalgError::InvalidShape {
                    reason: format!("row 0 has {cols} columns but row {i} has {}", r.len()),
                });
            }
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidShape`] if `data.len() != rows * cols`.
    pub fn from_row_major(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::InvalidShape {
                reason: format!(
                    "buffer of length {} cannot fill a {rows}x{cols} matrix",
                    data.len()
                ),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a matrix by evaluating `f(row, col)` at every position.
    #[must_use]
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
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

    /// Returns `true` if the matrix is square.
    #[must_use]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[must_use]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of range ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new [`Vector`].
    ///
    /// # Panics
    ///
    /// Panics if `j >= cols`.
    #[must_use]
    pub fn col(&self, j: usize) -> Vector {
        assert!(j < self.cols, "col index {j} out of range ({})", self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Returns the transpose.
    #[must_use]
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Matrix-vector product `A v`.
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
            .map(|i| self.row(i).iter().zip(v.iter()).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// Transposed matrix-vector product `Aᵀ v` without forming `Aᵀ`.
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
            for (j, a) in self.row(i).iter().enumerate() {
                out[j] += a * vi;
            }
        }
        Ok(out)
    }

    /// Matrix product `A B`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `self.cols != rhs.rows`.
    pub fn mul_mat(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "mul_mat",
                lhs: (self.rows, self.cols),
                rhs: (rhs.rows, rhs.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// `AᵀA` without materializing `Aᵀ`: row-major outer-product
    /// accumulation (each input row is streamed once, contiguously) over
    /// the **upper triangle** only, mirrored at the end. Products
    /// commute, so the result is bit-identical to the full two-sided
    /// accumulation at roughly half the multiply-adds.
    ///
    /// Output columns are processed one 128-column strip at a time, so
    /// the strip (instead of the whole upper triangle) is the per-row
    /// working set. Each output entry accumulates one `+= a * b`
    /// per input row, rows ascending, whatever the strip layout, so the
    /// result matches the untiled loop bit for bit; with a single strip
    /// it *is* that loop.
    #[must_use]
    pub fn mul_transpose_self(&self) -> Matrix {
        let cols = self.cols;
        let mut out = Matrix::zeros(cols, cols);
        for c0 in (0..cols).step_by(MTS_TILE) {
            let c1 = (c0 + MTS_TILE).min(cols);
            for i in 0..self.rows {
                let row = self.row(i);
                for (a_idx, &a) in row[..c1].iter().enumerate() {
                    if a == 0.0 {
                        continue;
                    }
                    let lo = a_idx.max(c0);
                    let orow = &mut out.data[a_idx * cols + lo..a_idx * cols + c1];
                    for (o, &b) in orow.iter_mut().zip(&row[lo..c1]) {
                        *o += a * b;
                    }
                }
            }
        }
        Self::mirror_upper(&mut out);
        out
    }

    /// Copies the (strict) upper triangle onto the lower one in place.
    fn mirror_upper(out: &mut Matrix) {
        for r in 1..out.rows {
            for c in 0..r {
                out[(r, c)] = out[(c, r)];
            }
        }
    }

    /// Gram matrix `AᵀA` (the normal-equations matrix `RᵀR` of Eq. (2)).
    #[must_use]
    pub fn gram(&self) -> Matrix {
        self.mul_transpose_self()
    }

    /// Returns a new matrix keeping only the selected rows, in order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    #[must_use]
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (new_i, &old_i) in indices.iter().enumerate() {
            assert!(old_i < self.rows, "row index {old_i} out of range");
            out.data[new_i * self.cols..(new_i + 1) * self.cols].copy_from_slice(self.row(old_i));
        }
        out
    }

    /// Returns a new matrix keeping only the selected columns, in order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    #[must_use]
    pub fn select_cols(&self, indices: &[usize]) -> Matrix {
        Matrix::from_fn(self.rows, indices.len(), |i, j| {
            let old_j = indices[j];
            assert!(old_j < self.cols, "col index {old_j} out of range");
            self[(i, old_j)]
        })
    }

    /// Returns `true` if all entries are within `tol` of `other`'s.
    #[must_use]
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Maximum absolute entry (0 for an empty matrix).
    #[must_use]
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0, |acc, v| acc.max(v.abs()))
    }

    /// Borrows the flat row-major buffer.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the flat row-major buffer (for in-crate kernels).
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Swaps rows `a` and `b` in place.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        assert!(a < self.rows && b < self.rows, "row swap out of range");
        if a == b {
            return;
        }
        let (lo, hi) = (a.min(b), a.max(b));
        let (first, second) = self.data.split_at_mut(hi * self.cols);
        first[lo * self.cols..(lo + 1) * self.cols].swap_with_slice(&mut second[..self.cols]);
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of range for {}x{} matrix",
            self.rows,
            self.cols
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of range for {}x{} matrix",
            self.rows,
            self.cols
        );
        &mut self.data[i * self.cols + j]
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix add: shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix sub: shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(rhs.data.iter())
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, alpha: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|a| a * alpha).collect(),
        }
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.rows == 0 || self.cols == 0 {
            return write!(f, "[{}x{}]", self.rows, self.cols);
        }
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:10.4}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn construction_and_shape() {
        let m = sample();
        assert_eq!(m.shape(), (2, 3));
        assert!(!m.is_square());
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(1).as_slice(), &[2.0, 5.0]);
    }

    #[test]
    fn ragged_rows_rejected() {
        let err = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::InvalidShape { .. }));
    }

    #[test]
    fn from_row_major_validates_length() {
        assert!(Matrix::from_row_major(2, 2, vec![1.0; 3]).is_err());
        let m = Matrix::from_row_major(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m[(1, 1)], 4.0);
    }

    #[test]
    fn empty_matrix() {
        let m = Matrix::from_rows(&[]).unwrap();
        assert_eq!(m.shape(), (0, 0));
        assert_eq!(format!("{m}"), "[0x0]");
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().shape(), (3, 2));
        assert_eq!(m.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn mul_vec_matches_manual() {
        let m = sample();
        let v = Vector::from(vec![1.0, 0.0, -1.0]);
        assert_eq!(m.mul_vec(&v).unwrap().as_slice(), &[-2.0, -2.0]);
        assert!(m.mul_vec(&Vector::zeros(2)).is_err());
    }

    #[test]
    fn mul_transpose_vec_matches_explicit_transpose() {
        let m = sample();
        let v = Vector::from(vec![2.0, -1.0]);
        let fast = m.mul_transpose_vec(&v).unwrap();
        let slow = m.transpose().mul_vec(&v).unwrap();
        assert!(fast.approx_eq(&slow, 1e-12));
        assert!(m.mul_transpose_vec(&Vector::zeros(3)).is_err());
    }

    #[test]
    fn mul_mat_identity() {
        let m = sample();
        let i3 = Matrix::identity(3);
        assert_eq!(m.mul_mat(&i3).unwrap(), m);
        let i2 = Matrix::identity(2);
        assert_eq!(i2.mul_mat(&m).unwrap(), m);
        assert!(m.mul_mat(&i2).is_err());
    }

    #[test]
    fn gram_matches_explicit() {
        let m = sample();
        let explicit = m.transpose().mul_mat(&m).unwrap();
        assert!(m.gram().approx_eq(&explicit, 1e-12));
        // Gram matrices are symmetric.
        let g = m.gram();
        assert!(g.approx_eq(&g.transpose(), 0.0));
    }

    #[test]
    fn mul_transpose_self_is_bit_exact_and_symmetric() {
        // Irregular values (incl. negatives and zeros to hit the
        // zero-skip path) on a rectangular matrix.
        let m = Matrix::from_fn(7, 5, |i, j| {
            if (i + j) % 3 == 0 {
                0.0
            } else {
                ((i * 5 + j) as f64).sin() * 7.3 - 2.1
            }
        });
        let fast = m.mul_transpose_self();
        let explicit = m.transpose().mul_mat(&m).unwrap();
        assert_eq!(fast.shape(), (5, 5));
        assert!(fast.approx_eq(&explicit, 1e-12));
        // The mirror step makes symmetry exact, not approximate.
        for r in 0..5 {
            for c in 0..5 {
                assert_eq!(fast[(r, c)].to_bits(), fast[(c, r)].to_bits());
            }
        }
    }

    #[test]
    fn mul_transpose_self_matches_untiled_loop_bitwise() {
        // One strip, and wide enough to span three MTS_TILE strips, with
        // zeros to exercise the skip path.
        for cols in [MTS_TILE - 1, 2 * MTS_TILE + 70] {
            let m = Matrix::from_fn(23, cols, |i, j| {
                if (i * 31 + j) % 5 == 0 {
                    0.0
                } else {
                    ((i * 311 + j * 17) as f64).sin() * 3.7 - 1.3
                }
            });
            // The untiled upper-triangle loop, rows ascending.
            let mut want = Matrix::zeros(cols, cols);
            for i in 0..m.rows() {
                let row = m.row(i);
                for (a_idx, &a) in row.iter().enumerate() {
                    if a == 0.0 {
                        continue;
                    }
                    for (off, &b) in row[a_idx..].iter().enumerate() {
                        want[(a_idx, a_idx + off)] += a * b;
                    }
                }
            }
            Matrix::mirror_upper(&mut want);
            let got = m.mul_transpose_self();
            assert_eq!(got.shape(), want.shape());
            for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "cols = {cols}");
            }
        }
    }

    #[test]
    fn select_rows_and_cols() {
        let m = sample();
        let r = m.select_rows(&[1]);
        assert_eq!(r.shape(), (1, 3));
        assert_eq!(r.row(0), &[4.0, 5.0, 6.0]);
        let c = m.select_cols(&[2, 0]);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c[(0, 0)], 3.0);
        assert_eq!(c[(1, 1)], 4.0);
    }

    #[test]
    fn swap_rows_works() {
        let mut m = sample();
        m.swap_rows(0, 1);
        assert_eq!(m.row(0), &[4.0, 5.0, 6.0]);
        assert_eq!(m.row(1), &[1.0, 2.0, 3.0]);
        m.swap_rows(1, 1); // no-op
        assert_eq!(m.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Matrix::identity(2);
        let b = &a * 3.0;
        assert_eq!(b[(0, 0)], 3.0);
        let c = &b - &a;
        assert_eq!(c[(1, 1)], 2.0);
        let d = &c + &a;
        assert_eq!(d[(1, 1)], 3.0);
    }

    #[test]
    fn max_abs_and_approx_eq() {
        let m = Matrix::from_rows(&[vec![-5.0, 2.0]]).unwrap();
        assert_eq!(m.max_abs(), 5.0);
        assert_eq!(Matrix::zeros(0, 0).max_abs(), 0.0);
        assert!(m.approx_eq(&m, 0.0));
        assert!(!m.approx_eq(&Matrix::zeros(1, 2), 1.0));
    }

    #[test]
    fn display_shows_entries() {
        let s = format!("{}", Matrix::identity(2));
        assert!(s.contains("1.0000"));
    }

    #[test]
    fn serde_roundtrip() {
        let m = sample();
        let json = serde_json::to_string(&m).unwrap();
        let back: Matrix = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
