//! Cholesky factorization for symmetric positive-definite matrices.
//!
//! The normal-equations matrix `RᵀR` of the tomography estimator (Eq. (2) of
//! the paper) is SPD whenever `R` has full column rank, which monitor/path
//! selection guarantees; Cholesky is then the cheapest stable solver.

use crate::{LinalgError, Matrix, Vector};
use tomo_obs::LazyHistogram;

static FACTOR_SECONDS: LazyHistogram = LazyHistogram::new("linalg.cholesky.factor_seconds");

/// Panel width of the blocked factorization. Tuned on the 1-core bench
/// runner: the trailing-update working set per output row is
/// `BLOCK × 8` bytes per operand row, so 64 keeps four concurrent
/// operand rows inside L1 while amortizing the panel sweep.
pub const BLOCK: usize = 64;

/// A Cholesky factorization `A = L Lᵀ` of an SPD matrix.
///
/// ```
/// use tomo_linalg::{Matrix, Vector, cholesky::Cholesky};
///
/// # fn main() -> Result<(), tomo_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]])?;
/// let chol = Cholesky::new(&a)?;
/// let x = chol.solve(&Vector::from(vec![8.0, 7.0]))?;
/// let b = a.mul_vec(&x)?;
/// assert!(b.approx_eq(&Vector::from(vec![8.0, 7.0]), 1e-10));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// Lower-triangular factor (entries above the diagonal are zero).
    l: Matrix,
}

impl Cholesky {
    /// Factorizes a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; symmetry of the upper
    /// triangle is assumed, matching the usual LAPACK convention.
    ///
    /// The kernel is a cache-blocked right-looking factorization. Entry
    /// `(i, j)` of the factor is `(a[i][j] - Σ_{k<j} l[i][k]·l[j][k]) /
    /// l[j][j]`, with the subtractions applied one term at a time in
    /// ascending `k`, exactly as the textbook column loop applies them:
    /// earlier panels' terms land during each panel's trailing update
    /// (ascending `k` within the panel, panels ascending), the current
    /// panel's terms inside the panel sweep. Every entry therefore sees
    /// the textbook sequence of f64 operations and the factor matches
    /// that loop bit for bit (`tests/kernel_parity.rs` keeps it as the
    /// reference). What blocking buys is locality (the trailing update
    /// touches only a `BLOCK`-wide strip of each operand row) and
    /// instruction-level parallelism (four independent accumulator
    /// chains share one cached row strip).
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] if `a` is not square.
    /// * [`LinalgError::NotPositiveDefinite`] if a diagonal pivot is
    ///   non-positive (within a relative tolerance).
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { dims: a.shape() });
        }
        let _timer = FACTOR_SECONDS.start_timer();
        let n = a.rows();
        let tol = 1e-12 * (1.0 + a.max_abs());
        let mut l = Matrix::zeros(n, n);
        // Seed the lower triangle with `a`; updates subtract in place.
        for i in 0..n {
            l.as_mut_slice()[i * n..i * n + i + 1].copy_from_slice(&a.row(i)[..=i]);
        }
        let mut strip = [0.0f64; BLOCK];
        let mut kb = 0;
        while kb < n {
            let ke = (kb + BLOCK).min(n);
            // Panel sweep: columns kb..ke over all rows below, applying
            // only the in-panel terms k ∈ [kb, j) — earlier terms were
            // already subtracted by previous trailing updates.
            {
                let d = l.as_mut_slice();
                for j in kb..ke {
                    let mut diag = d[j * n + j];
                    for k in kb..j {
                        let v = d[j * n + k];
                        diag -= v * v;
                    }
                    if diag <= tol {
                        return Err(LinalgError::NotPositiveDefinite { index: j });
                    }
                    let ljj = diag.sqrt();
                    d[j * n + j] = ljj;
                    for i in (j + 1)..n {
                        let mut v = d[i * n + j];
                        for k in kb..j {
                            v -= d[i * n + k] * d[j * n + k];
                        }
                        d[i * n + j] = v / ljj;
                    }
                }
            }
            // Trailing update: subtract this panel's terms (k ascending
            // in kb..ke) from every entry (i, j) with ke <= j <= i.
            let bs = ke - kb;
            let d = l.as_mut_slice();
            for i in ke..n {
                let (lo, hi) = d.split_at_mut(i * n);
                let ri = &mut hi[..n];
                strip[..bs].copy_from_slice(&ri[kb..ke]);
                let li = &strip[..bs];
                let mut j = ke;
                // Four independent subtraction chains share `li`.
                while j + 4 <= i {
                    let p0 = &lo[j * n + kb..j * n + ke];
                    let p1 = &lo[(j + 1) * n + kb..(j + 1) * n + ke];
                    let p2 = &lo[(j + 2) * n + kb..(j + 2) * n + ke];
                    let p3 = &lo[(j + 3) * n + kb..(j + 3) * n + ke];
                    let (mut v0, mut v1, mut v2, mut v3) = (ri[j], ri[j + 1], ri[j + 2], ri[j + 3]);
                    for k in 0..bs {
                        let a = li[k];
                        v0 -= a * p0[k];
                        v1 -= a * p1[k];
                        v2 -= a * p2[k];
                        v3 -= a * p3[k];
                    }
                    ri[j] = v0;
                    ri[j + 1] = v1;
                    ri[j + 2] = v2;
                    ri[j + 3] = v3;
                    j += 4;
                }
                while j < i {
                    let pj = &lo[j * n + kb..j * n + ke];
                    let mut v = ri[j];
                    for k in 0..bs {
                        v -= li[k] * pj[k];
                    }
                    ri[j] = v;
                    j += 1;
                }
                // Diagonal entry: the operand row is row i itself.
                let mut v = ri[i];
                for &a in li {
                    v -= a * a;
                }
                ri[i] = v;
            }
            kb = ke;
        }
        Ok(Cholesky { l })
    }

    /// Dimension of the factorized matrix.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Borrows the lower-triangular factor `L`.
    #[must_use]
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A x = b` via forward/back substitution.
    ///
    /// Bit-identical to the textbook loops: row `i` of the forward sweep
    /// computes `(b[i] − L[i][0]·z[0] − … − L[i][i−1]·z[i−1]) / L[i][i]`
    /// left to right, and row `i` of the backward sweep computes
    /// `(z[i] − L[i+1][i]·x[i+1] − … − L[n−1][i]·x[n−1]) / L[i][i]` in
    /// that order. The forward sweep runs four rows `i0..i0+4` side by
    /// side: they share one pass over the solved prefix `z[..i0]`, each
    /// keeping its own chain, then finish their in-block terms in order.
    /// Each backward row needs the `x` just solved, so that sweep stays
    /// one dependent chain; it only walks the factor's rows as slices
    /// instead of indexing the matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve(&self, b: &Vector) -> Result<Vector, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky_solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        let l = self.l.as_slice();
        let mut out = b.clone();
        let x = out.as_mut_slice();
        // Forward: L z = b.
        let mut i = 0;
        while i + 4 <= n {
            let (r0, rest) = l[i * n..(i + 4) * n].split_at(n);
            let (r1, rest) = rest.split_at(n);
            let (r2, r3) = rest.split_at(n);
            let (solved, block) = x.split_at_mut(i);
            let (p0, p1, p2, p3) = (&r0[..i], &r1[..i], &r2[..i], &r3[..i]);
            let (mut s0, mut s1, mut s2, mut s3) = (block[0], block[1], block[2], block[3]);
            for (j, &xj) in solved.iter().enumerate() {
                s0 -= p0[j] * xj;
                s1 -= p1[j] * xj;
                s2 -= p2[j] * xj;
                s3 -= p3[j] * xj;
            }
            let z0 = s0 / r0[i];
            s1 -= r1[i] * z0;
            let z1 = s1 / r1[i + 1];
            s2 -= r2[i] * z0;
            s2 -= r2[i + 1] * z1;
            let z2 = s2 / r2[i + 2];
            s3 -= r3[i] * z0;
            s3 -= r3[i + 1] * z1;
            s3 -= r3[i + 2] * z2;
            let z3 = s3 / r3[i + 3];
            block[..4].copy_from_slice(&[z0, z1, z2, z3]);
            i += 4;
        }
        while i < n {
            let row = &l[i * n..=i * n + i];
            let (solved, rest) = x.split_at_mut(i);
            let mut sum = rest[0];
            for (&a, &xj) in row.iter().zip(solved.iter()) {
                sum -= a * xj;
            }
            rest[0] = sum / row[i];
            i += 1;
        }
        // Backward: Lᵀ x = z, down column i of L below the diagonal.
        for i in (0..n).rev() {
            let (head, solved) = x.split_at_mut(i + 1);
            let mut sum = head[i];
            for (row, &xj) in l[(i + 1) * n..].chunks_exact(n).zip(solved.iter()) {
                sum -= row[i] * xj;
            }
            head[i] = sum / l[i * n + i];
        }
        Ok(out)
    }

    /// Determinant of the factorized matrix (product of squared pivots).
    #[must_use]
    pub fn det(&self) -> f64 {
        let mut det = 1.0;
        for i in 0..self.dim() {
            det *= self.l[(i, i)] * self.l[(i, i)];
        }
        det
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn spd() -> Matrix {
        // Gram matrix of a full-column-rank matrix is SPD.
        let r = Matrix::from_rows(&[
            vec![1.0, 0.0, 1.0],
            vec![0.0, 1.0, 1.0],
            vec![1.0, 1.0, 0.0],
            vec![1.0, 1.0, 1.0],
        ])
        .unwrap();
        r.gram()
    }

    #[test]
    fn factor_reconstructs_matrix() {
        let a = spd();
        let chol = Cholesky::new(&a).unwrap();
        let l = chol.l();
        let recon = l.mul_mat(&l.transpose()).unwrap();
        assert!(recon.approx_eq(&a, 1e-10));
    }

    #[test]
    fn solve_matches_lu() {
        let a = spd();
        let b = Vector::from(vec![1.0, 2.0, 3.0]);
        let x_chol = Cholesky::new(&a).unwrap().solve(&b).unwrap();
        let x_lu = crate::lu::solve(&a, &b).unwrap();
        assert!(x_chol.approx_eq(&x_lu, 1e-9));
    }

    #[test]
    fn rejects_non_spd() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]).unwrap();
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_non_square() {
        assert!(matches!(
            Cholesky::new(&Matrix::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn rejects_singular_gram() {
        // Rank-deficient R gives a singular (PSD, not PD) Gram matrix.
        let r = Matrix::from_rows(&[vec![1.0, 1.0], vec![2.0, 2.0]]).unwrap();
        assert!(Cholesky::new(&r.gram()).is_err());
    }

    #[test]
    fn det_matches_lu() {
        let a = spd();
        let chol_det = Cholesky::new(&a).unwrap().det();
        let lu_det = crate::lu::Lu::new(&a).unwrap().det();
        assert!((chol_det - lu_det).abs() < 1e-8 * lu_det.abs().max(1.0));
    }

    #[test]
    fn solving_unit_columns_gives_inverse() {
        let a = spd();
        let chol = Cholesky::new(&a).unwrap();
        for j in 0..3 {
            let mut e = Vector::zeros(3);
            e[j] = 1.0;
            let col = chol.solve(&e).unwrap();
            assert!(a.mul_vec(&col).unwrap().approx_eq(&e, 1e-9), "column {j}");
        }
    }

    #[test]
    fn solve_rejects_wrong_length() {
        let chol = Cholesky::new(&spd()).unwrap();
        assert!(chol.solve(&Vector::zeros(2)).is_err());
    }

    /// A deterministic SPD matrix of dimension `n`.
    fn big_spd(n: usize) -> Matrix {
        let r = Matrix::from_fn(n + 7, n, |i, j| {
            let v = ((i * 37 + j * 11) as f64).sin();
            if i == j {
                v + 4.0
            } else {
                v
            }
        });
        r.gram()
    }

    /// The textbook column-by-column factorization, the bit-for-bit
    /// reference of the blocked kernel in [`Cholesky::new`]; the failing
    /// pivot's index on error.
    fn textbook_factor(a: &Matrix) -> Result<Matrix, usize> {
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        let tol = 1e-12 * (1.0 + a.max_abs());
        for j in 0..n {
            let mut diag = a[(j, j)];
            for k in 0..j {
                diag -= l[(j, k)] * l[(j, k)];
            }
            if diag <= tol {
                return Err(j);
            }
            let ljj = diag.sqrt();
            l[(j, j)] = ljj;
            for i in (j + 1)..n {
                let mut v = a[(i, j)];
                for k in 0..j {
                    v -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = v / ljj;
            }
        }
        Ok(l)
    }

    #[test]
    fn factor_matches_textbook_loop_bitwise() {
        // Inside one panel, at a panel edge, and two panels plus a
        // ragged tail.
        for n in [BLOCK - 1, BLOCK, 2 * BLOCK + 41] {
            let a = big_spd(n);
            let want = textbook_factor(&a).unwrap();
            let got = Cholesky::new(&a).unwrap();
            for (x, y) in got.l().as_slice().iter().zip(want.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "n = {n}");
            }
        }
    }

    /// The textbook substitution loops [`Cholesky::solve`] replaced, kept
    /// as its bit-for-bit reference.
    fn textbook_solve(l: &Matrix, b: &Vector) -> Vector {
        let n = l.rows();
        let mut x = b.clone();
        for i in 0..n {
            let mut sum = x[i];
            for j in 0..i {
                sum -= l[(i, j)] * x[j];
            }
            x[i] = sum / l[(i, i)];
        }
        for i in (0..n).rev() {
            let mut sum = x[i];
            for j in (i + 1)..n {
                sum -= l[(j, i)] * x[j];
            }
            x[i] = sum / l[(i, i)];
        }
        x
    }

    /// A full-column-rank 0/1 routing-like matrix with `n` columns: a
    /// unit lower-triangular block (random 0/1 below the diagonal) plus
    /// up to `n` random 0/1 rows, shuffled.
    fn random_routing(rng: &mut ChaCha8Rng, n: usize) -> Matrix {
        let bit = |rng: &mut ChaCha8Rng| if rng.gen_bool(0.4) { 1.0 } else { 0.0 };
        let mut rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let mut row: Vec<f64> = (0..i).map(|_| bit(rng)).collect();
                row.push(1.0);
                row.resize(n, 0.0);
                row
            })
            .collect();
        for _ in 0..rng.gen_range(0..=n) {
            rows.push((0..n).map(|_| bit(rng)).collect());
        }
        rows.shuffle(rng);
        Matrix::from_rows(&rows).unwrap()
    }

    /// `solve` on the Gram of `r` against the textbook loops, bit for
    /// bit, for a random right-hand side.
    fn check_solves_match_textbook(rng: &mut ChaCha8Rng, r: &Matrix) {
        let n = r.cols();
        let chol = Cholesky::new(&r.gram()).unwrap();
        let b: Vector = (0..n).map(|_| rng.gen_range(-50.0..100.0)).collect();
        let want = textbook_solve(chol.l(), &b);
        let got = chol.solve(&b).unwrap();
        for (g, w) in got.iter().zip(want.iter()) {
            assert_eq!(g.to_bits(), w.to_bits(), "solve differs at n = {n}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Small systems, every residue of `n mod 4` for the four-row
        /// forward blocks.
        #[test]
        fn solve_matches_textbook_loops(seed in 0u64..100_000) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let n = rng.gen_range(1usize..=13);
            let r = random_routing(&mut rng, n);
            check_solves_match_textbook(&mut rng, &r);
        }
    }

    #[test]
    fn blocked_factor_solve_matches_textbook_loops() {
        // 131 columns: two panels plus a tail, and 131 mod 4 = 3, so the
        // forward sweep ends on a ragged tail.
        let mut rng = ChaCha8Rng::seed_from_u64(131);
        let r = random_routing(&mut rng, 2 * BLOCK + 3);
        check_solves_match_textbook(&mut rng, &r);
    }

    #[test]
    fn rejects_non_spd_at_the_textbook_pivot() {
        // Rank-deficient Gram (duplicate columns) fails at the pivot the
        // textbook loop fails at: the per-entry subtraction chains are
        // identical, so the failing diagonal value is too. Column 130
        // duplicates column 7, so the failure surfaces past two panel
        // boundaries.
        let n = 2 * BLOCK + 9;
        let r = Matrix::from_fn(n, n, |i, j| {
            let jj = if j == 130 { 7 } else { j };
            ((i * jj + 5 * i + 2 * jj) as f64).sin()
        });
        let a = r.gram();
        let want = textbook_factor(&a).unwrap_err();
        match Cholesky::new(&a).unwrap_err() {
            LinalgError::NotPositiveDefinite { index } => assert_eq!(index, want),
            other => panic!("expected NotPositiveDefinite, got {other:?}"),
        }
    }
}
