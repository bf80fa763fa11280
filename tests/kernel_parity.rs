//! Bit-exact parity between the cache-blocked factorization kernels and
//! the textbook loops they replaced, kept here as test-local references.
//!
//! DESIGN.md §5g's contract: blocking is a *scheduling* change, not a
//! numerical one. The blocked right-looking Cholesky applies exactly
//! the same per-entry update terms in the same ascending-`k` order as
//! the textbook column loop, so factors — and everything derived from
//! them (solves, the solver stack's artifacts) — match bit for bit.
//! These proptests sweep random matrices inside one panel, at panel
//! edges and across several panels with a ragged tail, plus the tiled
//! `mul_transpose_self` against an independently coded ascending-row
//! reference on one and several column strips.

use proptest::prelude::*;
use rand::Rng as _;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use scapegoat_tomography::linalg::cholesky::{Cholesky, BLOCK};
use scapegoat_tomography::linalg::{Matrix, Vector};

/// A dense symmetric positive-definite matrix with non-separable entries
/// (a separable generator like `sin(αi+βj)` is rank 2 and defeats the
/// test) and a dominant diagonal.
fn random_spd(n: usize, seed: u64) -> Matrix {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let jitter: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..2.0)).collect();
    Matrix::from_fn(n, n, |i, j| {
        let (a, b) = (i.min(j), i.max(j));
        let off = ((a * b + 3 * a + 7 * b) as f64).sin();
        if i == j {
            off + n as f64 * jitter[i]
        } else {
            off
        }
    })
}

fn random_vector(n: usize, seed: u64) -> Vector {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-10.0..10.0)).collect()
}

fn assert_matrix_bits_eq(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: flat entry {i} differs ({x:e} vs {y:e})"
        );
    }
}

fn assert_bits_eq(a: &Vector, b: &Vector, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: component {i} differs");
    }
}

/// The textbook column-by-column Cholesky factor of an SPD matrix.
fn textbook_factor(a: &Matrix) -> Matrix {
    let n = a.rows();
    let mut l = Matrix::zeros(n, n);
    for j in 0..n {
        let mut diag = a[(j, j)];
        for k in 0..j {
            diag -= l[(j, k)] * l[(j, k)];
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
    l
}

/// The textbook forward/back substitution on a lower-triangular factor.
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

/// Sizes around the panel width: inside one panel, one below, at and
/// one above a panel edge, two full panels, and two panels plus a
/// ragged tail.
fn panel_sizes() -> [usize; 6] {
    [
        BLOCK / 2,
        BLOCK - 1,
        BLOCK,
        BLOCK + 1,
        2 * BLOCK,
        2 * BLOCK + 41,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The blocked Cholesky produces the textbook loop's factor and
    /// solves, bit for bit, at every size around the panel width.
    #[test]
    fn cholesky_blocked_is_bit_identical(seed in 0u64..1000) {
        for (k, &n) in panel_sizes().iter().enumerate() {
            let a = random_spd(n, seed.wrapping_add(k as u64));
            let reference = textbook_factor(&a);
            let chol = Cholesky::new(&a).unwrap();
            assert_matrix_bits_eq(chol.l(), &reference, "cholesky L");
            let b = random_vector(n, seed ^ 0xc0de);
            assert_bits_eq(
                &chol.solve(&b).unwrap(),
                &textbook_solve(&reference, &b),
                "cholesky solve",
            );
        }
    }

    /// The tiled `mul_transpose_self` (`AᵀA`) matches an independently
    /// coded ascending-row accumulation bit for bit on 0/1
    /// routing-like matrices one 128-column strip wide and several
    /// strips wide.
    #[test]
    fn gram_blocking_matches_naive_reference(seed in 0u64..1000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let rows = rng.gen_range(10..40usize);
        for cols in [127, 255, 293] {
            let a = Matrix::from_fn(rows, cols, |i, j| {
                // ~25% dense 0/1 pattern, deterministic per (i, j).
                u64::from((i * 31 + j * 17 + seed as usize).is_multiple_of(4)) as f64
            });
            let gram = a.mul_transpose_self();
            let reference = Matrix::from_fn(cols, cols, |i, j| {
                let mut acc = 0.0;
                for r in 0..rows {
                    acc += a[(r, i)] * a[(r, j)];
                }
                acc
            });
            assert_matrix_bits_eq(&gram, &reference, "mul_transpose_self");
        }
    }
}
