//! Bit-exact parity between the cache-blocked factorization kernels and
//! their unblocked references, across the blocking threshold.
//!
//! DESIGN.md §5g's contract: blocking is a *scheduling* change, not a
//! numerical one. The blocked right-looking Cholesky applies exactly
//! the same per-entry update terms in the same ascending-`k` order as
//! the unblocked loop, so factors — and everything derived from them
//! (solves, the solver stack's artifacts) — match bit for bit. The
//! in-crate unit tests pin single sizes; these proptests sweep random
//! matrices on both sides of `BLOCK_THRESHOLD` and at the boundary
//! itself, plus the blocked `mul_transpose_self` against an
//! independently coded ascending-row reference.

use proptest::prelude::*;
use rand::Rng as _;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use scapegoat_tomography::linalg::cholesky::{self, Cholesky};
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

/// Sizes straddling the blocking threshold: well below, one below, at,
/// one above, a full block above, and a ragged tail.
fn threshold_sizes(threshold: usize) -> [usize; 6] {
    [
        threshold / 2,
        threshold - 1,
        threshold,
        threshold + 1,
        threshold + 64,
        threshold + 41,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Blocked and unblocked Cholesky produce bit-identical factors and
    /// solves at every size around the threshold; `new` dispatches to
    /// whichever side without changing results.
    #[test]
    fn cholesky_blocked_is_bit_identical(seed in 0u64..1000) {
        for (k, &n) in threshold_sizes(cholesky::BLOCK_THRESHOLD).iter().enumerate() {
            let a = random_spd(n, seed.wrapping_add(k as u64));
            let blocked = Cholesky::factor_blocked(&a).unwrap();
            let unblocked = Cholesky::factor_unblocked(&a).unwrap();
            assert_matrix_bits_eq(blocked.l(), unblocked.l(), "cholesky L");
            let auto = Cholesky::new(&a).unwrap();
            assert_matrix_bits_eq(auto.l(), blocked.l(), "cholesky auto dispatch");
            let b = random_vector(n, seed ^ 0xc0de);
            assert_bits_eq(
                &blocked.solve(&b).unwrap(),
                &unblocked.solve(&b).unwrap(),
                "cholesky solve",
            );
        }
    }

    /// The blocked `mul_transpose_self` (`AᵀA`) matches an independently
    /// coded ascending-row accumulation bit for bit on wide 0/1
    /// routing-like matrices that cross the column threshold.
    #[test]
    fn gram_blocking_matches_naive_reference(seed in 0u64..1000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let rows = rng.gen_range(10..40usize);
        for cols in [
            scapegoat_tomography::linalg::MTS_BLOCK_THRESHOLD - 1,
            scapegoat_tomography::linalg::MTS_BLOCK_THRESHOLD + 37,
        ] {
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
