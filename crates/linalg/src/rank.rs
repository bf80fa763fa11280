//! Numerical rank utilities.
//!
//! Identifiability in network tomography requires the routing matrix `R` to
//! have full column rank (Section II-B of the paper). Measurement-path
//! selection builds `R` one path (row) at a time, so alongside the one-shot
//! numerical [`rank`] function this module provides [`SparseRank`], which
//! answers "does adding this 0/1 row increase the rank?" exactly, by sparse
//! elimination modulo a large prime.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::qr::PivotedQr;
use crate::Matrix;

/// Numerical rank of a matrix via column-pivoted QR with the default
/// tolerance.
///
/// ```
/// use tomo_linalg::{rank, Matrix};
/// let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
/// assert_eq!(rank::rank(&a), 1);
/// ```
#[must_use]
pub fn rank(a: &Matrix) -> usize {
    PivotedQr::new(a).rank()
}

/// Numerical rank with an explicit tolerance.
#[must_use]
pub fn rank_with_tol(a: &Matrix, tol: f64) -> usize {
    PivotedQr::with_tol(a, tol).rank()
}

/// The Mersenne prime `2^61 − 1`, modulus of [`SparseRank`]'s arithmetic.
const P: u64 = (1 << 61) - 1;

fn add_mod(a: u64, b: u64) -> u64 {
    let s = a + b;
    if s >= P {
        s - P
    } else {
        s
    }
}

fn mul_mod(a: u64, b: u64) -> u64 {
    // 2^61 ≡ 1 (mod P): fold the high bits of the 122-bit product onto
    // the low 61.
    let x = u128::from(a) * u128::from(b);
    add_mod((x as u64) & P, (x >> 61) as u64)
}

fn inv_mod(a: u64) -> u64 {
    // Fermat: a^(P−2) = a⁻¹ for a ≠ 0.
    let (mut base, mut exp, mut acc) = (a, P - 2, 1);
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base);
        }
        base = mul_mod(base, base);
        exp >>= 1;
    }
    acc
}

/// Exact incremental rank of a growing set of 0/1 rows, each given by
/// the columns where it is 1 (a measurement path's link indices).
///
/// Keeps a sparse row-echelon basis over GF(p), `p = 2^61 − 1`. A row is
/// reduced in ascending column order (a min-heap of touched columns, a
/// pivot-column → basis-row map); one that does not vanish joins the
/// basis, led by its first surviving column.
///
/// **Guarantee (one-sided).** An accepted row is independent of the
/// accepted rows over ℚ: an integer dependency can be scaled to coprime
/// coefficients, which cannot all vanish mod `p`, so it would survive
/// reduction mod `p`. The converse can fail only if `p` divides a minor
/// of the row set; no shipped input does (`tests/placement_golden.rs`
/// pins every placement the artifacts build).
///
/// ```
/// use tomo_linalg::rank::SparseRank;
///
/// let mut tracker = SparseRank::new(3);
/// assert!(tracker.try_add([0, 2]));
/// assert!(tracker.try_add([1]));
/// // Dependent on the first two: rejected.
/// assert!(!tracker.try_add([0, 1, 2]));
/// assert_eq!(tracker.rank(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct SparseRank {
    /// `pivot[c]` = index into `rows` of the basis row leading at `c`.
    pivot: Vec<Option<usize>>,
    /// Basis rows normalized to a leading 1, stored without it: the
    /// `(column, value)` entries right of the pivot, ascending.
    rows: Vec<Vec<(usize, u64)>>,
    /// Dense accumulator of the row being reduced; zero between calls.
    acc: Vec<u64>,
    /// Min-heap holding every nonzero column of `acc` (plus, rarely, a
    /// repeat or a column that cancelled to zero; both are skipped when
    /// popped); empty between calls.
    heap: BinaryHeap<Reverse<usize>>,
}

impl SparseRank {
    /// Creates a tracker for rows over `dim` columns.
    #[must_use]
    pub fn new(dim: usize) -> Self {
        SparseRank {
            pivot: vec![None; dim],
            rows: Vec::new(),
            acc: vec![0; dim],
            heap: BinaryHeap::new(),
        }
    }

    /// Current rank (number of accepted independent rows).
    #[must_use]
    pub fn rank(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` once the accepted rows span every column.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.rows.len() == self.pivot.len()
    }

    /// Checks whether the row with ones at `support` is independent of
    /// the accepted rows, leaving the basis unchanged.
    ///
    /// # Panics
    ///
    /// Panics if a column index is out of range.
    pub fn would_increase(&mut self, support: impl IntoIterator<Item = usize>) -> bool {
        let independent = self.reduce(support).is_some();
        self.drain(|_, _| {});
        independent
    }

    /// Adds the row with ones at `support` (a repeated column counts
    /// once per occurrence); returns `true`, and increases the rank, iff
    /// it is independent of the rows accepted so far.
    ///
    /// # Panics
    ///
    /// Panics if a column index is out of range.
    pub fn try_add(&mut self, support: impl IntoIterator<Item = usize>) -> bool {
        let Some(lead) = self.reduce(support) else {
            return false;
        };
        let scale = inv_mod(self.acc[lead]);
        let mut row = Vec::new();
        self.drain(|c, v| {
            if c != lead {
                row.push((c, mul_mod(v, scale)));
            }
        });
        self.pivot[lead] = Some(self.rows.len());
        self.rows.push(row);
        true
    }

    /// `acc[c] += x`, queueing `c` unless it is already nonzero (and so
    /// already queued).
    fn push(&mut self, c: usize, x: u64) {
        if self.acc[c] == 0 {
            self.heap.push(Reverse(c));
        }
        self.acc[c] = add_mod(self.acc[c], x);
    }

    /// Loads the row into the accumulator and eliminates basis pivots in
    /// ascending column order. Returns the leading column of the nonzero
    /// remainder (left in `acc`/`heap` for [`Self::drain`]), or `None`
    /// if the row reduced to zero (scratch already clean).
    fn reduce(&mut self, support: impl IntoIterator<Item = usize>) -> Option<usize> {
        for c in support {
            assert!(
                c < self.pivot.len(),
                "column {c} out of range for tracker dimension {}",
                self.pivot.len()
            );
            self.push(c, 1);
        }
        while let Some(&Reverse(c)) = self.heap.peek() {
            let v = self.acc[c];
            match self.pivot[c] {
                None if v != 0 => return Some(c),
                Some(r) if v != 0 => {
                    // acc −= v·row. The row's entries lie right of the
                    // pivot, so every column pushed here stays behind `c`.
                    self.acc[c] = 0;
                    for i in 0..self.rows[r].len() {
                        let (col, val) = self.rows[r][i];
                        self.push(col, mul_mod(P - v, val));
                    }
                }
                _ => {}
            }
            self.heap.pop();
        }
        None
    }

    /// Empties the heap in ascending column order, handing each nonzero
    /// accumulator entry to `f` and zeroing the scratch.
    fn drain(&mut self, mut f: impl FnMut(usize, u64)) {
        while let Some(Reverse(c)) = self.heap.pop() {
            let v = std::mem::take(&mut self.acc[c]);
            if v != 0 {
                f(c, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn rank_of_identity_and_zero() {
        assert_eq!(rank(&Matrix::identity(5)), 5);
        assert_eq!(rank(&Matrix::zeros(4, 3)), 0);
    }

    #[test]
    fn rank_counts_duplicate_columns_once() {
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0], vec![0.0, 0.0]]).unwrap();
        assert_eq!(rank(&a), 1);
    }

    #[test]
    fn rank_is_transpose_invariant_on_samples() {
        let a = Matrix::from_rows(&[
            vec![1.0, 0.0, 1.0, 0.0],
            vec![0.0, 1.0, 1.0, 0.0],
            vec![1.0, 1.0, 2.0, 0.0],
        ])
        .unwrap();
        assert_eq!(rank(&a), 2);
        assert_eq!(rank(&a.transpose()), 2);
    }

    #[test]
    fn field_arithmetic() {
        assert_eq!(mul_mod(P - 1, P - 1), 1, "(−1)·(−1) = 1");
        assert_eq!(add_mod(P - 1, 1), 0);
        for a in [1, 2, 3, 12_345, P - 2, P - 1, 1 << 60] {
            assert_eq!(mul_mod(a, inv_mod(a)), 1, "a = {a}");
        }
    }

    #[test]
    fn would_increase_does_not_mutate() {
        let mut tracker = SparseRank::new(2);
        assert!(!tracker.try_add([]), "the zero row is dependent");
        assert!(tracker.would_increase([0, 1]));
        assert_eq!(tracker.rank(), 0);
        assert!(tracker.try_add([0, 1]));
        assert!(!tracker.would_increase([1, 0]));
        assert!(tracker.would_increase([1]));
        assert_eq!(tracker.rank(), 1);
    }

    #[test]
    fn dependency_needing_fractions_is_found() {
        // Cycle rows over an odd cycle of 3 columns: e0+e1, e1+e2, e0+e2
        // are independent (determinant 2), and then e0 = ½(r0 − r1 + r2)
        // is dependent even though no 0/1 combination produces it.
        let mut tracker = SparseRank::new(3);
        assert!(tracker.try_add([0, 1]));
        assert!(tracker.try_add([1, 2]));
        assert!(tracker.try_add([0, 2]));
        assert!(tracker.is_full());
        // Nothing can increase a full-rank tracker.
        assert!(!tracker.would_increase([0]));
        let mut two = SparseRank::new(3);
        assert!(two.try_add([0, 1]));
        assert!(two.try_add([1, 2]));
        assert!(!two.would_increase([0, 2, 1, 1]), "r0 + r1 = e0 + 2e1 + e2");
    }

    #[test]
    #[should_panic(expected = "out of range for tracker dimension")]
    fn column_out_of_range_panics() {
        let mut tracker = SparseRank::new(3);
        let _ = tracker.try_add([3]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every accept/reject decision of the tracker agrees with the
        /// batch QR rank of the growing prefix, on random sparse 0/1
        /// rows shaped like routing-matrix rows.
        #[test]
        fn incremental_agrees_with_pivoted_qr(seed in 0u64..1000) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let n = rng.gen_range(2usize..=40);
            let m = rng.gen_range(1usize..=60);
            let density = rng.gen_range(0.05..0.5);
            let mut tracker = SparseRank::new(n);
            let mut rows: Vec<Vec<f64>> = Vec::new();
            let mut prefix_rank = 0;
            for _ in 0..m {
                let row: Vec<f64> = (0..n).map(|_| f64::from(u8::from(rng.gen_bool(density)))).collect();
                let accepted = tracker.try_add((0..n).filter(|&c| row[c] == 1.0));
                rows.push(row);
                let batch = rank(&Matrix::from_rows(&rows).unwrap());
                prop_assert_eq!(accepted, batch > prefix_rank);
                prefix_rank = batch;
                prop_assert_eq!(tracker.rank(), batch);
            }
        }
    }
}
