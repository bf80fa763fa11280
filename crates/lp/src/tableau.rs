//! The dense-tableau basis: all of `B⁻¹A`, `B⁻¹b` and the reduced
//! costs, kept explicitly and updated by Gauss–Jordan pivots.
//!
//! The `(m+1) × (ncols+1)` tableau is stored row-major in blocks of at
//! most [`BLOCK_CELLS`] cells, a power-of-two number of whole rows to a
//! block, so a typical attack LP is one contiguous block. When a tableau
//! is dropped, its thread keeps the basis, the pivot scratch and, if the
//! tableau was one block, that block for its next dense solve (see
//! [`crate::reuse`]); every other block is freed.

use std::cell::Cell;

use crate::form::StandardForm;
use crate::reuse::{self, KEEP_BYTES};
use crate::simplex::Basis;
use crate::{LpError, LP_TOL};

/// Cells in one storage block at most: 128,000 bytes, the most a thread
/// keeps in one buffer. It is also under glibc's default 128 KiB mmap
/// threshold, so a block is served from the heap, and freeing one never
/// raises that threshold (which would make glibc keep freed memory for
/// the rest of the run). A row wider than this gets a block of its own,
/// which is never kept.
const BLOCK_CELLS: usize = KEEP_BYTES / std::mem::size_of::<f64>();

/// What a thread keeps of its last dense solve for the next one.
#[derive(Default)]
struct Spare {
    /// At most one block: the last tableau's, if it had only one.
    blocks: Vec<Vec<f64>>,
    basis: Vec<usize>,
    nz: Vec<(usize, f64)>,
}

thread_local! {
    static SPARE: Cell<Option<Spare>> = const { Cell::new(None) };
}

pub(crate) struct Tableau {
    /// Rows `0..m` of the constraints then the reduced-cost row `m`,
    /// `1 << shift` rows to a block (the last block holds the rest),
    /// each row `width = ncols + 1` cells with the rhs last.
    blocks: Vec<Vec<f64>>,
    /// log₂ of the rows in a full block.
    shift: u32,
    width: usize,
    /// Basis: for each of the m rows, the column index of its basic variable.
    basis: Vec<usize>,
    m: usize,
    ncols: usize,
    /// The column loaded by [`Basis::load_column`].
    col: usize,
    /// The row loaded by [`Basis::load_row`].
    row: usize,
    /// Scratch for [`Basis::pivot`]: the scaled pivot row's nonzero
    /// `(column, value)` pairs, reused across pivots.
    nz: Vec<(usize, f64)>,
}

impl Tableau {
    /// An `(m+1) × (ncols+1)` tableau of zeros with an empty basis, built
    /// on this thread's spare buffers when it has them.
    fn zeroed(m: usize, ncols: usize) -> Self {
        let width = ncols + 1;
        let shift = (BLOCK_CELLS / width).max(1).ilog2();
        let per_block = 1 << shift;
        let Spare {
            mut blocks,
            basis,
            nz,
        } = reuse::take(&SPARE);
        for b in 0..(m + 1).div_ceil(per_block) {
            let len = (m + 1 - b * per_block).min(per_block) * width;
            match blocks.get_mut(b) {
                // The kept block, emptied by `reuse::kept`.
                Some(block) => block.resize(len, 0.0),
                None => blocks.push(vec![0.0; len]),
            }
        }
        Tableau {
            blocks,
            shift,
            width,
            basis,
            m,
            ncols,
            col: 0,
            row: 0,
            nz,
        }
    }

    /// Index of row `i`'s first cell in its block.
    fn offset(&self, i: usize) -> usize {
        (i & ((1 << self.shift) - 1)) * self.width
    }

    fn cell(&self, i: usize, j: usize) -> f64 {
        debug_assert!(j < self.width);
        self.blocks[i >> self.shift][self.offset(i) + j]
    }

    fn row_mut(&mut self, i: usize) -> &mut [f64] {
        let start = self.offset(i);
        &mut self.blocks[i >> self.shift][start..start + self.width]
    }
}

impl Drop for Tableau {
    /// Hands the basis, the pivot scratch and a one-block tableau's
    /// block to this thread's next dense solve. A tableau of several
    /// blocks is a large LP, whose pivots outweigh its allocations:
    /// keeping its first block would only hold up to 128 KB that the
    /// thread's other allocations could reuse (it raised `mc-fig7`'s
    /// peak RSS by 0.1–0.26 MB), so all its blocks are freed.
    fn drop(&mut self) {
        let mut blocks = std::mem::take(&mut self.blocks);
        if blocks.len() > 1 {
            blocks.clear();
        }
        let kept = blocks.pop().map(reuse::kept).filter(|b| b.capacity() > 0);
        blocks.extend(kept);
        reuse::put(
            &SPARE,
            Spare {
                blocks,
                basis: reuse::kept(std::mem::take(&mut self.basis)),
                nz: reuse::kept(std::mem::take(&mut self.nz)),
            },
        );
    }
}

impl Basis for Tableau {
    /// Zero-fills the tableau and scatters each row's terms, slack,
    /// artificial and rhs into it.
    fn new(form: &StandardForm<'_>) -> Self {
        let (m, ncols) = (form.m, form.ncols);
        let mut tab = Tableau::zeroed(m, ncols);
        for (i, row) in form.rows.iter().enumerate() {
            let r = tab.row_mut(i);
            row.for_each_term(|j, a| r[j] += a);
            if let Some((s, a)) = row.slack {
                r[s] = a;
            }
            if let Some(a) = row.artificial {
                r[a] = 1.0;
            }
            r[ncols] = row.rhs;
            tab.basis.push(row.initial_basic());
        }
        tab
    }

    fn basic(&self) -> &[usize] {
        &self.basis
    }

    /// Installs a cost row and eliminates basic-variable costs.
    fn install_costs(&mut self, costs: &[f64]) {
        let (n, width) = (self.ncols, self.width);
        let cost_start = self.offset(self.m);
        let (last, full) = self
            .blocks
            .split_last_mut()
            .expect("a tableau has at least its cost row");
        let (last_body, cost_row) = last.split_at_mut(cost_start);
        cost_row[..n].copy_from_slice(&costs[..n]);
        cost_row[n] = 0.0;
        let body = full
            .iter()
            .flat_map(|block| block.chunks_exact(width))
            .chain(last_body.chunks_exact(width));
        for (row_i, &b) in body.zip(&self.basis) {
            let cb = cost_row[b];
            if cb != 0.0 {
                for (c, &a) in cost_row.iter_mut().zip(row_i) {
                    *c -= cb * a;
                }
                cost_row[b] = 0.0;
            }
        }
    }

    /// The cost row is kept eliminated by every pivot.
    fn price(&mut self) {}

    /// Every column: a basic column's reduced cost, and its entry in
    /// every row but its own, is exactly `0.0` here, so pricing and the
    /// drive-out pass it over anyway.
    fn eligible(&self, _j: usize) -> bool {
        true
    }

    fn reduced_cost(&self, j: usize) -> f64 {
        self.cell(self.m, j)
    }

    fn load_column(&mut self, q: usize) {
        self.col = q;
    }

    fn column_entry(&self, i: usize) -> f64 {
        self.cell(i, self.col)
    }

    fn load_row(&mut self, i: usize) {
        self.row = i;
    }

    fn row_entry(&self, j: usize) -> f64 {
        self.cell(self.row, j)
    }

    fn value(&self, i: usize) -> f64 {
        self.cell(i, self.ncols)
    }

    /// Gauss–Jordan elimination makes `col` the unit vector of `row`.
    ///
    /// The scaled pivot row's nonzeros are collected once, and every
    /// other row is updated only at those columns, so a pivot costs
    /// rows × (pivot-row nonzeros) multiply-subtracts instead of
    /// rows × columns. Every cell the full-row elimination leaves
    /// nonzero gets the same f64 operations, bit for bit: a zero
    /// pivot-row entry would subtract `factor·0 = ±0`, which leaves any
    /// nonzero cell unchanged. The only cell it could alter is a zero
    /// whose sign it flips (`−0 − (−0) = +0`), and no decision reads a
    /// zero's sign: pricing tests `< −LP_TOL`, the ratio test
    /// `> LP_TOL`, elimination skips rows with `factor == 0.0`,
    /// [`Basis::install_costs`] acts only when `cb != 0.0`, the
    /// artificial drive-out tests `abs() > LP_TOL`, and extracted values
    /// go through `max(0.0)` and then `+= lower`.
    fn pivot(&mut self, row: usize, col: usize) -> Result<(), LpError> {
        let start = self.offset(row);
        let pivot_row = &mut self.blocks[row >> self.shift][start..start + self.width];
        let pivot = pivot_row[col];
        debug_assert!(pivot.abs() > LP_TOL, "pivot too small: {pivot}");
        let inv = 1.0 / pivot;
        self.nz.clear();
        for (j, v) in pivot_row.iter_mut().enumerate() {
            *v *= inv;
            if *v != 0.0 {
                self.nz.push((j, *v));
            }
        }
        let mut i = 0;
        for block in &mut self.blocks {
            for r in block.chunks_exact_mut(self.width) {
                let factor = r[col];
                if i != row && factor != 0.0 {
                    for &(j, p) in &self.nz {
                        r[j] -= factor * p;
                    }
                    // Kill residual round-off in the pivot column.
                    r[col] = 0.0;
                }
                i += 1;
            }
        }
        self.basis[row] = col;
        Ok(())
    }

    /// Minus the cost row's rhs.
    fn phase1_objective(&self) -> f64 {
        -self.cell(self.m, self.ncols)
    }
}

#[cfg(test)]
mod tests {
    use super::{Tableau, BLOCK_CELLS, SPARE};
    use crate::reuse;
    use crate::simplex::Basis;
    use crate::LP_TOL;
    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The dense-row elimination [`Tableau`]'s pivot replaced, kept as
    /// its reference: every other row is updated at every column.
    fn dense_row_pivot(t: &mut [Vec<f64>], row: usize, col: usize) {
        let inv = 1.0 / t[row][col];
        for v in t[row].iter_mut() {
            *v *= inv;
        }
        let pivot_row = t[row].clone();
        for (i, r) in t.iter_mut().enumerate() {
            let factor = r[col];
            if i == row || factor == 0.0 {
                continue;
            }
            for (a, &p) in r.iter_mut().zip(&pivot_row) {
                *a -= factor * p;
            }
            r[col] = 0.0;
        }
    }

    /// A tableau's cells in row order, across its blocks.
    fn cells(tab: &Tableau) -> impl Iterator<Item = &f64> {
        tab.blocks.iter().flatten()
    }

    /// The thread keeps a one-block tableau's block, emptied, with the
    /// basis and pivot scratch, and none of a larger tableau's blocks.
    #[test]
    fn a_thread_keeps_only_a_one_block_tableaus_block() {
        let spare_blocks = || {
            let spare = reuse::take(&SPARE);
            let blocks = spare
                .blocks
                .iter()
                .map(|b| (b.len(), b.capacity()))
                .collect();
            reuse::put(&SPARE, spare);
            blocks
        };
        let mut small = Tableau::zeroed(30, 40);
        small.basis.resize(30, 1);
        assert_eq!(small.blocks.len(), 1);
        drop(small);
        let kept: Vec<(usize, usize)> = spare_blocks();
        assert!(matches!(kept[..], [(0, cap)] if cap >= 31 * 41), "{kept:?}");
        let large = Tableau::zeroed(200, 199);
        assert_eq!(large.blocks.len(), 4);
        drop(large);
        assert_eq!(spare_blocks(), Vec::new());
        let spare = reuse::take(&SPARE);
        assert!(spare.basis.is_empty() && spare.nz.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// Random tableaux seeded with zeros and negated zeros, then a
        /// random run of valid pivots: after each one, every cell equals
        /// the dense-row elimination's bit for bit, or both are zero.
        /// Half the cases are small; the other half have 100–400 columns
        /// and enough rows to span two to four blocks. Every case builds
        /// on whatever spare the previous one left, and its cells must
        /// all start as `+0.0`.
        #[test]
        fn sparse_row_pivot_matches_dense_row_elimination(seed in 0u64..100_000) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let (m, ncols) = if rng.gen_bool(0.5) {
                (rng.gen_range(1usize..=8), rng.gen_range(1usize..=10))
            } else {
                let ncols = rng.gen_range(100usize..=400);
                let per_block = 1 << (BLOCK_CELLS / (ncols + 1)).ilog2();
                (rng.gen_range(per_block..=3 * per_block), ncols)
            };
            let t: Vec<Vec<f64>> = (0..=m)
                .map(|_| {
                    (0..=ncols)
                        .map(|_| match rng.gen_range(0..10) {
                            0..=3 => 0.0,
                            4 => -0.0,
                            5 => rng.gen_range(-1.0..1.0),
                            _ => f64::from(rng.gen_range(-4i32..=4)) / f64::from(rng.gen_range(1i32..=3)),
                        })
                        .collect()
                })
                .collect();
            let mut reference = t.clone();
            let mut tab = Tableau::zeroed(m, ncols);
            prop_assert!(cells(&tab).all(|c| c.to_bits() == 0), "a reused block was not zeroed");
            prop_assert_eq!(cells(&tab).count(), (m + 1) * (ncols + 1));
            if ncols >= 100 {
                prop_assert!(tab.blocks.len() >= 2, "{} rows fit one block", m + 1);
            }
            prop_assert!(tab.blocks.iter().all(|b| b.len() <= BLOCK_CELLS));
            for (i, row) in t.iter().enumerate() {
                tab.row_mut(i).copy_from_slice(row);
            }
            tab.basis.resize(m, 0);
            for _ in 0..rng.gen_range(1..=12) {
                let valid: Vec<(usize, usize)> = (0..m)
                    .flat_map(|i| (0..ncols).map(move |j| (i, j)))
                    .filter(|&(i, j)| tab.cell(i, j).abs() > LP_TOL)
                    .collect();
                let Some(&(row, col)) = valid.choose(&mut rng) else {
                    break;
                };
                tab.pivot(row, col).unwrap();
                dense_row_pivot(&mut reference, row, col);
                prop_assert_eq!(tab.basis[row], col);
                for (got, want) in cells(&tab).zip(reference.iter().flatten()) {
                    prop_assert!(
                        got.to_bits() == want.to_bits() || (*got == 0.0 && *want == 0.0),
                        "pivot ({}, {}): {} vs dense-row {}", row, col, got, want
                    );
                }
            }
        }
    }
}
