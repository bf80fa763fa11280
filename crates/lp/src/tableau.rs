//! The dense-tableau basis: all of `B⁻¹A`, `B⁻¹b` and the reduced
//! costs, kept explicitly and updated by Gauss–Jordan pivots.

use crate::form::StandardForm;
use crate::simplex::Basis;
use crate::{LpError, LP_TOL};

pub(crate) struct Tableau {
    /// (m+1) × (ncols+1); last row = reduced costs, last col = rhs.
    t: Vec<Vec<f64>>,
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

impl Basis for Tableau {
    /// Zero-fills one `Vec` per row and scatters each row's terms,
    /// slack, artificial and rhs into it.
    fn new(form: &StandardForm<'_>) -> Self {
        let (m, ncols) = (form.m, form.ncols);
        let mut t = vec![vec![0.0; ncols + 1]; m + 1];
        let mut basis = Vec::with_capacity(m);
        for (r, row) in t.iter_mut().zip(&form.rows) {
            row.for_each_term(|j, a| r[j] += a);
            if let Some((s, a)) = row.slack {
                r[s] = a;
            }
            if let Some(a) = row.artificial {
                r[a] = 1.0;
            }
            r[ncols] = row.rhs;
            basis.push(row.initial_basic());
        }
        Tableau {
            t,
            basis,
            m,
            ncols,
            col: 0,
            row: 0,
            nz: Vec::new(),
        }
    }

    fn basic(&self) -> &[usize] {
        &self.basis
    }

    /// Installs a cost row and eliminates basic-variable costs.
    fn install_costs(&mut self, costs: &[f64]) {
        let n = self.ncols;
        let (body, cost) = self.t.split_at_mut(self.m);
        let cost_row = &mut cost[0];
        cost_row[..n].copy_from_slice(&costs[..n]);
        cost_row[n] = 0.0;
        for (i, row_i) in body.iter().enumerate() {
            let b = self.basis[i];
            let cb = cost_row[b];
            if cb != 0.0 {
                for (c, &a) in cost_row.iter_mut().zip(row_i.iter()) {
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
        self.t[self.m][j]
    }

    fn load_column(&mut self, q: usize) {
        self.col = q;
    }

    fn column_entry(&self, i: usize) -> f64 {
        self.t[i][self.col]
    }

    fn load_row(&mut self, i: usize) {
        self.row = i;
    }

    fn row_entry(&self, j: usize) -> f64 {
        self.t[self.row][j]
    }

    fn value(&self, i: usize) -> f64 {
        self.t[i][self.ncols]
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
        let pivot = self.t[row][col];
        debug_assert!(pivot.abs() > LP_TOL, "pivot too small: {pivot}");
        let inv = 1.0 / pivot;
        self.nz.clear();
        for (j, v) in self.t[row].iter_mut().enumerate() {
            *v *= inv;
            if *v != 0.0 {
                self.nz.push((j, *v));
            }
        }
        for (i, r) in self.t.iter_mut().enumerate() {
            let factor = r[col];
            if i == row || factor == 0.0 {
                continue;
            }
            for &(j, p) in &self.nz {
                r[j] -= factor * p;
            }
            // Kill residual round-off in the pivot column.
            r[col] = 0.0;
        }
        self.basis[row] = col;
        Ok(())
    }

    /// Minus the cost row's rhs.
    fn phase1_objective(&self) -> f64 {
        -self.t[self.m][self.ncols]
    }
}

#[cfg(test)]
mod tests {
    use super::Tableau;
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// Random tableaux seeded with zeros and negated zeros, then a
        /// random run of valid pivots: after each one, every cell equals
        /// the dense-row elimination's bit for bit, or both are zero.
        #[test]
        fn sparse_row_pivot_matches_dense_row_elimination(seed in 0u64..100_000) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let m = rng.gen_range(1usize..=8);
            let ncols = rng.gen_range(1usize..=10);
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
            let mut tab = Tableau {
                t,
                basis: vec![0; m],
                m,
                ncols,
                col: 0,
                row: 0,
                nz: Vec::new(),
            };
            for _ in 0..rng.gen_range(1..=12) {
                let valid: Vec<(usize, usize)> = (0..m)
                    .flat_map(|i| (0..ncols).map(move |j| (i, j)))
                    .filter(|&(i, j)| tab.t[i][j].abs() > LP_TOL)
                    .collect();
                let Some(&(row, col)) = valid.choose(&mut rng) else {
                    break;
                };
                tab.pivot(row, col).unwrap();
                dense_row_pivot(&mut reference, row, col);
                prop_assert_eq!(tab.basis[row], col);
                for (got, want) in tab.t.iter().flatten().zip(reference.iter().flatten()) {
                    prop_assert!(
                        got.to_bits() == want.to_bits() || (*got == 0.0 && *want == 0.0),
                        "pivot ({}, {}): {} vs dense-row {}", row, col, got, want
                    );
                }
            }
        }
    }
}
