//! The revised-simplex basis: a sparse LU factorization of `B` with
//! product-form eta updates.
//!
//! The dense tableau in [`crate::tableau`] holds the entire
//! `(m+1)×(ncols+1)` tableau, and each pivot reads every row's
//! pivot-column entry and scans the full pivot row. At Rocketfuel scale
//! (a 10k-link budget LP is ~10k rows × ~20k columns) that is ~1.6 GB
//! of cells and an unusable solver. This module keeps the constraint
//! matrix as sparse columns and represents the basis inverse
//! implicitly:
//!
//! * a sparse LU factorization of the basis `B` — Gilbert–Peierls
//!   left-looking factorization with partial pivoting (the `cs_lu`
//!   algorithm): per basis column, a DFS over the pattern of `L` finds
//!   the reach, a sparse triangular solve computes the column, and the
//!   largest-magnitude remaining entry becomes the pivot;
//! * product-form *eta* updates per pivot (`B_new = B·E` with `E`
//!   identity except the entering column), applied after the LU solves
//!   in FTRAN and before them (transposed, in reverse) in BTRAN —
//!   the Bartels–Golub-family update discipline;
//! * periodic refactorization every [`REFACTOR_INTERVAL`] etas to bound
//!   eta fill-in and numerical drift, recomputing basic values from
//!   scratch.
//!
//! Every decision — pricing, the ratio test, the phase-1 verdict, the
//! artificial drive-out and the ban — is made by the one driver in
//! [`crate::simplex`] over the one standard form of [`crate::form`]; this
//! module only answers its queries. Reduced costs come from BTRAN
//! instead of tableau elimination, so the two backends are
//! *decision-equivalent* — equal status, equal objective up to solver
//! tolerance — though not bit-identical: tie-breaking among numerically
//! near-equal candidates can pick different (equally optimal) vertices.

use tomo_obs::LazyCounter;

use crate::form::StandardForm;
use crate::simplex::Basis;
use crate::{LpError, LP_TOL};

static REVISED_REFACTORS: LazyCounter = LazyCounter::new("lp.simplex.revised.refactors");
static REVISED_ETAS: LazyCounter = LazyCounter::new("lp.simplex.revised.etas");

/// Refactor the basis after this many product-form eta updates. Each
/// FTRAN/BTRAN applies every outstanding eta, so the interval trades
/// per-iteration eta traffic against refactorization cost; 64 keeps the
/// eta file small while amortizing the (cheap, sparsity-exploiting)
/// factorization over many pivots.
const REFACTOR_INTERVAL: usize = 64;

/// Sparse LU factors of a basis matrix `B` with partial pivoting:
/// `PB = LU` with `L` unit lower triangular. `L` columns store
/// `(original_row, value)` entries whose pivot positions come later;
/// `U` columns store `(pivot_position, value)` entries above the
/// diagonal, with the diagonal kept separately.
struct SparseLu {
    l_cols: Vec<Vec<(usize, f64)>>,
    u_cols: Vec<Vec<(usize, f64)>>,
    diag: Vec<f64>,
    /// `pinv[original_row]` = pivot position of that row.
    pinv: Vec<usize>,
}

impl SparseLu {
    /// Gilbert–Peierls left-looking factorization of the matrix whose
    /// k-th column is `cols[basis[k]]`. Returns `None` when no pivot of
    /// magnitude above [`LP_TOL`] exists for some column (singular
    /// basis).
    fn factor(cols: &[Vec<(usize, f64)>], basis: &[usize]) -> Option<SparseLu> {
        let n = basis.len();
        let mut l_cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        let mut u_cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        let mut diag = vec![0.0; n];
        let mut pinv = vec![usize::MAX; n];
        let mut x = vec![0.0; n];
        let mut visited = vec![false; n];
        let mut topo: Vec<usize> = Vec::with_capacity(16);
        let mut stack: Vec<(usize, usize)> = Vec::with_capacity(16);

        for k in 0..n {
            let bk = &cols[basis[k]];
            // Reach: DFS over the L pattern from the column's nonzeros.
            // Nodes are original row indices; a pivotal row (pinv set)
            // fans out to the rows of its L column. `topo` collects
            // nodes in DFS finish order, so iterating it in reverse
            // processes every updater before the entries it updates.
            topo.clear();
            for &(i0, _) in bk {
                if visited[i0] {
                    continue;
                }
                visited[i0] = true;
                stack.push((i0, 0));
                'dfs: while let Some(&(i, cursor)) = stack.last() {
                    let j = pinv[i];
                    if j != usize::MAX {
                        let kids = &l_cols[j];
                        let mut cur = cursor;
                        while cur < kids.len() {
                            let c = kids[cur].0;
                            cur += 1;
                            if !visited[c] {
                                stack.last_mut().expect("stack nonempty").1 = cur;
                                visited[c] = true;
                                stack.push((c, 0));
                                continue 'dfs;
                            }
                        }
                    }
                    topo.push(i);
                    stack.pop();
                }
            }
            // Sparse triangular solve: x = L⁻¹ (partial) · bk.
            for &(i0, v) in bk {
                x[i0] = v;
            }
            for &i in topo.iter().rev() {
                let j = pinv[i];
                if j == usize::MAX {
                    continue;
                }
                let xj = x[i];
                if xj != 0.0 {
                    for &(r, lv) in &l_cols[j] {
                        x[r] -= lv * xj;
                    }
                }
            }
            // Partial pivot among rows not yet pivotal.
            let mut prow = usize::MAX;
            let mut pval = 0.0;
            for &i in &topo {
                if pinv[i] == usize::MAX {
                    let a = x[i].abs();
                    if a > pval {
                        pval = a;
                        prow = i;
                    }
                }
            }
            if prow == usize::MAX || pval <= LP_TOL {
                return None;
            }
            let d = x[prow];
            diag[k] = d;
            // Gather: pivotal rows become U entries, the rest L entries.
            for &i in &topo {
                let v = x[i];
                x[i] = 0.0;
                visited[i] = false;
                if i == prow || v == 0.0 {
                    continue;
                }
                match pinv[i] {
                    usize::MAX => l_cols[k].push((i, v / d)),
                    j => u_cols[k].push((j, v)),
                }
            }
            pinv[prow] = k;
        }
        Some(SparseLu {
            l_cols,
            u_cols,
            diag,
            pinv,
        })
    }

    /// Solves `B x = b`. `b` is indexed by original row, `x` by basis
    /// position. `scratch` must have length `n`; every slot is written
    /// before being read.
    fn solve(&self, b: &[f64], x: &mut [f64], scratch: &mut [f64]) {
        let n = self.diag.len();
        let z = scratch;
        for (i, &bi) in b.iter().enumerate() {
            z[self.pinv[i]] = bi;
        }
        for k in 0..n {
            let zk = z[k];
            if zk != 0.0 {
                for &(r, lv) in &self.l_cols[k] {
                    z[self.pinv[r]] -= lv * zk;
                }
            }
        }
        for k in (0..n).rev() {
            let xk = z[k] / self.diag[k];
            x[k] = xk;
            if xk != 0.0 {
                for &(j, uv) in &self.u_cols[k] {
                    z[j] -= uv * xk;
                }
            }
        }
    }

    /// Solves `Bᵀ y = c`. `c` is indexed by basis position, `y` by
    /// original row. `scratch` must have length `n`.
    fn solve_transpose(&self, c: &[f64], y: &mut [f64], scratch: &mut [f64]) {
        let n = self.diag.len();
        let v = scratch;
        for k in 0..n {
            let mut s = c[k];
            for &(j, uv) in &self.u_cols[k] {
                s -= uv * v[j];
            }
            v[k] = s / self.diag[k];
        }
        for k in (0..n).rev() {
            let mut s = v[k];
            for &(r, lv) in &self.l_cols[k] {
                s -= lv * v[self.pinv[r]];
            }
            v[k] = s;
        }
        for (i, yi) in y.iter_mut().enumerate() {
            *yi = v[self.pinv[i]];
        }
    }
}

/// One product-form update: after column `q` entered at basis position
/// `r` with FTRAN'd column `α = B⁻¹A_q`, `B_new = B·E` where `E` is
/// identity except column `r` = `α`.
struct Eta {
    r: usize,
    /// Pivot element `α_r`.
    dr: f64,
    /// Off-pivot nonzeros `(position, α_i)`.
    entries: Vec<(usize, f64)>,
}

/// Applies `E_1⁻¹, E_2⁻¹, …` in order to a vector already solved
/// through the LU factors (the FTRAN tail).
fn apply_etas_ftran(etas: &[Eta], w: &mut [f64]) {
    for eta in etas {
        let ur = w[eta.r] / eta.dr;
        if ur != 0.0 {
            for &(i, a) in &eta.entries {
                w[i] -= a * ur;
            }
        }
        w[eta.r] = ur;
    }
}

/// Applies `E_k⁻ᵀ, …, E_1⁻ᵀ` (reverse order) to a vector before the
/// transposed LU solves (the BTRAN head).
fn apply_etas_btran(etas: &[Eta], c: &mut [f64]) {
    for eta in etas.iter().rev() {
        let mut s = c[eta.r];
        for &(i, a) in &eta.entries {
            s -= a * c[i];
        }
        c[eta.r] = s / eta.dr;
    }
}

/// Revised-simplex basis state over the sparse standard form.
pub(crate) struct Revised {
    /// Sparse columns of the full standard-form matrix
    /// `[structural | slacks | artificials]`, entries `(row, value)`
    /// with rows ascending.
    cols: Vec<Vec<(usize, f64)>>,
    /// Normalized right-hand side (all entries ≥ 0).
    rhs: Vec<f64>,
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    lu: SparseLu,
    etas: Vec<Eta>,
    /// Basic values by position: `xb[i]` = value of `basis[i]`.
    /// Updated incrementally per pivot, recomputed at refactorization.
    xb: Vec<f64>,
    /// The installed phase's costs.
    costs: Vec<f64>,
    /// FTRAN'd column of the most recent `load_column`.
    alpha: Vec<f64>,
    /// BTRAN'd multipliers, indexed by original row: `B⁻ᵀc_B` after
    /// `price`, `B⁻ᵀeᵢ` after `load_row`.
    y: Vec<f64>,
    w1: Vec<f64>,
    w2: Vec<f64>,
}

impl Revised {
    /// Refactorizes the current basis from scratch, clearing the eta
    /// file, and recomputes the basic values `xb = B⁻¹ rhs`.
    fn refactor(&mut self) -> Result<(), LpError> {
        REVISED_REFACTORS.inc();
        let rows = self.basis.len();
        self.lu =
            SparseLu::factor(&self.cols, &self.basis).ok_or(LpError::SingularBasis { rows })?;
        self.etas.clear();
        self.lu.solve(&self.rhs, &mut self.xb, &mut self.w1);
        Ok(())
    }
}

impl Basis for Revised {
    /// Builds the sparse columns, leaving out zero terms, in row order.
    fn new(form: &StandardForm<'_>) -> Self {
        let m = form.m;
        let mut cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); form.ncols];
        let mut rhs = vec![0.0; m];
        let mut basis = Vec::with_capacity(m);
        for (i, row) in form.rows.iter().enumerate() {
            row.for_each_term(|j, a| {
                if a != 0.0 {
                    cols[j].push((i, a));
                }
            });
            if let Some((s, a)) = row.slack {
                cols[s].push((i, a));
            }
            if let Some(a) = row.artificial {
                cols[a].push((i, 1.0));
            }
            rhs[i] = row.rhs;
            basis.push(row.initial_basic());
        }
        let mut in_basis = vec![false; form.ncols];
        for &b in &basis {
            in_basis[b] = true;
        }
        let lu = SparseLu::factor(&cols, &basis)
            .expect("initial slack/artificial basis is the identity");
        Revised {
            cols,
            xb: rhs.clone(),
            rhs,
            basis,
            in_basis,
            lu,
            etas: Vec::new(),
            costs: vec![0.0; form.ncols],
            alpha: vec![0.0; m],
            y: vec![0.0; m],
            w1: vec![0.0; m],
            w2: vec![0.0; m],
        }
    }

    fn basic(&self) -> &[usize] {
        &self.basis
    }

    fn install_costs(&mut self, costs: &[f64]) {
        self.costs.copy_from_slice(costs);
    }

    /// BTRAN of the basic costs into `self.y`: the simplex multipliers
    /// `y = B⁻ᵀ c_B`.
    fn price(&mut self) {
        for (wi, &b) in self.w2.iter_mut().zip(&self.basis) {
            *wi = self.costs[b];
        }
        apply_etas_btran(&self.etas, &mut self.w2);
        self.lu.solve_transpose(&self.w2, &mut self.y, &mut self.w1);
    }

    /// Non-basic columns only: a basic column's reduced cost is exactly
    /// zero in the tableau formulation, while BTRAN-computed values
    /// carry round-off.
    fn eligible(&self, j: usize) -> bool {
        !self.in_basis[j]
    }

    fn reduced_cost(&self, j: usize) -> f64 {
        let mut d = self.costs[j];
        for &(i, a) in &self.cols[j] {
            d -= self.y[i] * a;
        }
        d
    }

    /// FTRAN of column `q` into `self.alpha`.
    fn load_column(&mut self, q: usize) {
        self.w2.fill(0.0);
        for &(i, a) in &self.cols[q] {
            self.w2[i] = a;
        }
        self.lu.solve(&self.w2, &mut self.alpha, &mut self.w1);
        apply_etas_ftran(&self.etas, &mut self.alpha);
    }

    fn column_entry(&self, i: usize) -> f64 {
        self.alpha[i]
    }

    /// BTRAN of `eᵢ` into `self.y`, so that row `i` of `B⁻¹A` at column
    /// `j` is `yᵀA_j`.
    fn load_row(&mut self, i: usize) {
        self.w2.fill(0.0);
        self.w2[i] = 1.0;
        apply_etas_btran(&self.etas, &mut self.w2);
        self.lu.solve_transpose(&self.w2, &mut self.y, &mut self.w1);
    }

    fn row_entry(&self, j: usize) -> f64 {
        let mut t = 0.0;
        for &(r, a) in &self.cols[j] {
            t += self.y[r] * a;
        }
        t
    }

    fn value(&self, i: usize) -> f64 {
        self.xb[i]
    }

    /// Column `q` (whose FTRAN is in `self.alpha`) enters at position
    /// `r`. Updates basic values incrementally, records an eta, and
    /// refactorizes when the eta file is full.
    fn pivot(&mut self, r: usize, q: usize) -> Result<(), LpError> {
        let ar = self.alpha[r];
        let theta = self.xb[r].max(0.0) / ar;
        for (i, (xi, &a)) in self.xb.iter_mut().zip(&self.alpha).enumerate() {
            if i != r && a != 0.0 {
                *xi -= a * theta;
            }
        }
        self.xb[r] = theta;
        self.in_basis[self.basis[r]] = false;
        self.basis[r] = q;
        self.in_basis[q] = true;
        let entries: Vec<(usize, f64)> = self
            .alpha
            .iter()
            .enumerate()
            .filter(|&(i, &a)| i != r && a != 0.0)
            .map(|(i, &a)| (i, a))
            .collect();
        self.etas.push(Eta { r, dr: ar, entries });
        REVISED_ETAS.inc();
        if self.etas.len() >= REFACTOR_INTERVAL {
            self.refactor()?;
        }
        Ok(())
    }

    /// `Σ c_B·x_B` under the installed phase-1 costs.
    fn phase1_objective(&self) -> f64 {
        self.basis
            .iter()
            .zip(&self.xb)
            .map(|(&b, &v)| self.costs[b] * v)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LpProblem, Objective, Relation, SolverMode, VarId};

    #[test]
    fn revised_matches_dense_across_family_sweep() {
        // Ge + Eq rows, upper bounds, a phase-1 requirement, swept
        // across rhs values — both backends
        // must agree on status and objective at every step.
        for step in 0..20 {
            let demand = 4.0 + f64::from(step) * 1.7;
            let mut lp = LpProblem::new(Objective::Minimize);
            let x = lp.add_variable(0.0, Some(100.0)).unwrap();
            let y = lp.add_variable(0.0, Some(100.0)).unwrap();
            lp.set_objective_coefficient(x, 2.0);
            lp.set_objective_coefficient(y, 3.0);
            lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, demand)
                .unwrap();
            lp.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Eq, demand / 4.0)
                .unwrap();
            let dense = lp.solve_with(SolverMode::Dense).unwrap();
            let rev = lp.solve_with(SolverMode::Revised).unwrap();
            assert_eq!(dense.status(), rev.status(), "demand {demand}");
            assert!(
                (dense.objective_value() - rev.objective_value()).abs()
                    <= 1e-7 * (1.0 + dense.objective_value().abs()),
                "demand {demand}: dense {} revised {}",
                dense.objective_value(),
                rev.objective_value()
            );
        }
    }

    #[test]
    fn sparse_lu_factors_and_solves() {
        // A 4×4 matrix that needs row pivoting: column order chosen so
        // the natural diagonal holds a zero.
        let cols = vec![
            vec![(1, 2.0), (3, 1.0)],
            vec![(0, 1.0), (1, 1.0)],
            vec![(2, 3.0)],
            vec![(0, 4.0), (3, -1.0)],
        ];
        let basis = [0usize, 1, 2, 3];
        let lu = SparseLu::factor(&cols, &basis).expect("nonsingular");
        // Check B x = b by multiplying back.
        let b = [7.0, -2.0, 9.0, 4.0];
        let mut x = [0.0; 4];
        let mut scratch = [0.0; 4];
        lu.solve(&b, &mut x, &mut scratch);
        let mut bx = [0.0; 4];
        for (k, col) in basis.iter().map(|&c| &cols[c]).enumerate() {
            for &(i, a) in col {
                bx[i] += a * x[k];
            }
        }
        for (got, want) in bx.iter().zip(&b) {
            assert!((got - want).abs() < 1e-9, "B x = {bx:?} != {b:?}");
        }
        // And Bᵀ y = c.
        let c = [1.0, 2.0, 3.0, 4.0];
        let mut y = [0.0; 4];
        lu.solve_transpose(&c, &mut y, &mut scratch);
        for (k, col) in basis.iter().map(|&cc| &cols[cc]).enumerate() {
            let mut s = 0.0;
            for &(i, a) in col {
                s += a * y[i];
            }
            assert!((s - c[k]).abs() < 1e-9, "Bᵀ y mismatch at {k}");
        }
        // A singular basis (duplicate columns) is rejected.
        assert!(SparseLu::factor(&cols, &[1, 1, 2, 3]).is_none());
    }

    #[test]
    fn eta_updates_match_refactorization() {
        // Force tiny refactor intervals implicitly: run a problem large
        // enough to pivot several times and confirm optimality equals
        // the dense backend (etas exercised along the way).
        let n = 40;
        let mut lp = LpProblem::new(Objective::Maximize);
        let vars: Vec<VarId> = (0..n)
            .map(|_| lp.add_variable(0.0, Some(2.0)).unwrap())
            .collect();
        for (i, &v) in vars.iter().enumerate() {
            lp.set_objective_coefficient(v, 1.0 + (i % 5) as f64);
        }
        for w in vars.windows(3) {
            lp.add_constraint(&[(w[0], 1.0), (w[1], 1.0), (w[2], 1.0)], Relation::Le, 2.0)
                .unwrap();
        }
        let dense = lp.solve_with(SolverMode::Dense).unwrap();
        let rev = lp.solve_with(SolverMode::Revised).unwrap();
        assert_eq!(dense.status(), rev.status());
        assert!(
            (dense.objective_value() - rev.objective_value()).abs()
                <= 1e-7 * (1.0 + dense.objective_value().abs()),
            "dense {} revised {}",
            dense.objective_value(),
            rev.objective_value()
        );
    }
}
