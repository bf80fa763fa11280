//! Revised two-phase primal simplex with a sparse LU basis factorization.
//!
//! The dense tableau in [`crate::simplex`] holds the entire
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
//! Decision semantics mirror the dense backend step for step: the same
//! standard-form assembly (lower-bound shift, upper-bound rows,
//! rhs-sign normalization, `[structural | slacks | artificials]` column
//! layout), the same Dantzig→Bland pricing switch, the same ratio-test
//! tie-breaking on basis column index, the same phase-1 infeasibility
//! test, artificial drive-out and ban, and the same counters and
//! histograms. The two backends are
//! therefore *decision-equivalent* — equal status, equal objective up
//! to solver tolerance — though not bit-identical: reduced costs come
//! from BTRAN instead of tableau elimination, so tie-breaking among
//! numerically near-equal candidates can pick different (equally
//! optimal) vertices.

use tomo_obs::LazyCounter;

use crate::model::{LpProblem, Objective, Relation};
use crate::simplex::{
    phase1_infeasible, BLAND_SWITCH, INFEASIBLE, ITERATIONS, MAX_ITER_BASE, OPTIMAL,
    PHASE1_SECONDS, PHASE2_SECONDS, PIVOTS, ROWS, SOLVES, SOLVE_PIVOTS, UNBOUNDED,
};
use crate::solution::{LpSolution, LpStatus};
use crate::{LpError, LP_TOL};

static REVISED_SOLVES: LazyCounter = LazyCounter::new("lp.simplex.revised.solves");
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

/// Revised-simplex solver state over an assembled sparse standard form.
struct Revised {
    m: usize,
    ncols: usize,
    first_artificial: usize,
    /// Sparse columns of the full standard-form matrix
    /// `[structural | slacks | artificials]`, entries `(row, value)`
    /// with rows ascending.
    cols: Vec<Vec<(usize, f64)>>,
    /// Normalized right-hand side (all entries ≥ 0).
    rhs: Vec<f64>,
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    banned: Vec<bool>,
    lu: SparseLu,
    etas: Vec<Eta>,
    /// Basic values by position: `xb[i]` = value of `basis[i]`.
    /// Updated incrementally per pivot, recomputed at refactorization.
    xb: Vec<f64>,
    /// FTRAN'd entering column of the most recent `ftran_col`.
    alpha: Vec<f64>,
    /// BTRAN'd simplex multipliers of the most recent `btran_costs`,
    /// indexed by original row.
    y: Vec<f64>,
    solve_pivots: u64,
    w1: Vec<f64>,
    w2: Vec<f64>,
}

impl Revised {
    /// Recomputes `xb = B⁻¹ rhs` from the current factorization.
    fn compute_xb(&mut self) {
        self.lu.solve(&self.rhs, &mut self.xb, &mut self.w1);
        apply_etas_ftran(&self.etas, &mut self.xb);
    }

    /// FTRAN of structural column `q` into `self.alpha`.
    fn ftran_col(&mut self, q: usize) {
        self.w2.fill(0.0);
        for &(i, a) in &self.cols[q] {
            self.w2[i] = a;
        }
        self.lu.solve(&self.w2, &mut self.alpha, &mut self.w1);
        apply_etas_ftran(&self.etas, &mut self.alpha);
    }

    /// BTRAN of the basic cost vector into `self.y` (the simplex
    /// multipliers `y = B⁻ᵀ c_B`).
    fn btran_costs(&mut self, costs: &[f64]) {
        for (wi, &b) in self.w2.iter_mut().zip(&self.basis) {
            *wi = costs[b];
        }
        apply_etas_btran(&self.etas, &mut self.w2);
        self.lu.solve_transpose(&self.w2, &mut self.y, &mut self.w1);
    }

    /// Reduced cost of column `j` against the current multipliers.
    fn reduced_cost(&self, costs: &[f64], j: usize) -> f64 {
        let mut d = costs[j];
        for &(i, a) in &self.cols[j] {
            d -= self.y[i] * a;
        }
        d
    }

    /// Chooses the entering column, or `None` if optimal. Mirrors the
    /// dense backend: Dantzig (most negative reduced cost, first index
    /// on exact ties) before [`BLAND_SWITCH`] iterations, Bland (first
    /// improving index) after. Basic columns are skipped — their
    /// reduced cost is exactly zero in the tableau formulation, while
    /// BTRAN-computed values carry round-off.
    fn entering(&self, costs: &[f64], iter: usize) -> Option<usize> {
        if iter >= BLAND_SWITCH {
            (0..self.ncols).find(|&j| {
                !self.banned[j] && !self.in_basis[j] && self.reduced_cost(costs, j) < -LP_TOL
            })
        } else {
            let mut best: Option<(usize, f64)> = None;
            for j in 0..self.ncols {
                if self.banned[j] || self.in_basis[j] {
                    continue;
                }
                let d = self.reduced_cost(costs, j);
                if d < -LP_TOL && best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((j, d));
                }
            }
            best.map(|(j, _)| j)
        }
    }

    /// Ratio test over `self.alpha`, tie-breaking on the smaller basis
    /// column index exactly like the dense backend.
    fn leaving(&self) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, &a) in self.alpha.iter().enumerate() {
            if a > LP_TOL {
                let ratio = self.xb[i].max(0.0) / a;
                let better = match best {
                    None => true,
                    Some((bi, br)) => {
                        ratio < br - LP_TOL
                            || (ratio < br + LP_TOL && self.basis[i] < self.basis[bi])
                    }
                };
                if better {
                    best = Some((i, ratio));
                }
            }
        }
        best.map(|(i, _)| i)
    }

    /// One priced pivot: column `q` (whose FTRAN is in `self.alpha`)
    /// enters at position `r`. Updates basic values incrementally,
    /// records an eta, and refactorizes when the eta file is full.
    fn pivot(&mut self, r: usize, q: usize) -> Result<(), LpError> {
        PIVOTS.inc();
        self.solve_pivots += 1;
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

    /// Refactorizes the current basis from scratch and recomputes the
    /// basic values, clearing the eta file.
    fn refactor(&mut self) -> Result<(), LpError> {
        REVISED_REFACTORS.inc();
        let lu = SparseLu::factor(&self.cols, &self.basis)
            .ok_or(LpError::SingularBasis { rows: self.m })?;
        self.lu = lu;
        self.etas.clear();
        self.compute_xb();
        Ok(())
    }

    /// Runs simplex iterations until optimal (`Ok(true)`), unbounded
    /// (`Ok(false)`) or the iteration limit.
    fn optimize(&mut self, costs: &[f64]) -> Result<bool, LpError> {
        let limit = MAX_ITER_BASE + 100 * (self.m + self.ncols);
        for iter in 0..limit {
            ITERATIONS.inc();
            self.btran_costs(costs);
            let Some(q) = self.entering(costs, iter) else {
                return Ok(true);
            };
            self.ftran_col(q);
            let Some(r) = self.leaving() else {
                return Ok(false);
            };
            self.pivot(r, q)?;
        }
        Err(LpError::IterationLimit { limit })
    }

    /// Pivots zero-valued basic artificials out of the basis where a
    /// non-artificial column has a usable element in their row —
    /// the revised analogue of the dense drive-out scan (the tableau
    /// entry `t[i][j]` is `ρᵀA_j` with `ρ = B⁻ᵀe_i`).
    fn drive_out_artificials(&mut self) -> Result<(), LpError> {
        for i in 0..self.m {
            if self.basis[i] < self.first_artificial {
                continue;
            }
            self.w2.fill(0.0);
            self.w2[i] = 1.0;
            apply_etas_btran(&self.etas, &mut self.w2);
            self.lu.solve_transpose(&self.w2, &mut self.y, &mut self.w1);
            let found = (0..self.first_artificial).find(|&j| {
                if self.in_basis[j] {
                    return false;
                }
                let mut t = 0.0;
                for &(r, a) in &self.cols[j] {
                    t += self.y[r] * a;
                }
                t.abs() > LP_TOL
            });
            if let Some(j) = found {
                self.ftran_col(j);
                if self.alpha[i].abs() > LP_TOL {
                    self.pivot(i, j)?;
                }
                // Otherwise the row is redundant; the artificial stays
                // basic at value 0 and (being banned) can never grow.
            }
        }
        Ok(())
    }
}

/// Solves the model with the revised simplex; the sparse mirror of
/// `simplex::solve_inner` (same flow and counters).
pub(crate) fn solve_revised(problem: &LpProblem) -> Result<LpSolution, LpError> {
    SOLVES.inc();
    REVISED_SOLVES.inc();
    let n_struct = problem.variables.len();

    // Assemble rows in (sparse terms, relation, rhs) form over the
    // shifted structural variables x' = x − lower ≥ 0 — the sparse
    // mirror of the dense assembly in `solve_inner`.
    struct SparseRow {
        terms: Vec<(usize, f64)>,
        relation: Relation,
        rhs: f64,
    }
    let mut rows: Vec<SparseRow> = Vec::with_capacity(problem.constraints.len() + n_struct);
    for c in &problem.constraints {
        let mut shift = 0.0;
        for &(j, a) in &c.terms {
            shift += a * problem.variables[j].lower;
        }
        rows.push(SparseRow {
            terms: c.terms.clone(),
            relation: c.relation,
            rhs: c.rhs - shift,
        });
    }
    // Upper bounds become explicit rows: x'_j ≤ upper_j − lower_j.
    for (j, v) in problem.variables.iter().enumerate() {
        if let Some(u) = v.upper {
            rows.push(SparseRow {
                terms: vec![(j, 1.0)],
                relation: Relation::Le,
                rhs: u - v.lower,
            });
        }
    }
    let m = rows.len();
    ROWS.add(m as u64);

    // Normalize to rhs ≥ 0.
    for r in rows.iter_mut() {
        if r.rhs < 0.0 {
            for t in r.terms.iter_mut() {
                t.1 = -t.1;
            }
            r.rhs = -r.rhs;
            r.relation = match r.relation {
                Relation::Le => Relation::Ge,
                Relation::Eq => Relation::Eq,
                Relation::Ge => Relation::Le,
            };
        }
    }

    // Column layout: [structural | slacks/surplus | artificials].
    let n_slack = rows.iter().filter(|r| r.relation != Relation::Eq).count();
    let n_art = rows.iter().filter(|r| r.relation != Relation::Le).count();
    let ncols = n_struct + n_slack + n_art;

    let mut cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); ncols];
    let mut rhs = vec![0.0; m];
    let mut basis = vec![usize::MAX; m];
    let mut slack_idx = n_struct;
    let mut art_idx = n_struct + n_slack;
    let mut artificial_cols: Vec<usize> = Vec::with_capacity(n_art);

    for (i, r) in rows.iter().enumerate() {
        for &(j, a) in &r.terms {
            if a != 0.0 {
                cols[j].push((i, a));
            }
        }
        rhs[i] = r.rhs;
        match r.relation {
            Relation::Le => {
                cols[slack_idx].push((i, 1.0));
                basis[i] = slack_idx;
                slack_idx += 1;
            }
            Relation::Ge => {
                cols[slack_idx].push((i, -1.0));
                slack_idx += 1;
                cols[art_idx].push((i, 1.0));
                basis[i] = art_idx;
                artificial_cols.push(art_idx);
                art_idx += 1;
            }
            Relation::Eq => {
                cols[art_idx].push((i, 1.0));
                basis[i] = art_idx;
                artificial_cols.push(art_idx);
                art_idx += 1;
            }
        }
    }
    let first_artificial = n_struct + n_slack;
    let mut in_basis = vec![false; ncols];
    for &b in &basis {
        in_basis[b] = true;
    }
    let lu =
        SparseLu::factor(&cols, &basis).expect("initial slack/artificial basis is the identity");
    let mut st = Revised {
        m,
        ncols,
        first_artificial,
        cols,
        xb: rhs.clone(),
        rhs,
        basis,
        in_basis,
        banned: vec![false; ncols],
        lu,
        etas: Vec::new(),
        alpha: vec![0.0; m],
        y: vec![0.0; m],
        solve_pivots: 0,
        w1: vec![0.0; m],
        w2: vec![0.0; m],
    };

    // Chaos seam: mirror of the dense backend's fault injection point.
    match crate::chaos::take() {
        Some(crate::chaos::SolveFault::IterationExhaustion) => {
            return Err(LpError::IterationLimit { limit: 0 });
        }
        Some(crate::chaos::SolveFault::SingularBasis) => {
            return Err(LpError::SingularBasis { rows: m });
        }
        None => {}
    }

    // Phase 1: minimize the sum of artificials.
    if !artificial_cols.is_empty() {
        let _phase1_timer = PHASE1_SECONDS.start_timer();
        let mut phase1_costs = vec![0.0; ncols];
        for &j in &artificial_cols {
            phase1_costs[j] = 1.0;
        }
        let optimal = st.optimize(&phase1_costs)?;
        debug_assert!(optimal, "phase-1 LP is bounded below by 0");
        let phase1_obj: f64 = st
            .basis
            .iter()
            .zip(&st.xb)
            .map(|(&b, &v)| phase1_costs[b] * v)
            .sum();
        if phase1_infeasible(phase1_obj) {
            INFEASIBLE.inc();
            SOLVE_PIVOTS.record(st.solve_pivots as f64);
            tomo_obs::debug!(
                "lp.simplex",
                "revised infeasible: phase-1 objective {phase1_obj:.3e}"
            );
            return Ok(LpSolution::new(
                LpStatus::Infeasible,
                0.0,
                vec![0.0; n_struct],
            ));
        }
        st.drive_out_artificials()?;
    }
    for &j in &artificial_cols {
        st.banned[j] = true;
    }

    // Phase 2: real objective (converted to minimization over x').
    let sign = match problem.objective() {
        Objective::Maximize => -1.0,
        Objective::Minimize => 1.0,
    };
    let mut phase2_costs = vec![0.0; ncols];
    for (j, v) in problem.variables.iter().enumerate() {
        phase2_costs[j] = sign * v.objective;
    }
    let optimal = PHASE2_SECONDS.time(|| st.optimize(&phase2_costs))?;
    SOLVE_PIVOTS.record(st.solve_pivots as f64);
    if !optimal {
        UNBOUNDED.inc();
        tomo_obs::warn!("lp.simplex", "revised: unbounded objective");
        return Ok(LpSolution::new(
            LpStatus::Unbounded,
            0.0,
            vec![0.0; n_struct],
        ));
    }

    // Extract structural values (undo the lower-bound shift).
    let mut values = vec![0.0; n_struct];
    for (i, &b) in st.basis.iter().enumerate() {
        if b < n_struct {
            values[b] = st.xb[i].max(0.0);
        }
    }
    for (j, v) in problem.variables.iter().enumerate() {
        values[j] += v.lower;
    }
    let objective: f64 = problem
        .variables
        .iter()
        .enumerate()
        .map(|(j, v)| v.objective * values[j])
        .sum();

    OPTIMAL.inc();
    tomo_obs::debug!("lp.simplex", "revised optimal: objective {objective:.6e}");
    Ok(LpSolution::new(LpStatus::Optimal, objective, values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LpProblem, LpStatus, Objective, Relation, SolverMode, VarId};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "expected {b}, got {a}");
    }

    fn revised(lp: &LpProblem) -> LpSolution {
        lp.solve_with(SolverMode::Revised).unwrap()
    }

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → (2, 6), z = 36.
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_variable("x", 0.0, None).unwrap();
        let y = lp.add_variable("y", 0.0, None).unwrap();
        lp.set_objective_coefficient(x, 3.0);
        lp.set_objective_coefficient(y, 5.0);
        lp.add_constraint(&[(x, 1.0)], Relation::Le, 4.0).unwrap();
        lp.add_constraint(&[(y, 2.0)], Relation::Le, 12.0).unwrap();
        lp.add_constraint(&[(x, 3.0), (y, 2.0)], Relation::Le, 18.0)
            .unwrap();
        let sol = revised(&lp);
        assert!(sol.is_optimal());
        assert_close(sol.objective_value(), 36.0);
        assert_close(sol.value(x), 2.0);
        assert_close(sol.value(y), 6.0);
    }

    #[test]
    fn phase1_ge_and_eq_constraints() {
        // min 2x + 3y s.t. x + y ≥ 10, x ≥ 2 → (10, 0), z = 20.
        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_variable("x", 0.0, None).unwrap();
        let y = lp.add_variable("y", 0.0, None).unwrap();
        lp.set_objective_coefficient(x, 2.0);
        lp.set_objective_coefficient(y, 3.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 10.0)
            .unwrap();
        lp.add_constraint(&[(x, 1.0)], Relation::Ge, 2.0).unwrap();
        let sol = revised(&lp);
        assert!(sol.is_optimal());
        assert_close(sol.objective_value(), 20.0);

        // min x + y s.t. x + 2y = 4, 3x + 2y = 8 → (2, 1), z = 3.
        let mut eq = LpProblem::new(Objective::Minimize);
        let x = eq.add_variable("x", 0.0, None).unwrap();
        let y = eq.add_variable("y", 0.0, None).unwrap();
        eq.set_objective_coefficient(x, 1.0);
        eq.set_objective_coefficient(y, 1.0);
        eq.add_constraint(&[(x, 1.0), (y, 2.0)], Relation::Eq, 4.0)
            .unwrap();
        eq.add_constraint(&[(x, 3.0), (y, 2.0)], Relation::Eq, 8.0)
            .unwrap();
        let sol = revised(&eq);
        assert!(sol.is_optimal());
        assert_close(sol.value(x), 2.0);
        assert_close(sol.value(y), 1.0);
    }

    #[test]
    fn infeasible_and_unbounded_detected() {
        let mut inf = LpProblem::new(Objective::Maximize);
        let x = inf.add_variable("x", 0.0, None).unwrap();
        inf.set_objective_coefficient(x, 1.0);
        inf.add_constraint(&[(x, 1.0)], Relation::Le, 1.0).unwrap();
        inf.add_constraint(&[(x, 1.0)], Relation::Ge, 2.0).unwrap();
        assert_eq!(revised(&inf).status(), LpStatus::Infeasible);

        let mut ub = LpProblem::new(Objective::Maximize);
        let x = ub.add_variable("x", 0.0, None).unwrap();
        ub.set_objective_coefficient(x, 1.0);
        ub.add_constraint(&[(x, -1.0)], Relation::Le, 5.0).unwrap();
        assert_eq!(revised(&ub).status(), LpStatus::Unbounded);
    }

    #[test]
    fn bounds_shifts_and_negative_rhs() {
        // Nonzero lower bounds shifted: min x + y, x ≥ 2, y ∈ [1, 5],
        // x + y ≥ 6 → objective 6.
        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_variable("x", 2.0, None).unwrap();
        let y = lp.add_variable("y", 1.0, Some(5.0)).unwrap();
        lp.set_objective_coefficient(x, 1.0);
        lp.set_objective_coefficient(y, 1.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 6.0)
            .unwrap();
        let sol = revised(&lp);
        assert!(sol.is_optimal());
        assert_close(sol.objective_value(), 6.0);
        assert!(sol.value(x) >= 2.0 - 1e-9);
        assert!(sol.value(y) >= 1.0 - 1e-9);
        assert!(sol.value(y) <= 5.0 + 1e-9);

        // Negative rhs rows are normalized: max x s.t. x − y ≤ −2,
        // y ≤ 10 → x = 8.
        let mut neg = LpProblem::new(Objective::Maximize);
        let x = neg.add_variable("x", 0.0, None).unwrap();
        let y = neg.add_variable("y", 0.0, Some(10.0)).unwrap();
        neg.set_objective_coefficient(x, 1.0);
        neg.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Le, -2.0)
            .unwrap();
        let sol = revised(&neg);
        assert!(sol.is_optimal());
        assert_close(sol.value(x), 8.0);
    }

    #[test]
    fn degenerate_and_redundant_problems_terminate() {
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_variable("x", 0.0, None).unwrap();
        let y = lp.add_variable("y", 0.0, None).unwrap();
        lp.set_objective_coefficient(x, 1.0);
        lp.set_objective_coefficient(y, 1.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 1.0)
            .unwrap();
        lp.add_constraint(&[(x, 1.0)], Relation::Le, 1.0).unwrap();
        lp.add_constraint(&[(y, 1.0)], Relation::Le, 1.0).unwrap();
        lp.add_constraint(&[(x, 2.0), (y, 1.0)], Relation::Le, 2.0)
            .unwrap();
        let sol = revised(&lp);
        assert!(sol.is_optimal());
        assert_close(sol.objective_value(), 1.0);

        // Duplicate equalities: phase 1 leaves a redundant artificial
        // that drive-out must leave basic at zero.
        let mut red = LpProblem::new(Objective::Maximize);
        let x = red.add_variable("x", 0.0, Some(9.0)).unwrap();
        let y = red.add_variable("y", 0.0, Some(9.0)).unwrap();
        red.set_objective_coefficient(x, 1.0);
        red.set_objective_coefficient(y, 2.0);
        red.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Eq, 5.0)
            .unwrap();
        red.add_constraint(&[(x, 2.0), (y, 2.0)], Relation::Eq, 10.0)
            .unwrap();
        let sol = revised(&red);
        assert!(sol.is_optimal());
        assert_close(sol.objective_value(), 10.0);
    }

    #[test]
    fn many_variable_chain_matches_dense() {
        // max Σ xᵢ with chain constraints xᵢ + xᵢ₊₁ ≤ 1: optimum ⌈n/2⌉.
        let n = 21;
        let mut lp = LpProblem::new(Objective::Maximize);
        let vars: Vec<VarId> = (0..n)
            .map(|i| lp.add_variable(format!("x{i}"), 0.0, Some(1.0)).unwrap())
            .collect();
        for &v in &vars {
            lp.set_objective_coefficient(v, 1.0);
        }
        for w in vars.windows(2) {
            lp.add_constraint(&[(w[0], 1.0), (w[1], 1.0)], Relation::Le, 1.0)
                .unwrap();
        }
        let dense = lp.solve_with(SolverMode::Dense).unwrap();
        let rev = revised(&lp);
        assert_eq!(dense.status(), rev.status());
        assert_close(rev.objective_value(), dense.objective_value());
        assert_close(rev.objective_value(), 11.0);
    }

    #[test]
    fn revised_matches_dense_across_family_sweep() {
        // Ge + Eq rows, upper bounds, a phase-1 requirement, swept
        // across rhs values — both backends
        // must agree on status and objective at every step.
        for step in 0..20 {
            let demand = 4.0 + f64::from(step) * 1.7;
            let mut lp = LpProblem::new(Objective::Minimize);
            let x = lp.add_variable("x", 0.0, Some(100.0)).unwrap();
            let y = lp.add_variable("y", 0.0, Some(100.0)).unwrap();
            lp.set_objective_coefficient(x, 2.0);
            lp.set_objective_coefficient(y, 3.0);
            lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, demand)
                .unwrap();
            lp.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Eq, demand / 4.0)
                .unwrap();
            let dense = lp.solve_with(SolverMode::Dense).unwrap();
            let rev = revised(&lp);
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
    fn armed_faults_surface_identically_to_dense() {
        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_variable("x", 0.0, Some(10.0)).unwrap();
        let y = lp.add_variable("y", 0.0, Some(10.0)).unwrap();
        lp.set_objective_coefficient(x, 1.0);
        lp.set_objective_coefficient(y, 1.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 3.0)
            .unwrap();

        crate::chaos::arm(crate::chaos::SolveFault::IterationExhaustion);
        match lp.solve_with(SolverMode::Revised) {
            Err(LpError::IterationLimit { .. }) => {}
            other => panic!("expected IterationLimit, got {other:?}"),
        }
        crate::chaos::arm(crate::chaos::SolveFault::SingularBasis);
        match lp.solve_with(SolverMode::Revised) {
            Err(LpError::SingularBasis { rows }) => assert!(rows >= 2),
            other => panic!("expected SingularBasis, got {other:?}"),
        }
        // Fault consumed: the next solve is healthy.
        assert!(lp.solve_with(SolverMode::Revised).unwrap().is_optimal());
    }

    #[test]
    fn empty_and_degenerate_shapes() {
        // No constraints, bounded by upper bounds only.
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_variable("x", 1.0, Some(2.0)).unwrap();
        lp.set_objective_coefficient(x, 4.0);
        let sol = revised(&lp);
        assert!(sol.is_optimal());
        assert_close(sol.objective_value(), 8.0);

        // No constraints, no bounds: unbounded (m = 0 path).
        let mut ub = LpProblem::new(Objective::Maximize);
        let z = ub.add_variable("z", 0.0, None).unwrap();
        ub.set_objective_coefficient(z, 1.0);
        assert_eq!(revised(&ub).status(), LpStatus::Unbounded);

        // Empty problem: trivially optimal at objective 0.
        let empty = LpProblem::new(Objective::Minimize);
        assert!(revised(&empty).is_optimal());
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
            .map(|i| lp.add_variable(format!("v{i}"), 0.0, Some(2.0)).unwrap())
            .collect();
        for (i, &v) in vars.iter().enumerate() {
            lp.set_objective_coefficient(v, 1.0 + (i % 5) as f64);
        }
        for w in vars.windows(3) {
            lp.add_constraint(&[(w[0], 1.0), (w[1], 1.0), (w[2], 1.0)], Relation::Le, 2.0)
                .unwrap();
        }
        let dense = lp.solve_with(SolverMode::Dense).unwrap();
        let rev = revised(&lp);
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
