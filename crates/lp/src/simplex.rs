//! Dense two-phase primal simplex.
//!
//! Works on the standard form `min cᵀx, Ax = b, x ≥ 0` obtained from the
//! user model by shifting lower bounds, adding upper-bound rows, and adding
//! slack/surplus/artificial columns. Pricing is Dantzig (most negative
//! reduced cost) with an automatic switch to Bland's rule after a fixed
//! number of iterations, which guarantees termination under degeneracy.

use tomo_obs::{LazyCounter, LazyHistogram};

use crate::model::{LpProblem, Objective, Relation};
use crate::solution::{LpSolution, LpStatus};
use crate::{LpError, LP_TOL};

pub(crate) static SOLVES: LazyCounter = LazyCounter::new("lp.simplex.solves");
pub(crate) static PIVOTS: LazyCounter = LazyCounter::new("lp.simplex.pivots");
pub(crate) static ITERATIONS: LazyCounter = LazyCounter::new("lp.simplex.iterations");
pub(crate) static OPTIMAL: LazyCounter = LazyCounter::new("lp.simplex.optimal");
pub(crate) static INFEASIBLE: LazyCounter = LazyCounter::new("lp.simplex.infeasible");
pub(crate) static UNBOUNDED: LazyCounter = LazyCounter::new("lp.simplex.unbounded");
pub(crate) static PHASE1_SECONDS: LazyHistogram = LazyHistogram::new("lp.simplex.phase1_seconds");
pub(crate) static PHASE2_SECONDS: LazyHistogram = LazyHistogram::new("lp.simplex.phase2_seconds");
/// Priced pivots per solve, one sample per solve that reaches the end of
/// phase 1 (infeasible) or phase 2.
pub(crate) static SOLVE_PIVOTS: LazyHistogram = LazyHistogram::new("lp.simplex.solve_pivots");

/// Hard safety bound on simplex iterations per phase.
pub(crate) const MAX_ITER_BASE: usize = 20_000;
/// After this many iterations in a phase, switch from Dantzig to Bland.
pub(crate) const BLAND_SWITCH: usize = 2_000;

/// Which simplex backend a solve should use.
///
/// Both backends implement the same two-phase primal simplex — same
/// pricing rules, ratio-test tie-breaking and phase-1 infeasibility
/// test — so they are *decision-equivalent*: equal
/// [`LpStatus`](crate::LpStatus) and equal objective up to solver
/// tolerance. Vertices (and thus low-order solution bits) may differ
/// when the optimum is not unique.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverMode {
    /// Pick by standard-form size: the dense tableau below
    /// [`AUTO_REVISED_MIN_CELLS`] cells (`m·ncols`), the revised simplex
    /// at or above it. The `TOMO_LP_MODE` environment variable
    /// (`dense` / `revised`, case-insensitive, read per solve) overrides
    /// the size heuristic but not an explicit mode choice in code.
    #[default]
    Auto,
    /// Dense tableau pivots: fastest on small instances, O(m·ncols)
    /// memory traffic per pivot.
    Dense,
    /// Revised simplex over sparse columns with a sparse-LU basis
    /// factorization and product-form eta updates: the only viable
    /// backend at Rocketfuel scale.
    Revised,
}

/// `Auto` switches to the revised backend when the standard form holds
/// at least this many tableau cells (`m·ncols`). Below it the dense
/// tableau's contiguous row arithmetic wins; above it the tableau's
/// per-pivot O(m·ncols) traffic (and its memory footprint) loses to
/// sparse FTRAN/BTRAN solves.
pub(crate) const AUTO_REVISED_MIN_CELLS: usize = 1 << 20;

/// Standard-form dimensions `(m, ncols)` the assembly in `solve_inner`
/// (and its sparse mirror in [`crate::revised`]) will produce, computed
/// without allocating the tableau: rows are the user constraints plus
/// one row per finite upper bound; columns are structural + one slack
/// per inequality + one artificial per row that is `Ge`/`Eq` *after*
/// rhs-sign normalization (which flips `Le` rows with negative shifted
/// rhs into `Ge` and vice versa).
pub(crate) fn standard_dims(problem: &LpProblem) -> (usize, usize) {
    let n_struct = problem.variables.len();
    let mut m = 0usize;
    let mut n_slack = 0usize;
    let mut n_art = 0usize;
    for c in &problem.constraints {
        let mut shift = 0.0;
        for &(j, a) in &c.terms {
            shift += a * problem.variables[j].lower;
        }
        let rhs = c.rhs - shift;
        let relation = if rhs < 0.0 {
            match c.relation {
                Relation::Le => Relation::Ge,
                Relation::Eq => Relation::Eq,
                Relation::Ge => Relation::Le,
            }
        } else {
            c.relation
        };
        m += 1;
        if relation != Relation::Eq {
            n_slack += 1;
        }
        if relation != Relation::Le {
            n_art += 1;
        }
    }
    // Upper-bound rows x'_j ≤ upper − lower always have rhs ≥ 0
    // (bounds are validated at add_variable), so they are always `Le`.
    let n_upper = problem
        .variables
        .iter()
        .filter(|v| v.upper.is_some())
        .count();
    m += n_upper;
    n_slack += n_upper;
    (m, n_struct + n_slack + n_art)
}

/// Resolves the backend for one solve: explicit choice > `TOMO_LP_MODE`
/// environment override > size heuristic.
fn resolve_mode(requested: SolverMode, m: usize, ncols: usize) -> SolverMode {
    match requested {
        SolverMode::Dense | SolverMode::Revised => requested,
        SolverMode::Auto => {
            if let Ok(v) = std::env::var("TOMO_LP_MODE") {
                match v.to_ascii_lowercase().as_str() {
                    "dense" | "tableau" => return SolverMode::Dense,
                    "revised" | "sparse" => return SolverMode::Revised,
                    _ => {}
                }
            }
            if m.saturating_mul(ncols) >= AUTO_REVISED_MIN_CELLS {
                SolverMode::Revised
            } else {
                SolverMode::Dense
            }
        }
    }
}

struct Tableau {
    /// (m+1) × (ncols+1); last row = reduced costs, last col = rhs.
    t: Vec<Vec<f64>>,
    /// Basis: for each of the m rows, the column index of its basic variable.
    basis: Vec<usize>,
    m: usize,
    ncols: usize,
    /// Columns that may never enter the basis (artificials in phase 2).
    banned: Vec<bool>,
    /// Priced simplex pivots performed during this solve — feeds the
    /// `lp.simplex.solve_pivots` histogram.
    solve_pivots: u64,
}

impl Tableau {
    fn rhs(&self, i: usize) -> f64 {
        self.t[i][self.ncols]
    }

    /// One priced pivot: column `col` enters, row `row`'s basic variable
    /// leaves. Gauss-Jordan elimination makes `col` the unit vector of
    /// `row`; it splits the row storage instead of cloning the pivot
    /// row, so no allocation happens per pivot.
    fn pivot(&mut self, row: usize, col: usize) {
        PIVOTS.inc();
        self.solve_pivots += 1;
        let pivot = self.t[row][col];
        debug_assert!(pivot.abs() > LP_TOL, "pivot too small: {pivot}");
        let inv = 1.0 / pivot;
        for v in self.t[row].iter_mut() {
            *v *= inv;
        }
        let (head, rest) = self.t.split_at_mut(row);
        let (pivot_row, tail) = rest.split_first_mut().expect("row < m+1");
        for r in head.iter_mut().chain(tail.iter_mut()) {
            let factor = r[col];
            if factor == 0.0 {
                continue;
            }
            for (a, &p) in r.iter_mut().zip(pivot_row.iter()) {
                *a -= factor * p;
            }
            // Kill residual round-off in the pivot column.
            r[col] = 0.0;
        }
        self.basis[row] = col;
    }

    /// Chooses the entering column, or `None` if optimal.
    fn entering(&self, iter: usize) -> Option<usize> {
        let costs = &self.t[self.m];
        if iter >= BLAND_SWITCH {
            // Bland: first improving column.
            (0..self.ncols).find(|&j| !self.banned[j] && costs[j] < -LP_TOL)
        } else {
            // Dantzig: most improving column.
            let mut best: Option<(usize, f64)> = None;
            for (j, &c) in costs.iter().take(self.ncols).enumerate() {
                if self.banned[j] {
                    continue;
                }
                if c < -LP_TOL && best.is_none_or(|(_, bc)| c < bc) {
                    best = Some((j, c));
                }
            }
            best.map(|(j, _)| j)
        }
    }

    /// Ratio test: row whose basic variable leaves, or `None` if the
    /// column is unbounded.
    fn leaving(&self, col: usize) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for i in 0..self.m {
            let a = self.t[i][col];
            if a > LP_TOL {
                let ratio = self.rhs(i).max(0.0) / a;
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

    /// Runs simplex iterations until optimal/unbounded/iteration limit.
    fn optimize(&mut self) -> Result<bool, LpError> {
        let limit = MAX_ITER_BASE + 100 * (self.m + self.ncols);
        for iter in 0..limit {
            ITERATIONS.inc();
            let Some(col) = self.entering(iter) else {
                return Ok(true); // optimal
            };
            let Some(row) = self.leaving(col) else {
                return Ok(false); // unbounded
            };
            self.pivot(row, col);
        }
        Err(LpError::IterationLimit { limit })
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
}

/// Mode-dispatching entry point shared by every public solve call:
/// sizes the standard form, resolves the backend and hands off to the
/// dense tableau or the revised simplex.
pub(crate) fn solve_with(problem: &LpProblem, mode: SolverMode) -> Result<LpSolution, LpError> {
    let (m, ncols) = standard_dims(problem);
    match resolve_mode(mode, m, ncols) {
        SolverMode::Revised => crate::revised::solve_revised(problem),
        _ => solve_inner(problem),
    }
}

fn solve_inner(problem: &LpProblem) -> Result<LpSolution, LpError> {
    SOLVES.inc();
    let n_struct = problem.variables.len();

    // Assemble rows in (dense coeffs, relation, rhs) form over the shifted
    // structural variables x' = x − lower ≥ 0.
    struct Row {
        coeffs: Vec<f64>,
        relation: Relation,
        rhs: f64,
    }
    let mut rows: Vec<Row> = Vec::with_capacity(problem.constraints.len() + n_struct);

    for c in &problem.constraints {
        let mut coeffs = vec![0.0; n_struct];
        let mut shift = 0.0;
        for &(j, a) in &c.terms {
            coeffs[j] += a;
            shift += a * problem.variables[j].lower;
        }
        rows.push(Row {
            coeffs,
            relation: c.relation,
            rhs: c.rhs - shift,
        });
    }
    // Upper bounds become explicit rows: x'_j ≤ upper_j − lower_j.
    for (j, v) in problem.variables.iter().enumerate() {
        if let Some(u) = v.upper {
            let mut coeffs = vec![0.0; n_struct];
            coeffs[j] = 1.0;
            rows.push(Row {
                coeffs,
                relation: Relation::Le,
                rhs: u - v.lower,
            });
        }
    }

    let m = rows.len();

    // Normalize to rhs ≥ 0.
    for r in rows.iter_mut() {
        if r.rhs < 0.0 {
            for a in r.coeffs.iter_mut() {
                *a = -*a;
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

    let mut t = vec![vec![0.0; ncols + 1]; m + 1];
    let mut basis = vec![usize::MAX; m];
    let mut slack_idx = n_struct;
    let mut art_idx = n_struct + n_slack;
    let mut artificial_cols: Vec<usize> = Vec::with_capacity(n_art);

    for (i, r) in rows.iter().enumerate() {
        t[i][..n_struct].copy_from_slice(&r.coeffs);
        t[i][ncols] = r.rhs;
        match r.relation {
            Relation::Le => {
                t[i][slack_idx] = 1.0;
                basis[i] = slack_idx;
                slack_idx += 1;
            }
            Relation::Ge => {
                t[i][slack_idx] = -1.0;
                slack_idx += 1;
                t[i][art_idx] = 1.0;
                basis[i] = art_idx;
                artificial_cols.push(art_idx);
                art_idx += 1;
            }
            Relation::Eq => {
                t[i][art_idx] = 1.0;
                basis[i] = art_idx;
                artificial_cols.push(art_idx);
                art_idx += 1;
            }
        }
    }

    let mut tab = Tableau {
        t,
        basis,
        m,
        ncols,
        banned: vec![false; ncols],
        solve_pivots: 0,
    };
    let first_artificial = n_struct + n_slack;

    // Chaos seam: an armed fault (see `crate::chaos`) turns this solve
    // into the corresponding typed failure before any pivoting happens,
    // so downstream degradation paths can be exercised deterministically.
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
        tab.install_costs(&phase1_costs);
        let optimal = tab.optimize()?;
        debug_assert!(optimal, "phase-1 LP is bounded below by 0");
        // Objective value = −cost-row rhs.
        let phase1_obj = -tab.t[tab.m][ncols];
        if phase1_obj > LP_TOL * (1.0 + phase1_obj.abs()) {
            INFEASIBLE.inc();
            SOLVE_PIVOTS.record(tab.solve_pivots as f64);
            tomo_obs::debug!(
                "lp.simplex",
                "infeasible: phase-1 objective {phase1_obj:.3e}"
            );
            return Ok(LpSolution::new(
                LpStatus::Infeasible,
                0.0,
                vec![0.0; n_struct],
            ));
        }
        // Pivot zero-valued artificials out of the basis where possible.
        let is_artificial = |j: usize| j >= first_artificial;
        for i in 0..tab.m {
            if is_artificial(tab.basis[i]) {
                if let Some(j) = (0..first_artificial).find(|&j| tab.t[i][j].abs() > LP_TOL) {
                    tab.pivot(i, j);
                }
                // Otherwise the row is redundant; the artificial stays
                // basic at value 0 and (being banned below) can never grow.
            }
        }
    }
    for &j in &artificial_cols {
        tab.banned[j] = true;
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
    let optimal = PHASE2_SECONDS.time(|| {
        tab.install_costs(&phase2_costs);
        tab.optimize()
    })?;
    SOLVE_PIVOTS.record(tab.solve_pivots as f64);
    if !optimal {
        UNBOUNDED.inc();
        tomo_obs::warn!("lp.simplex", "unbounded objective");
        return Ok(LpSolution::new(
            LpStatus::Unbounded,
            0.0,
            vec![0.0; n_struct],
        ));
    }

    // Extract structural values (undo the lower-bound shift).
    let mut values = vec![0.0; n_struct];
    for i in 0..tab.m {
        let b = tab.basis[i];
        if b < n_struct {
            values[b] = tab.rhs(i).max(0.0);
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
    tomo_obs::debug!("lp.simplex", "optimal: objective {objective:.6e}");
    Ok(LpSolution::new(LpStatus::Optimal, objective, values))
}

#[cfg(test)]
mod tests {
    use crate::{LpProblem, LpStatus, Objective, Relation, VarId};
    use std::sync::Mutex;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "expected {b}, got {a}");
    }

    /// Serializes tests that manipulate `TOMO_LP_MODE` — process-global
    /// environment, so concurrent test threads would race otherwise.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    /// A small Ge/Eq-laden problem family parameterized by rhs.
    fn family_instance(demand: f64) -> (LpProblem, VarId, VarId) {
        // min 2x + 3y s.t. x + y ≥ demand, x − y = demand/4, x,y ∈ [0, 100].
        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_variable("x", 0.0, Some(100.0)).unwrap();
        let y = lp.add_variable("y", 0.0, Some(100.0)).unwrap();
        lp.set_objective_coefficient(x, 2.0);
        lp.set_objective_coefficient(y, 3.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, demand)
            .unwrap();
        lp.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Eq, demand / 4.0)
            .unwrap();
        (lp, x, y)
    }

    #[test]
    fn armed_faults_surface_as_typed_errors_then_clear() {
        let (lp, _, _) = family_instance(10.0);

        crate::chaos::arm(crate::chaos::SolveFault::IterationExhaustion);
        match lp.solve() {
            Err(crate::LpError::IterationLimit { .. }) => {}
            other => panic!("expected IterationLimit, got {other:?}"),
        }

        crate::chaos::arm(crate::chaos::SolveFault::SingularBasis);
        match lp.solve() {
            Err(crate::LpError::SingularBasis { rows }) => assert!(rows >= 2),
            other => panic!("expected SingularBasis, got {other:?}"),
        }

        // The fault is consumed: the very next solve is healthy.
        let sol = lp.solve().unwrap();
        assert!(sol.is_optimal());
        // x + y = 10, x − y = 2.5 → x = 6.25, y = 3.75, z = 23.75.
        assert_close(sol.objective_value(), 23.75);
    }

    #[test]
    fn standard_dims_counts_rows_and_columns() {
        // family_instance: Ge + Eq rows plus two upper-bound rows →
        // m = 4; slacks: Ge surplus + 2 upper-bound slacks = 3;
        // artificials: Ge + Eq = 2; ncols = 2 structural + 3 + 2.
        let (lp, _, _) = family_instance(10.0);
        assert_eq!(super::standard_dims(&lp), (4, 7));

        // A negative-rhs Le row flips to Ge and gains an artificial.
        let mut neg = LpProblem::new(Objective::Minimize);
        let x = neg.add_variable("x", 0.0, None).unwrap();
        neg.set_objective_coefficient(x, 1.0);
        neg.add_constraint(&[(x, -1.0)], Relation::Le, -3.0)
            .unwrap();
        // m = 1; slack (surplus after the flip) = 1; artificial = 1.
        assert_eq!(super::standard_dims(&neg), (1, 3));

        // Lower-bound shifts change the effective rhs sign: x ≥ 5 with
        // rhs 2 becomes x' ≥ -3, normalized to a Le row (slack, no
        // artificial).
        let mut shifted = LpProblem::new(Objective::Minimize);
        let x = shifted.add_variable("x", 5.0, None).unwrap();
        shifted.set_objective_coefficient(x, 1.0);
        shifted
            .add_constraint(&[(x, 1.0)], Relation::Ge, 2.0)
            .unwrap();
        assert_eq!(super::standard_dims(&shifted), (1, 2));
    }

    #[test]
    fn mode_resolution_precedence() {
        use super::{resolve_mode, SolverMode, AUTO_REVISED_MIN_CELLS};
        let _guard = ENV_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        let prior = std::env::var("TOMO_LP_MODE").ok();
        std::env::remove_var("TOMO_LP_MODE");
        let result = std::panic::catch_unwind(|| {
            // Explicit modes pass through untouched.
            assert_eq!(
                resolve_mode(SolverMode::Dense, 1 << 20, 1 << 20),
                SolverMode::Dense
            );
            assert_eq!(resolve_mode(SolverMode::Revised, 2, 2), SolverMode::Revised);
            // Auto picks by cell count.
            assert_eq!(resolve_mode(SolverMode::Auto, 10, 20), SolverMode::Dense);
            assert_eq!(
                resolve_mode(SolverMode::Auto, AUTO_REVISED_MIN_CELLS, 1),
                SolverMode::Revised
            );
            // The env override steers Auto only.
            std::env::set_var("TOMO_LP_MODE", "revised");
            assert_eq!(resolve_mode(SolverMode::Auto, 2, 2), SolverMode::Revised);
            assert_eq!(resolve_mode(SolverMode::Dense, 2, 2), SolverMode::Dense);
            std::env::set_var("TOMO_LP_MODE", "dense");
            assert_eq!(
                resolve_mode(SolverMode::Auto, AUTO_REVISED_MIN_CELLS, 2),
                SolverMode::Dense
            );
            assert_eq!(resolve_mode(SolverMode::Revised, 2, 2), SolverMode::Revised);
        });
        match prior {
            Some(v) => std::env::set_var("TOMO_LP_MODE", v),
            None => std::env::remove_var("TOMO_LP_MODE"),
        }
        if let Err(panic) = result {
            std::panic::resume_unwind(panic);
        }
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
        let sol = lp.solve().unwrap();
        assert!(sol.is_optimal());
        assert_close(sol.objective_value(), 36.0);
        assert_close(sol.value(x), 2.0);
        assert_close(sol.value(y), 6.0);
    }

    #[test]
    fn minimization_with_ge_constraints_needs_phase1() {
        // min 2x + 3y s.t. x + y ≥ 10, x ≥ 2 → (10 − y)... optimum (10, 0)?
        // 2·10 = 20 vs using y: y costs more per unit, so x = 10, y = 0, z = 20.
        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_variable("x", 0.0, None).unwrap();
        let y = lp.add_variable("y", 0.0, None).unwrap();
        lp.set_objective_coefficient(x, 2.0);
        lp.set_objective_coefficient(y, 3.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 10.0)
            .unwrap();
        lp.add_constraint(&[(x, 1.0)], Relation::Ge, 2.0).unwrap();
        let sol = lp.solve().unwrap();
        assert!(sol.is_optimal());
        assert_close(sol.objective_value(), 20.0);
        assert_close(sol.value(x), 10.0);
        assert_close(sol.value(y), 0.0);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + 2y = 4, 3x + 2y = 8 → x = 2, y = 1, z = 3.
        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_variable("x", 0.0, None).unwrap();
        let y = lp.add_variable("y", 0.0, None).unwrap();
        lp.set_objective_coefficient(x, 1.0);
        lp.set_objective_coefficient(y, 1.0);
        lp.add_constraint(&[(x, 1.0), (y, 2.0)], Relation::Eq, 4.0)
            .unwrap();
        lp.add_constraint(&[(x, 3.0), (y, 2.0)], Relation::Eq, 8.0)
            .unwrap();
        let sol = lp.solve().unwrap();
        assert!(sol.is_optimal());
        assert_close(sol.value(x), 2.0);
        assert_close(sol.value(y), 1.0);
        assert_close(sol.objective_value(), 3.0);
    }

    #[test]
    fn infeasible_detected() {
        // x ≤ 1 and x ≥ 2 simultaneously.
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_variable("x", 0.0, None).unwrap();
        lp.set_objective_coefficient(x, 1.0);
        lp.add_constraint(&[(x, 1.0)], Relation::Le, 1.0).unwrap();
        lp.add_constraint(&[(x, 1.0)], Relation::Ge, 2.0).unwrap();
        let sol = lp.solve().unwrap();
        assert_eq!(sol.status(), LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_variable("x", 0.0, None).unwrap();
        lp.set_objective_coefficient(x, 1.0);
        lp.add_constraint(&[(x, -1.0)], Relation::Le, 5.0).unwrap();
        let sol = lp.solve().unwrap();
        assert_eq!(sol.status(), LpStatus::Unbounded);
    }

    #[test]
    fn upper_bounds_respected() {
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_variable("x", 0.0, Some(3.5)).unwrap();
        lp.set_objective_coefficient(x, 1.0);
        let sol = lp.solve().unwrap();
        assert!(sol.is_optimal());
        assert_close(sol.value(x), 3.5);
    }

    #[test]
    fn nonzero_lower_bounds_shifted_correctly() {
        // min x + y, x ≥ 2, y ∈ [1, 5], x + y ≥ 6 → x = 5? No:
        // cheapest is any combination summing to 6 with x ≥ 2, y ≥ 1;
        // objective is symmetric, optimum value 6.
        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_variable("x", 2.0, None).unwrap();
        let y = lp.add_variable("y", 1.0, Some(5.0)).unwrap();
        lp.set_objective_coefficient(x, 1.0);
        lp.set_objective_coefficient(y, 1.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 6.0)
            .unwrap();
        let sol = lp.solve().unwrap();
        assert!(sol.is_optimal());
        assert_close(sol.objective_value(), 6.0);
        assert!(sol.value(x) >= 2.0 - 1e-9);
        assert!(sol.value(y) >= 1.0 - 1e-9);
        assert!(sol.value(y) <= 5.0 + 1e-9);
    }

    #[test]
    fn negative_rhs_rows_normalized() {
        // x − y ≤ −2 with x,y ≥ 0: feasible (e.g. y ≥ 2).
        // max x s.t. x − y ≤ −2, y ≤ 10 → x = 8.
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_variable("x", 0.0, None).unwrap();
        let y = lp.add_variable("y", 0.0, Some(10.0)).unwrap();
        lp.set_objective_coefficient(x, 1.0);
        lp.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Le, -2.0)
            .unwrap();
        let sol = lp.solve().unwrap();
        assert!(sol.is_optimal());
        assert_close(sol.value(x), 8.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degeneracy: multiple constraints active at the optimum.
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
        let sol = lp.solve().unwrap();
        assert!(sol.is_optimal());
        assert_close(sol.objective_value(), 1.0);
    }

    #[test]
    fn redundant_equalities_handled() {
        // The same equality twice: phase 1 leaves a redundant artificial.
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_variable("x", 0.0, Some(9.0)).unwrap();
        let y = lp.add_variable("y", 0.0, Some(9.0)).unwrap();
        lp.set_objective_coefficient(x, 1.0);
        lp.set_objective_coefficient(y, 2.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Eq, 5.0)
            .unwrap();
        lp.add_constraint(&[(x, 2.0), (y, 2.0)], Relation::Eq, 10.0)
            .unwrap();
        let sol = lp.solve().unwrap();
        assert!(sol.is_optimal());
        assert_close(sol.value(y), 5.0);
        assert_close(sol.value(x), 0.0);
        assert_close(sol.objective_value(), 10.0);
    }

    #[test]
    fn empty_objective_still_finds_feasible_point() {
        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_variable("x", 0.0, None).unwrap();
        lp.add_constraint(&[(x, 1.0)], Relation::Ge, 3.0).unwrap();
        let sol = lp.solve().unwrap();
        assert!(sol.is_optimal());
        assert!(sol.value(x) >= 3.0 - 1e-9);
    }

    #[test]
    fn no_constraints_bounded_by_upper_bounds() {
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_variable("x", 1.0, Some(2.0)).unwrap();
        lp.set_objective_coefficient(x, 4.0);
        let sol = lp.solve().unwrap();
        assert!(sol.is_optimal());
        assert_close(sol.objective_value(), 8.0);
    }

    #[test]
    fn infeasible_through_bounds_and_constraint() {
        // x ∈ [0, 1] but x ≥ 2 required.
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_variable("x", 0.0, Some(1.0)).unwrap();
        lp.set_objective_coefficient(x, 1.0);
        lp.add_constraint(&[(x, 1.0)], Relation::Ge, 2.0).unwrap();
        assert_eq!(lp.solve().unwrap().status(), LpStatus::Infeasible);
    }

    #[test]
    fn many_variable_chain() {
        // max Σ xᵢ with chain constraints xᵢ + xᵢ₊₁ ≤ 1: optimum is
        // ⌈n/2⌉ (alternating 1,0,1,0,…).
        let n = 21;
        let mut lp = LpProblem::new(Objective::Maximize);
        let vars: Vec<_> = (0..n)
            .map(|i| lp.add_variable(format!("x{i}"), 0.0, Some(1.0)).unwrap())
            .collect();
        for &v in &vars {
            lp.set_objective_coefficient(v, 1.0);
        }
        for w in vars.windows(2) {
            lp.add_constraint(&[(w[0], 1.0), (w[1], 1.0)], Relation::Le, 1.0)
                .unwrap();
        }
        let sol = lp.solve().unwrap();
        assert!(sol.is_optimal());
        assert_close(sol.objective_value(), 11.0);
    }
}
