//! The two-phase primal simplex, written once for both backends.
//!
//! [`solve_with`] builds the [`StandardForm`] of a problem, picks a
//! backend by the form's size and runs [`solve`] over it. The driver owns
//! every decision: phase 1 over the artificials and its feasibility
//! verdict, the artificial drive-out, the phase-2 ban, Dantzig pricing
//! with a switch to Bland's rule after [`BLAND_SWITCH`] iterations (which
//! guarantees termination under degeneracy), the ratio test, value
//! extraction and the counters. A backend implements [`Basis`]: how it
//! keeps `B⁻¹A`, `B⁻¹b` and the reduced costs, and how a pivot updates
//! them — the dense tableau in [`crate::tableau`], the sparse LU with eta
//! updates in [`crate::revised`]. The driver is generic over the basis
//! and monomorphized, so the pivot loop makes no dynamic call.

use tomo_obs::{LazyCounter, LazyHistogram};

use crate::form::StandardForm;
use crate::model::{LpProblem, Objective};
use crate::revised::Revised;
use crate::solution::{LpSolution, LpStatus};
use crate::tableau::Tableau;
use crate::{LpError, LP_TOL};

static SOLVES: LazyCounter = LazyCounter::new("lp.simplex.solves");
static REVISED_SOLVES: LazyCounter = LazyCounter::new("lp.simplex.revised.solves");
/// Standard-form rows (user constraints plus upper-bound rows), summed
/// over solves.
static ROWS: LazyCounter = LazyCounter::new("lp.simplex.rows");
static PIVOTS: LazyCounter = LazyCounter::new("lp.simplex.pivots");
static ITERATIONS: LazyCounter = LazyCounter::new("lp.simplex.iterations");
static OPTIMAL: LazyCounter = LazyCounter::new("lp.simplex.optimal");
static INFEASIBLE: LazyCounter = LazyCounter::new("lp.simplex.infeasible");
static UNBOUNDED: LazyCounter = LazyCounter::new("lp.simplex.unbounded");
static PHASE1_SECONDS: LazyHistogram = LazyHistogram::new("lp.simplex.phase1_seconds");
static PHASE2_SECONDS: LazyHistogram = LazyHistogram::new("lp.simplex.phase2_seconds");
/// Priced pivots per solve, one sample per solve that reaches the end of
/// phase 1 (infeasible) or phase 2.
static SOLVE_PIVOTS: LazyHistogram = LazyHistogram::new("lp.simplex.solve_pivots");
/// `|phase-1 objective|` at the feasibility decision of every solve that
/// runs phase 1, split by verdict. Their extremes show how far both
/// verdicts sit from the [`LP_TOL`] threshold.
static PHASE1_FEASIBLE: LazyHistogram = LazyHistogram::new("lp.simplex.phase1_objective.feasible");
static PHASE1_INFEASIBLE: LazyHistogram =
    LazyHistogram::new("lp.simplex.phase1_objective.infeasible");

/// Hard safety bound on simplex iterations per phase.
const MAX_ITER_BASE: usize = 20_000;
/// After this many iterations in a phase, switch from Dantzig to Bland.
const BLAND_SWITCH: usize = 2_000;

/// Which simplex backend a solve should use.
///
/// Both backends run the same two-phase primal simplex over the same
/// standard form — one driver makes every pricing, ratio-test and
/// phase-1 decision — and differ only in how they keep the basis. They
/// are *decision-equivalent*: equal [`LpStatus`](crate::LpStatus) and
/// equal objective up to solver tolerance. Vertices (and thus low-order
/// solution bits) may differ when the optimum is not unique, because the
/// backends compute reduced costs and basic values differently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverMode {
    /// Pick by standard-form size: the dense tableau below 2²⁰ cells
    /// (rows × columns), the revised simplex at or above it.
    #[default]
    Auto,
    /// Dense tableau pivots: fastest on small instances. A pivot
    /// updates the other rows only at the pivot row's nonzeros, so its
    /// work is rows × (pivot-row nonzeros); the tableau still holds all
    /// `m·ncols` cells, row-major in blocks of at most 16,000 cells
    /// (128,000 bytes). An attack LP fits one block, and each thread
    /// reuses the block of its last one-block tableau, so a warm
    /// worker's small dense solves allocate no tableau storage.
    Dense,
    /// Revised simplex over sparse columns with a sparse-LU basis
    /// factorization and product-form eta updates: the only viable
    /// backend at Rocketfuel scale.
    Revised,
}

/// `Auto` switches to the revised backend when the standard form holds
/// at least this many tableau cells (`m·ncols`). Below it the dense
/// tableau wins: a pivot touches rows × (pivot-row nonzeros) cells.
/// Above it the tableau's `m·ncols` footprint, and the full-width scan
/// of each pivot row, lose to the revised backend's sparse columns and
/// FTRAN/BTRAN solves. At the gate a tableau spans at least 66 blocks
/// of at most 16,000 cells, and a tableau of several blocks keeps none
/// of them for its thread's next solve, so a large dense solve frees
/// all it used.
const AUTO_REVISED_MIN_CELLS: usize = 1 << 20;

/// The phase-1 verdict: the LP is infeasible when the minimized sum of
/// artificials exceeds `LP_TOL·(1 + |obj|)`. Records `|obj|` into the
/// verdict's `lp.simplex.phase1_objective.*` histogram.
fn phase1_infeasible(phase1_obj: f64) -> bool {
    let infeasible = phase1_obj > LP_TOL * (1.0 + phase1_obj.abs());
    let margin = if infeasible {
        &PHASE1_INFEASIBLE
    } else {
        &PHASE1_FEASIBLE
    };
    margin.record(phase1_obj.abs());
    infeasible
}

/// Resolves the backend for one solve: an explicit choice passes
/// through; `Auto` picks by standard-form size.
fn resolve_mode(requested: SolverMode, m: usize, ncols: usize) -> SolverMode {
    match requested {
        SolverMode::Dense | SolverMode::Revised => requested,
        SolverMode::Auto => {
            if m.saturating_mul(ncols) >= AUTO_REVISED_MIN_CELLS {
                SolverMode::Revised
            } else {
                SolverMode::Dense
            }
        }
    }
}

/// What a backend keeps of the current basis `B`: the entries of `B⁻¹A`
/// and `B⁻¹b` the driver reads, the reduced costs under a phase's cost
/// vector, and the pivot that moves to the next basis.
pub(crate) trait Basis {
    /// The starting basis of `form`: each row's slack or artificial.
    fn new(form: &StandardForm<'_>) -> Self;
    /// For each row, the column basic in it.
    fn basic(&self) -> &[usize];
    /// Installs a phase's cost vector, one entry per column.
    fn install_costs(&mut self, costs: &[f64]);
    /// Readies this iteration's reduced costs.
    fn price(&mut self);
    /// Whether pricing and the drive-out consider column `j` at all.
    fn eligible(&self, j: usize) -> bool;
    /// Reduced cost of column `j`.
    fn reduced_cost(&self, j: usize) -> f64;
    /// Loads column `q` of `B⁻¹A` for [`Basis::column_entry`] and the
    /// pivot that brings `q` in.
    fn load_column(&mut self, q: usize);
    /// Entry `i` of the loaded column.
    fn column_entry(&self, i: usize) -> f64;
    /// Loads row `i` of `B⁻¹A` for [`Basis::row_entry`].
    fn load_row(&mut self, i: usize);
    /// Entry `j` of the loaded row.
    fn row_entry(&self, j: usize) -> f64;
    /// Value of the variable basic in row `i`.
    fn value(&self, i: usize) -> f64;
    /// The loaded column `col` enters, row `row`'s basic variable leaves.
    fn pivot(&mut self, row: usize, col: usize) -> Result<(), LpError>;
    /// The sum of the artificials under the installed phase-1 costs.
    fn phase1_objective(&self) -> f64;
}

/// Mode-dispatching entry point shared by every public solve call:
/// builds the standard form, resolves the backend by its size and runs
/// the two-phase driver over that backend.
pub(crate) fn solve_with(problem: &LpProblem, mode: SolverMode) -> Result<LpSolution, LpError> {
    let form = StandardForm::new(problem);
    match resolve_mode(mode, form.m, form.ncols) {
        SolverMode::Revised => {
            REVISED_SOLVES.inc();
            solve::<Revised>(&form)
        }
        _ => solve::<Tableau>(&form),
    }
}

/// One solve's simplex state: the backend's basis and the pivots and
/// iterations made so far.
///
/// The two counts are kept here and added to `lp.simplex.pivots` and
/// `lp.simplex.iterations` once, when the solve drops its state, so every
/// exit path (optimal, infeasible, unbounded, an error) flushes them and
/// concurrent solves do not contend on the counters once per pivot.
struct Simplex<B> {
    basis: B,
    m: usize,
    ncols: usize,
    /// Also feeds the `lp.simplex.solve_pivots` histogram.
    pivots: u64,
    iterations: u64,
}

impl<B> Drop for Simplex<B> {
    fn drop(&mut self) {
        PIVOTS.add(self.pivots);
        ITERATIONS.add(self.iterations);
    }
}

impl<B: Basis> Simplex<B> {
    fn pivot(&mut self, row: usize, col: usize) -> Result<(), LpError> {
        self.pivots += 1;
        self.basis.pivot(row, col)
    }

    /// Chooses the entering column among the first `priced`, or `None`
    /// if optimal: Dantzig (most negative reduced cost, first index on
    /// ties) before [`BLAND_SWITCH`] iterations, Bland (first improving
    /// index) after.
    fn entering(&self, iter: usize, priced: usize) -> Option<usize> {
        let b = &self.basis;
        let mut candidates = (0..priced).filter(|&j| b.eligible(j));
        if iter >= BLAND_SWITCH {
            candidates.find(|&j| b.reduced_cost(j) < -LP_TOL)
        } else {
            let mut best: Option<(usize, f64)> = None;
            for j in candidates {
                let d = b.reduced_cost(j);
                if d < -LP_TOL && best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((j, d));
                }
            }
            best.map(|(j, _)| j)
        }
    }

    /// Ratio test over the loaded column: the row whose basic variable
    /// leaves, ties within [`LP_TOL`] going to the smaller basis column,
    /// or `None` if the column is unbounded.
    fn leaving(&self) -> Option<usize> {
        let b = &self.basis;
        let basis = b.basic();
        let mut best: Option<(usize, f64)> = None;
        for i in 0..self.m {
            let a = b.column_entry(i);
            if a > LP_TOL {
                let ratio = b.value(i).max(0.0) / a;
                let better = match best {
                    None => true,
                    Some((bi, br)) => {
                        ratio < br - LP_TOL || (ratio < br + LP_TOL && basis[i] < basis[bi])
                    }
                };
                if better {
                    best = Some((i, ratio));
                }
            }
        }
        best.map(|(i, _)| i)
    }

    /// Runs simplex iterations over the installed costs, pricing the
    /// first `priced` columns, until optimal (`Ok(true)`), unbounded
    /// (`Ok(false)`) or the iteration limit.
    fn optimize(&mut self, priced: usize) -> Result<bool, LpError> {
        let limit = MAX_ITER_BASE + 100 * (self.m + self.ncols);
        for iter in 0..limit {
            self.iterations += 1;
            self.basis.price();
            let Some(col) = self.entering(iter, priced) else {
                return Ok(true);
            };
            self.basis.load_column(col);
            let Some(row) = self.leaving() else {
                return Ok(false);
            };
            self.pivot(row, col)?;
        }
        Err(LpError::IterationLimit { limit })
    }

    /// Pivots zero-valued basic artificials out of the basis, each on the
    /// first eligible non-artificial column with a usable entry in its
    /// row.
    fn drive_out_artificials(&mut self, first_artificial: usize) -> Result<(), LpError> {
        for i in 0..self.m {
            if self.basis.basic()[i] < first_artificial {
                continue;
            }
            self.basis.load_row(i);
            let b = &self.basis;
            let found =
                (0..first_artificial).find(|&j| b.eligible(j) && b.row_entry(j).abs() > LP_TOL);
            if let Some(j) = found {
                self.basis.load_column(j);
                if self.basis.column_entry(i).abs() > LP_TOL {
                    self.pivot(i, j)?;
                }
            }
            // Otherwise the row is redundant; the artificial stays basic
            // at value 0 and, being banned in phase 2, can never grow.
        }
        Ok(())
    }
}

/// The two-phase simplex over `form` on the basis `B`.
fn solve<B: Basis>(form: &StandardForm<'_>) -> Result<LpSolution, LpError> {
    SOLVES.inc();
    ROWS.add(form.m as u64);
    let problem = form.problem;
    let (n_struct, first_artificial, ncols) = (form.n_struct, form.first_artificial, form.ncols);

    // Chaos seam: an armed fault (see `crate::chaos`) turns this solve
    // into the corresponding typed failure before any pivoting happens,
    // so downstream degradation paths can be exercised deterministically.
    match crate::chaos::take() {
        Some(crate::chaos::SolveFault::IterationExhaustion) => {
            return Err(LpError::IterationLimit { limit: 0 });
        }
        Some(crate::chaos::SolveFault::SingularBasis) => {
            return Err(LpError::SingularBasis { rows: form.m });
        }
        None => {}
    }

    let mut s = Simplex {
        basis: B::new(form),
        m: form.m,
        ncols,
        pivots: 0,
        iterations: 0,
    };
    let mut costs = vec![0.0; ncols];

    // Phase 1: minimize the sum of artificials.
    if first_artificial < ncols {
        let _phase1_timer = PHASE1_SECONDS.start_timer();
        costs[first_artificial..].fill(1.0);
        s.basis.install_costs(&costs);
        let optimal = s.optimize(ncols)?;
        debug_assert!(optimal, "phase-1 LP is bounded below by 0");
        let phase1_obj = s.basis.phase1_objective();
        if phase1_infeasible(phase1_obj) {
            INFEASIBLE.inc();
            SOLVE_PIVOTS.record(s.pivots as f64);
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
        s.drive_out_artificials(first_artificial)?;
    }

    // Phase 2: the real objective, converted to minimization over x'.
    // The artificials are banned: pricing stops at the first of them.
    let sign = match problem.objective() {
        Objective::Maximize => -1.0,
        Objective::Minimize => 1.0,
    };
    costs.fill(0.0);
    for (c, v) in costs.iter_mut().zip(&problem.variables) {
        *c = sign * v.objective;
    }
    let optimal = PHASE2_SECONDS.time(|| {
        s.basis.install_costs(&costs);
        s.optimize(first_artificial)
    })?;
    SOLVE_PIVOTS.record(s.pivots as f64);
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
    for (i, &b) in s.basis.basic().iter().enumerate() {
        if b < n_struct {
            values[b] = s.basis.value(i).max(0.0);
        }
    }
    for (x, v) in values.iter_mut().zip(&problem.variables) {
        *x += v.lower;
    }
    let objective: f64 = problem
        .variables
        .iter()
        .zip(&values)
        .map(|(v, &x)| v.objective * x)
        .sum();

    OPTIMAL.inc();
    tomo_obs::debug!("lp.simplex", "optimal: objective {objective:.6e}");
    Ok(LpSolution::new(LpStatus::Optimal, objective, values))
}

#[cfg(test)]
mod tests {
    use super::{resolve_mode, SolverMode, AUTO_REVISED_MIN_CELLS};
    use crate::{LpError, LpProblem, LpSolution, LpStatus, Objective, Relation, VarId};

    const BOTH: [SolverMode; 2] = [SolverMode::Dense, SolverMode::Revised];

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "expected {b}, got {a}");
    }

    /// Solves `lp` on each backend and hands the solution to `check`.
    fn on_both(lp: &LpProblem, check: impl Fn(&LpSolution)) {
        for mode in BOTH {
            check(&lp.solve_with(mode).unwrap());
        }
    }

    /// A small Ge/Eq-laden problem family parameterized by rhs.
    fn family_instance(demand: f64) -> (LpProblem, VarId, VarId) {
        // min 2x + 3y s.t. x + y ≥ demand, x − y = demand/4, x,y ∈ [0, 100].
        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_variable(0.0, Some(100.0)).unwrap();
        let y = lp.add_variable(0.0, Some(100.0)).unwrap();
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
        for mode in BOTH {
            crate::chaos::arm(crate::chaos::SolveFault::IterationExhaustion);
            match lp.solve_with(mode) {
                Err(LpError::IterationLimit { .. }) => {}
                other => panic!("{mode:?}: expected IterationLimit, got {other:?}"),
            }

            crate::chaos::arm(crate::chaos::SolveFault::SingularBasis);
            match lp.solve_with(mode) {
                Err(LpError::SingularBasis { rows }) => assert!(rows >= 2),
                other => panic!("{mode:?}: expected SingularBasis, got {other:?}"),
            }

            // The fault is consumed: the very next solve is healthy.
            let sol = lp.solve_with(mode).unwrap();
            assert!(sol.is_optimal());
            // x + y = 10, x − y = 2.5 → x = 6.25, y = 3.75, z = 23.75.
            assert_close(sol.objective_value(), 23.75);
        }
    }

    #[test]
    fn mode_resolution_precedence() {
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
    }

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → (2, 6), z = 36.
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_variable(0.0, None).unwrap();
        let y = lp.add_variable(0.0, None).unwrap();
        lp.set_objective_coefficient(x, 3.0);
        lp.set_objective_coefficient(y, 5.0);
        lp.add_constraint(&[(x, 1.0)], Relation::Le, 4.0).unwrap();
        lp.add_constraint(&[(y, 2.0)], Relation::Le, 12.0).unwrap();
        lp.add_constraint(&[(x, 3.0), (y, 2.0)], Relation::Le, 18.0)
            .unwrap();
        on_both(&lp, |sol| {
            assert!(sol.is_optimal());
            assert_close(sol.objective_value(), 36.0);
            assert_close(sol.value(x), 2.0);
            assert_close(sol.value(y), 6.0);
        });
    }

    #[test]
    fn minimization_with_ge_constraints_needs_phase1() {
        // min 2x + 3y s.t. x + y ≥ 10, x ≥ 2: y costs more per unit, so
        // x = 10, y = 0, z = 20.
        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_variable(0.0, None).unwrap();
        let y = lp.add_variable(0.0, None).unwrap();
        lp.set_objective_coefficient(x, 2.0);
        lp.set_objective_coefficient(y, 3.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 10.0)
            .unwrap();
        lp.add_constraint(&[(x, 1.0)], Relation::Ge, 2.0).unwrap();
        on_both(&lp, |sol| {
            assert!(sol.is_optimal());
            assert_close(sol.objective_value(), 20.0);
            assert_close(sol.value(x), 10.0);
            assert_close(sol.value(y), 0.0);
        });
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + 2y = 4, 3x + 2y = 8 → x = 2, y = 1, z = 3.
        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_variable(0.0, None).unwrap();
        let y = lp.add_variable(0.0, None).unwrap();
        lp.set_objective_coefficient(x, 1.0);
        lp.set_objective_coefficient(y, 1.0);
        lp.add_constraint(&[(x, 1.0), (y, 2.0)], Relation::Eq, 4.0)
            .unwrap();
        lp.add_constraint(&[(x, 3.0), (y, 2.0)], Relation::Eq, 8.0)
            .unwrap();
        on_both(&lp, |sol| {
            assert!(sol.is_optimal());
            assert_close(sol.value(x), 2.0);
            assert_close(sol.value(y), 1.0);
            assert_close(sol.objective_value(), 3.0);
        });
    }

    #[test]
    fn infeasible_detected() {
        // x ≤ 1 and x ≥ 2 simultaneously.
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_variable(0.0, None).unwrap();
        lp.set_objective_coefficient(x, 1.0);
        lp.add_constraint(&[(x, 1.0)], Relation::Le, 1.0).unwrap();
        lp.add_constraint(&[(x, 1.0)], Relation::Ge, 2.0).unwrap();
        on_both(&lp, |sol| assert_eq!(sol.status(), LpStatus::Infeasible));
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_variable(0.0, None).unwrap();
        lp.set_objective_coefficient(x, 1.0);
        lp.add_constraint(&[(x, -1.0)], Relation::Le, 5.0).unwrap();
        on_both(&lp, |sol| assert_eq!(sol.status(), LpStatus::Unbounded));
    }

    #[test]
    fn upper_bounds_respected() {
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_variable(0.0, Some(3.5)).unwrap();
        lp.set_objective_coefficient(x, 1.0);
        on_both(&lp, |sol| {
            assert!(sol.is_optimal());
            assert_close(sol.value(x), 3.5);
        });
    }

    #[test]
    fn nonzero_lower_bounds_shifted_correctly() {
        // min x + y, x ≥ 2, y ∈ [1, 5], x + y ≥ 6: the objective is
        // symmetric, so any split summing to 6 is optimal, value 6.
        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_variable(2.0, None).unwrap();
        let y = lp.add_variable(1.0, Some(5.0)).unwrap();
        lp.set_objective_coefficient(x, 1.0);
        lp.set_objective_coefficient(y, 1.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 6.0)
            .unwrap();
        on_both(&lp, |sol| {
            assert!(sol.is_optimal());
            assert_close(sol.objective_value(), 6.0);
            assert!(sol.value(x) >= 2.0 - 1e-9);
            assert!(sol.value(y) >= 1.0 - 1e-9);
            assert!(sol.value(y) <= 5.0 + 1e-9);
        });
    }

    #[test]
    fn negative_rhs_rows_normalized() {
        // x − y ≤ −2 with x,y ≥ 0: feasible (e.g. y ≥ 2).
        // max x s.t. x − y ≤ −2, y ≤ 10 → x = 8.
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_variable(0.0, None).unwrap();
        let y = lp.add_variable(0.0, Some(10.0)).unwrap();
        lp.set_objective_coefficient(x, 1.0);
        lp.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Le, -2.0)
            .unwrap();
        on_both(&lp, |sol| {
            assert!(sol.is_optimal());
            assert_close(sol.value(x), 8.0);
        });
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degeneracy: multiple constraints active at the optimum.
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_variable(0.0, None).unwrap();
        let y = lp.add_variable(0.0, None).unwrap();
        lp.set_objective_coefficient(x, 1.0);
        lp.set_objective_coefficient(y, 1.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 1.0)
            .unwrap();
        lp.add_constraint(&[(x, 1.0)], Relation::Le, 1.0).unwrap();
        lp.add_constraint(&[(y, 1.0)], Relation::Le, 1.0).unwrap();
        lp.add_constraint(&[(x, 2.0), (y, 1.0)], Relation::Le, 2.0)
            .unwrap();
        on_both(&lp, |sol| {
            assert!(sol.is_optimal());
            assert_close(sol.objective_value(), 1.0);
        });
    }

    #[test]
    fn redundant_equalities_handled() {
        // The same equality twice: phase 1 leaves a redundant artificial
        // that the drive-out must leave basic at zero.
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_variable(0.0, Some(9.0)).unwrap();
        let y = lp.add_variable(0.0, Some(9.0)).unwrap();
        lp.set_objective_coefficient(x, 1.0);
        lp.set_objective_coefficient(y, 2.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Eq, 5.0)
            .unwrap();
        lp.add_constraint(&[(x, 2.0), (y, 2.0)], Relation::Eq, 10.0)
            .unwrap();
        on_both(&lp, |sol| {
            assert!(sol.is_optimal());
            assert_close(sol.value(y), 5.0);
            assert_close(sol.value(x), 0.0);
            assert_close(sol.objective_value(), 10.0);
        });
    }

    #[test]
    fn empty_objective_still_finds_feasible_point() {
        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_variable(0.0, None).unwrap();
        lp.add_constraint(&[(x, 1.0)], Relation::Ge, 3.0).unwrap();
        on_both(&lp, |sol| {
            assert!(sol.is_optimal());
            assert!(sol.value(x) >= 3.0 - 1e-9);
        });
    }

    #[test]
    fn empty_and_unconstrained_shapes() {
        // No constraints, bounded by upper bounds only.
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_variable(1.0, Some(2.0)).unwrap();
        lp.set_objective_coefficient(x, 4.0);
        on_both(&lp, |sol| {
            assert!(sol.is_optimal());
            assert_close(sol.objective_value(), 8.0);
        });

        // No constraints, no bounds: unbounded (m = 0).
        let mut ub = LpProblem::new(Objective::Maximize);
        let z = ub.add_variable(0.0, None).unwrap();
        ub.set_objective_coefficient(z, 1.0);
        on_both(&ub, |sol| assert_eq!(sol.status(), LpStatus::Unbounded));

        // Empty problem: trivially optimal at objective 0.
        on_both(&LpProblem::new(Objective::Minimize), |sol| {
            assert!(sol.is_optimal());
        });
    }

    #[test]
    fn infeasible_through_bounds_and_constraint() {
        // x ∈ [0, 1] but x ≥ 2 required.
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_variable(0.0, Some(1.0)).unwrap();
        lp.set_objective_coefficient(x, 1.0);
        lp.add_constraint(&[(x, 1.0)], Relation::Ge, 2.0).unwrap();
        on_both(&lp, |sol| assert_eq!(sol.status(), LpStatus::Infeasible));
    }

    #[test]
    fn many_variable_chain() {
        // max Σ xᵢ with chain constraints xᵢ + xᵢ₊₁ ≤ 1: optimum is
        // ⌈n/2⌉ (alternating 1,0,1,0,…).
        let n = 21;
        let mut lp = LpProblem::new(Objective::Maximize);
        let vars: Vec<_> = (0..n)
            .map(|_| lp.add_variable(0.0, Some(1.0)).unwrap())
            .collect();
        for &v in &vars {
            lp.set_objective_coefficient(v, 1.0);
        }
        for w in vars.windows(2) {
            lp.add_constraint(&[(w[0], 1.0), (w[1], 1.0)], Relation::Le, 1.0)
                .unwrap();
        }
        on_both(&lp, |sol| {
            assert!(sol.is_optimal());
            assert_close(sol.objective_value(), 11.0);
        });
    }
}
