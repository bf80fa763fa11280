use serde::{Deserialize, Serialize};

use crate::simplex;
use crate::solution::LpSolution;
use crate::LpError;

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Objective {
    /// Maximize the objective function.
    Maximize,
    /// Minimize the objective function.
    Minimize,
}

/// Relation of a linear constraint to its right-hand side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Relation {
    /// `Σ aᵢxᵢ ≤ rhs`
    Le,
    /// `Σ aᵢxᵢ = rhs`
    Eq,
    /// `Σ aᵢxᵢ ≥ rhs`
    Ge,
}

/// Opaque handle to a decision variable of an [`LpProblem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Positional index of the variable within its problem.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Variable {
    pub(crate) lower: f64,
    pub(crate) upper: Option<f64>,
    pub(crate) objective: f64,
}

/// Activity of one constraint at a candidate solution
/// (see [`LpProblem::constraint_activity`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConstraintActivity {
    /// Left-hand-side value `Σ aᵢxᵢ` at the solution.
    pub lhs: f64,
    /// The constraint's right-hand side.
    pub rhs: f64,
    /// The constraint's relation.
    pub relation: Relation,
    /// Whether the constraint is active (lhs == rhs within tolerance).
    pub binding: bool,
    /// Whether the solution satisfies the constraint within tolerance.
    pub satisfied: bool,
}

#[derive(Debug, Clone)]
pub(crate) struct Constraint {
    pub(crate) terms: Vec<(usize, f64)>,
    pub(crate) relation: Relation,
    pub(crate) rhs: f64,
}

/// A linear program under construction.
///
/// Variables have a finite lower bound (commonly `0`, matching the paper's
/// non-negativity Constraint 1 `m ⪰ 0`) and an optional finite upper bound
/// (the per-path manipulation cap). Constraints are sparse linear
/// expressions related to a right-hand side by [`Relation`].
///
/// See the [crate-level example](crate) for end-to-end usage.
#[derive(Debug, Clone)]
pub struct LpProblem {
    objective: Objective,
    pub(crate) variables: Vec<Variable>,
    pub(crate) constraints: Vec<Constraint>,
}

impl LpProblem {
    /// Creates an empty problem with the given optimization direction.
    #[must_use]
    pub fn new(objective: Objective) -> Self {
        LpProblem {
            objective,
            variables: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// Optimization direction.
    #[must_use]
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// Number of variables added so far.
    #[must_use]
    pub fn num_variables(&self) -> usize {
        self.variables.len()
    }

    /// Number of constraints added so far.
    #[must_use]
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Adds a decision variable with bounds `lower ≤ x (≤ upper)` and zero
    /// objective coefficient.
    ///
    /// # Errors
    ///
    /// * [`LpError::InvalidBounds`] if `upper < lower`.
    /// * [`LpError::NonFiniteCoefficient`] if a bound is NaN or `lower` is
    ///   infinite (upper may only be omitted, not infinite).
    pub fn add_variable(&mut self, lower: f64, upper: Option<f64>) -> Result<VarId, LpError> {
        if !lower.is_finite() || upper.is_some_and(|u| !u.is_finite()) {
            return Err(LpError::NonFiniteCoefficient {
                context: "variable bounds",
            });
        }
        if let Some(u) = upper {
            if u < lower {
                return Err(LpError::InvalidBounds {
                    index: self.variables.len(),
                    lower,
                    upper: u,
                });
            }
        }
        let id = VarId(self.variables.len());
        self.variables.push(Variable {
            lower,
            upper,
            objective: 0.0,
        });
        Ok(id)
    }

    /// Sets the objective coefficient of `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this problem or `coeff` is not
    /// finite. (Handles are only obtainable from [`Self::add_variable`], so
    /// a violation is a programming error, not a data error.)
    pub fn set_objective_coefficient(&mut self, var: VarId, coeff: f64) {
        assert!(coeff.is_finite(), "objective coefficient must be finite");
        assert!(
            var.0 < self.variables.len(),
            "variable {} does not belong to this problem",
            var.0
        );
        self.variables[var.0].objective = coeff;
    }

    /// Adds the constraint `Σ coeffᵢ·xᵢ  (≤ | = | ≥)  rhs`.
    ///
    /// Duplicate variables in `terms` are summed.
    ///
    /// # Errors
    ///
    /// * [`LpError::UnknownVariable`] if any handle is out of range.
    /// * [`LpError::NonFiniteCoefficient`] if any coefficient or `rhs` is
    ///   not finite.
    pub fn add_constraint(
        &mut self,
        terms: &[(VarId, f64)],
        relation: Relation,
        rhs: f64,
    ) -> Result<(), LpError> {
        if !rhs.is_finite() {
            return Err(LpError::NonFiniteCoefficient {
                context: "constraint rhs",
            });
        }
        let mut dense: Vec<(usize, f64)> = Vec::with_capacity(terms.len());
        for &(var, coeff) in terms {
            if !coeff.is_finite() {
                return Err(LpError::NonFiniteCoefficient {
                    context: "constraint coefficient",
                });
            }
            if var.0 >= self.variables.len() {
                return Err(LpError::UnknownVariable {
                    index: var.0,
                    count: self.variables.len(),
                });
            }
            match dense.iter_mut().find(|(i, _)| *i == var.0) {
                Some((_, c)) => *c += coeff,
                None => dense.push((var.0, coeff)),
            }
        }
        self.constraints.push(Constraint {
            terms: dense,
            relation,
            rhs,
        });
        Ok(())
    }

    /// Adds the constraint `Σ valuesₖ·vars[indicesₖ]  (≤ | = | ≥)  rhs`
    /// from one sparse (CSR) row.
    ///
    /// `indices` are positions into `vars` — exactly the column indices
    /// of a [`CsrMatrix`](https://docs.rs/) row whose columns were laid
    /// out over `vars` — and must be strictly ascending, which CSR rows
    /// guarantee by construction. Unlike [`Self::add_constraint`], no
    /// duplicate-merging scan is needed: the stored terms are the given
    /// entries verbatim, in order.
    ///
    /// # Errors
    ///
    /// * [`LpError::UnknownVariable`] if an index is out of range for
    ///   `vars`,
    /// * [`LpError::NonFiniteCoefficient`] if a value or `rhs` is not
    ///   finite, or `indices` is not strictly ascending / does not match
    ///   `values` in length (structure errors reuse this variant's
    ///   context string).
    pub fn add_sparse_row(
        &mut self,
        vars: &[VarId],
        indices: &[usize],
        values: &[f64],
        relation: Relation,
        rhs: f64,
    ) -> Result<(), LpError> {
        if !rhs.is_finite() {
            return Err(LpError::NonFiniteCoefficient {
                context: "constraint rhs",
            });
        }
        if indices.len() != values.len() {
            return Err(LpError::NonFiniteCoefficient {
                context: "sparse row index/value length mismatch",
            });
        }
        let mut terms: Vec<(usize, f64)> = Vec::with_capacity(indices.len());
        let mut prev: Option<usize> = None;
        for (&k, &coeff) in indices.iter().zip(values) {
            if !coeff.is_finite() {
                return Err(LpError::NonFiniteCoefficient {
                    context: "constraint coefficient",
                });
            }
            if prev.is_some_and(|p| k <= p) {
                return Err(LpError::NonFiniteCoefficient {
                    context: "sparse row indices not strictly ascending",
                });
            }
            prev = Some(k);
            let var = *vars.get(k).ok_or(LpError::UnknownVariable {
                index: k,
                count: vars.len(),
            })?;
            if var.0 >= self.variables.len() {
                return Err(LpError::UnknownVariable {
                    index: var.0,
                    count: self.variables.len(),
                });
            }
            terms.push((var.0, coeff));
        }
        self.constraints.push(Constraint {
            terms,
            relation,
            rhs,
        });
        Ok(())
    }

    /// Evaluates each constraint at a solution: its left-hand-side value
    /// and whether it is *binding* (active within `tol`).
    ///
    /// Binding analysis explains attack optima: a binding cap means the
    /// path is saturated; a binding state constraint means the estimate
    /// sits exactly at a threshold.
    ///
    /// # Panics
    ///
    /// Panics if the solution has fewer values than the problem has
    /// variables (i.e. it came from a different problem).
    #[must_use]
    pub fn constraint_activity(&self, solution: &LpSolution, tol: f64) -> Vec<ConstraintActivity> {
        assert!(
            solution.values().len() >= self.num_variables(),
            "solution does not match this problem"
        );
        self.constraints
            .iter()
            .map(|c| {
                let lhs: f64 = c.terms.iter().map(|&(j, a)| a * solution.values()[j]).sum();
                let binding = match c.relation {
                    Relation::Le | Relation::Ge => (lhs - c.rhs).abs() <= tol,
                    Relation::Eq => true,
                };
                let satisfied = match c.relation {
                    Relation::Le => lhs <= c.rhs + tol,
                    Relation::Ge => lhs >= c.rhs - tol,
                    Relation::Eq => (lhs - c.rhs).abs() <= tol,
                };
                ConstraintActivity {
                    lhs,
                    rhs: c.rhs,
                    relation: c.relation,
                    binding,
                    satisfied,
                }
            })
            .collect()
    }

    /// Solves the problem with the two-phase primal simplex method.
    ///
    /// Infeasibility and unboundedness are reported through
    /// [`LpStatus`](crate::LpStatus) on the returned solution, not as
    /// errors.
    ///
    /// # Errors
    ///
    /// Returns [`LpError::IterationLimit`] if the simplex fails to
    /// terminate within its safety bound (should not happen; Bland's rule
    /// guarantees finiteness).
    pub fn solve(&self) -> Result<LpSolution, LpError> {
        simplex::solve_with(self, crate::SolverMode::Auto)
    }

    /// Solves the problem with an explicitly chosen backend.
    ///
    /// [`SolverMode::Auto`](crate::SolverMode::Auto) reproduces
    /// [`Self::solve`]; [`SolverMode::Dense`](crate::SolverMode::Dense)
    /// and [`SolverMode::Revised`](crate::SolverMode::Revised) keep the
    /// basis as a dense tableau or as a sparse LU factorization
    /// respectively, regardless of problem size. Both run the same
    /// two-phase simplex over the same standard form, so they are
    /// decision-equivalent: same status and objective up to solver
    /// tolerance, though degenerate optima may surface as different
    /// (equally optimal) vertices.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::solve`].
    pub fn solve_with(&self, mode: crate::SolverMode) -> Result<LpSolution, LpError> {
        simplex::solve_with(self, mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constraint_activity_reports_binding_rows() {
        // max x + y s.t. x + y ≤ 4 (binding), x ≤ 100 (slack).
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_variable(0.0, None).unwrap();
        let y = lp.add_variable(0.0, None).unwrap();
        lp.set_objective_coefficient(x, 1.0);
        lp.set_objective_coefficient(y, 1.0);
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 4.0)
            .unwrap();
        lp.add_constraint(&[(x, 1.0)], Relation::Le, 100.0).unwrap();
        let sol = lp.solve().unwrap();
        let activity = lp.constraint_activity(&sol, 1e-7);
        assert_eq!(activity.len(), 2);
        assert!(activity[0].binding);
        assert!(activity[0].satisfied);
        assert!((activity[0].lhs - 4.0).abs() < 1e-7);
        assert!(!activity[1].binding);
        assert!(activity[1].satisfied);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn constraint_activity_rejects_foreign_solution() {
        let mut lp = LpProblem::new(Objective::Maximize);
        let _ = lp.add_variable(0.0, Some(1.0)).unwrap();
        let other = LpProblem::new(Objective::Maximize).solve().unwrap();
        let _ = lp.constraint_activity(&other, 1e-7);
    }

    #[test]
    fn add_variable_validates_bounds() {
        let mut lp = LpProblem::new(Objective::Maximize);
        assert!(lp.add_variable(0.0, Some(-1.0)).is_err());
        assert!(lp.add_variable(f64::NAN, None).is_err());
        assert!(lp.add_variable(0.0, Some(f64::INFINITY)).is_err());
        assert!(lp.add_variable(f64::NEG_INFINITY, None).is_err());
        let id = lp.add_variable(0.0, Some(1.0)).unwrap();
        assert_eq!(id.index(), 0);
        assert_eq!(lp.num_variables(), 1);
    }

    #[test]
    fn add_constraint_validates() {
        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_variable(0.0, None).unwrap();
        assert!(lp
            .add_constraint(&[(VarId(5), 1.0)], Relation::Le, 1.0)
            .is_err());
        assert!(lp
            .add_constraint(&[(x, f64::NAN)], Relation::Le, 1.0)
            .is_err());
        assert!(lp
            .add_constraint(&[(x, 1.0)], Relation::Le, f64::INFINITY)
            .is_err());
        lp.add_constraint(&[(x, 1.0)], Relation::Le, 5.0).unwrap();
        assert_eq!(lp.num_constraints(), 1);
    }

    #[test]
    fn sparse_row_matches_dense_constraint() {
        // The same LP assembled via add_constraint and add_sparse_row
        // must solve identically (bit-for-bit: same terms, same order).
        let build = |sparse: bool| {
            let mut lp = LpProblem::new(Objective::Maximize);
            let vars: Vec<VarId> = (0..4)
                .map(|_| lp.add_variable(0.0, Some(10.0)).unwrap())
                .collect();
            for &v in &vars {
                lp.set_objective_coefficient(v, 1.0);
            }
            // Row touching columns 0, 2, 3 only — a CSR-style row.
            let indices = [0usize, 2, 3];
            let values = [1.5, -0.5, 2.0];
            if sparse {
                lp.add_sparse_row(&vars, &indices, &values, Relation::Le, 7.0)
                    .unwrap();
            } else {
                let terms: Vec<(VarId, f64)> = indices
                    .iter()
                    .zip(values.iter())
                    .map(|(&k, &c)| (vars[k], c))
                    .collect();
                lp.add_constraint(&terms, Relation::Le, 7.0).unwrap();
            }
            lp.solve().unwrap()
        };
        let dense = build(false);
        let sparse = build(true);
        assert_eq!(dense.status(), sparse.status());
        assert_eq!(
            dense.objective_value().to_bits(),
            sparse.objective_value().to_bits()
        );
        assert_eq!(dense.values(), sparse.values());
    }

    #[test]
    fn sparse_row_validates_structure() {
        let mut lp = LpProblem::new(Objective::Maximize);
        let vars = vec![
            lp.add_variable(0.0, None).unwrap(),
            lp.add_variable(0.0, None).unwrap(),
        ];
        // Index out of range for the vars slice.
        assert!(lp
            .add_sparse_row(&vars, &[2], &[1.0], Relation::Le, 1.0)
            .is_err());
        // Length mismatch.
        assert!(lp
            .add_sparse_row(&vars, &[0, 1], &[1.0], Relation::Le, 1.0)
            .is_err());
        // Not strictly ascending.
        assert!(lp
            .add_sparse_row(&vars, &[1, 0], &[1.0, 1.0], Relation::Le, 1.0)
            .is_err());
        assert!(lp
            .add_sparse_row(&vars, &[1, 1], &[1.0, 1.0], Relation::Le, 1.0)
            .is_err());
        // Non-finite coefficient / rhs.
        assert!(lp
            .add_sparse_row(&vars, &[0], &[f64::NAN], Relation::Le, 1.0)
            .is_err());
        assert!(lp
            .add_sparse_row(&vars, &[0], &[1.0], Relation::Le, f64::INFINITY)
            .is_err());
        // Empty rows are fine (0 ≤ rhs tautology handled downstream).
        lp.add_sparse_row(&vars, &[], &[], Relation::Le, 1.0)
            .unwrap();
        assert_eq!(lp.num_constraints(), 1);
    }

    #[test]
    fn duplicate_terms_are_merged() {
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_variable(0.0, Some(10.0)).unwrap();
        lp.set_objective_coefficient(x, 1.0);
        // x + x ≤ 4  ⟹  x ≤ 2.
        lp.add_constraint(&[(x, 1.0), (x, 1.0)], Relation::Le, 4.0)
            .unwrap();
        let sol = lp.solve().unwrap();
        assert!(sol.is_optimal());
        assert!((sol.value(x) - 2.0).abs() < 1e-7);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn non_finite_objective_panics() {
        let mut lp = LpProblem::new(Objective::Maximize);
        let x = lp.add_variable(0.0, None).unwrap();
        lp.set_objective_coefficient(x, f64::INFINITY);
    }
}
