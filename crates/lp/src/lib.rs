//! A self-contained linear-programming solver for the scapegoating
//! reproduction.
//!
//! Every attack strategy in the paper — chosen-victim (Eq. 4-7),
//! maximum-damage (Eq. 8) and obfuscation (Eq. 9-11) — is a linear program
//! in the attack manipulation vector `m`: the objective `‖m‖₁ = Σ mᵢ` is
//! linear because `m ⪰ 0`, and the link-state constraints are linear
//! because the tomography estimate responds linearly to manipulations.
//! *Feasibility of the LP is the paper's notion of attack success*, so the
//! solver must report [`LpStatus::Infeasible`] reliably, not merely find
//! optima.
//!
//! Every solve builds one standard form (lower bounds shifted out, upper
//! bounds as rows, rhs made non-negative, slack, surplus and artificial
//! columns) and runs one two-phase primal simplex over it: Dantzig
//! pricing with an automatic fallback to Bland's rule to guarantee
//! termination under degeneracy. Only the basis representation differs
//! between the two backends: a dense tableau for small instances, and a
//! sparse LU factorization (Gilbert–Peierls, with product-form eta
//! updates and periodic refactorization) for Rocketfuel-scale problems.
//! [`SolverMode::Auto`] picks by the standard form's size;
//! [`LpProblem::solve_with`] forces a backend explicitly.
//!
//! # Example
//!
//! ```
//! use tomo_lp::{LpProblem, Objective, Relation};
//!
//! # fn main() -> Result<(), tomo_lp::LpError> {
//! // maximize 3x + 2y  s.t.  x + y ≤ 4,  x ≤ 2,  x,y ≥ 0
//! let mut lp = LpProblem::new(Objective::Maximize);
//! let x = lp.add_variable(0.0, None)?;
//! let y = lp.add_variable(0.0, None)?;
//! lp.set_objective_coefficient(x, 3.0);
//! lp.set_objective_coefficient(y, 2.0);
//! lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 4.0)?;
//! lp.add_constraint(&[(x, 1.0)], Relation::Le, 2.0)?;
//! let sol = lp.solve()?;
//! assert!(sol.is_optimal());
//! assert!((sol.objective_value() - 10.0).abs() < 1e-7);
//! assert!((sol.value(x) - 2.0).abs() < 1e-7);
//! assert!((sol.value(y) - 2.0).abs() < 1e-7);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
mod error;
mod form;
mod model;
mod reuse;
mod revised;
mod simplex;
mod solution;
mod tableau;

pub use error::LpError;
pub use model::{ConstraintActivity, LpProblem, Objective, Relation, VarId};
pub use simplex::SolverMode;
pub use solution::{LpSolution, LpStatus};

/// Feasibility/optimality tolerance used throughout the solver.
pub const LP_TOL: f64 = 1e-7;

/// Inert handle kept only because the benchmark in `perfbench/` still
/// names it. Every solve runs cold and ignores it; the name goes once
/// the benchmark stops calling it.
#[derive(Debug, Default)]
pub struct WarmStart;

impl WarmStart {
    /// Creates the (stateless) handle.
    #[must_use]
    pub fn new() -> Self {
        WarmStart
    }
}

/// Always `false`: every solve runs cold. Kept only because the
/// benchmark in `perfbench/` still calls it; the name goes once the
/// benchmark stops calling it.
#[must_use]
pub fn warm_enabled() -> bool {
    false
}
