//! The phase-1 verdict margin: every solve that runs phase 1 records
//! `|phase-1 objective|` into `lp.simplex.phase1_objective.feasible` or
//! `lp.simplex.phase1_objective.infeasible`, in both backends. This
//! binary holds one test, so the process-wide histograms see only its
//! solves.

use tomo_lp::{LpProblem, LpStatus, Objective, Relation, SolverMode};

#[test]
fn phase1_objective_is_recorded_under_its_verdict() {
    let feasible_margin = tomo_obs::histogram("lp.simplex.phase1_objective.feasible");
    let infeasible_margin = tomo_obs::histogram("lp.simplex.phase1_objective.infeasible");
    for (solves, mode) in [(1, SolverMode::Dense), (2, SolverMode::Revised)] {
        // x ∈ [0, 1] but x ≥ 3.5: phase 1 stops 2.5 short.
        let mut infeasible = LpProblem::new(Objective::Maximize);
        let x = infeasible.add_variable(0.0, Some(1.0)).unwrap();
        infeasible.set_objective_coefficient(x, 1.0);
        infeasible
            .add_constraint(&[(x, 1.0)], Relation::Ge, 3.5)
            .unwrap();
        assert_eq!(
            infeasible.solve_with(mode).unwrap().status(),
            LpStatus::Infeasible
        );

        // min 2x + 3y s.t. x + y ≥ 10, x − y = 2.5: phase 1 reaches 0.
        let mut feasible = LpProblem::new(Objective::Minimize);
        let x = feasible.add_variable(0.0, Some(100.0)).unwrap();
        let y = feasible.add_variable(0.0, Some(100.0)).unwrap();
        feasible.set_objective_coefficient(x, 2.0);
        feasible.set_objective_coefficient(y, 3.0);
        feasible
            .add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 10.0)
            .unwrap();
        feasible
            .add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Eq, 2.5)
            .unwrap();
        assert!(feasible.solve_with(mode).unwrap().is_optimal());

        let infeasible = infeasible_margin.summary();
        let feasible = feasible_margin.summary();
        assert_eq!(infeasible.count, solves, "{mode:?}");
        assert_eq!(feasible.count, solves, "{mode:?}");
        assert!(
            (infeasible.min - 2.5).abs() <= 1e-12 && (infeasible.max - 2.5).abs() <= 1e-12,
            "{mode:?}: infeasible phase-1 objectives in [{}, {}]",
            infeasible.min,
            infeasible.max
        );
        assert!(
            feasible.max <= 1e-12,
            "{mode:?}: feasible phase-1 objective up to {}",
            feasible.max
        );
    }
}
