//! Degeneracy stress tests: classic instances that cycle forever under
//! naive Dantzig pricing. The solver's Bland fallback must terminate on
//! all of them with the right optimum.

use tomo_lp::{LpProblem, LpStatus, Objective, Relation};

/// Beale's classic cycling example (1955):
///
/// ```text
/// min  -0.75 x4 + 150 x5 - 0.02 x6 + 6 x7
/// s.t.  0.25 x4 -  60 x5 - (1/25) x6 + 9 x7 ≤ 0
///       0.5  x4 -  90 x5 - (1/50) x6 + 3 x7 ≤ 0
///       x6 ≤ 1
/// ```
///
/// Optimum: objective −0.05 at x6 = 1 (x4 and x6 basic).
#[test]
fn beale_cycling_example_terminates_at_optimum() {
    let mut lp = LpProblem::new(Objective::Minimize);
    let x4 = lp.add_variable(0.0, None).unwrap();
    let x5 = lp.add_variable(0.0, None).unwrap();
    let x6 = lp.add_variable(0.0, None).unwrap();
    let x7 = lp.add_variable(0.0, None).unwrap();
    lp.set_objective_coefficient(x4, -0.75);
    lp.set_objective_coefficient(x5, 150.0);
    lp.set_objective_coefficient(x6, -0.02);
    lp.set_objective_coefficient(x7, 6.0);
    lp.add_constraint(
        &[(x4, 0.25), (x5, -60.0), (x6, -1.0 / 25.0), (x7, 9.0)],
        Relation::Le,
        0.0,
    )
    .unwrap();
    lp.add_constraint(
        &[(x4, 0.5), (x5, -90.0), (x6, -1.0 / 50.0), (x7, 3.0)],
        Relation::Le,
        0.0,
    )
    .unwrap();
    lp.add_constraint(&[(x6, 1.0)], Relation::Le, 1.0).unwrap();

    let sol = lp.solve().unwrap();
    assert_eq!(sol.status(), LpStatus::Optimal);
    assert!(
        (sol.objective_value() - (-0.05)).abs() < 1e-7,
        "objective {}",
        sol.objective_value()
    );
    assert!((sol.value(x6) - 1.0).abs() < 1e-7);
}

/// Kuhn's degenerate example — another classic cycler under bad pivot
/// rules.
#[test]
fn kuhn_degenerate_example_terminates() {
    // min  -2x1 - 3x2 + x3 + 12x4
    // s.t. -2x1 - 9x2 + x3 + 9x4 ≤ 0
    //      x1/3 + x2 - x3/3 - 2x4 ≤ 0
    // Unbounded? Kuhn's instance is bounded with objective 0 at origin…
    // the point of the test is termination with a consistent verdict.
    let mut lp = LpProblem::new(Objective::Minimize);
    let x1 = lp.add_variable(0.0, None).unwrap();
    let x2 = lp.add_variable(0.0, None).unwrap();
    let x3 = lp.add_variable(0.0, None).unwrap();
    let x4 = lp.add_variable(0.0, None).unwrap();
    lp.set_objective_coefficient(x1, -2.0);
    lp.set_objective_coefficient(x2, -3.0);
    lp.set_objective_coefficient(x3, 1.0);
    lp.set_objective_coefficient(x4, 12.0);
    lp.add_constraint(
        &[(x1, -2.0), (x2, -9.0), (x3, 1.0), (x4, 9.0)],
        Relation::Le,
        0.0,
    )
    .unwrap();
    lp.add_constraint(
        &[(x1, 1.0 / 3.0), (x2, 1.0), (x3, -1.0 / 3.0), (x4, -2.0)],
        Relation::Le,
        0.0,
    )
    .unwrap();

    // Must terminate (Bland) with either Optimal or Unbounded — and for
    // this cone instance the objective is unbounded below along a ray.
    let sol = lp.solve().unwrap();
    assert_eq!(sol.status(), LpStatus::Unbounded);
}

/// Highly degenerate transportation-style instance: all supplies equal,
/// many ties in the ratio test.
#[test]
fn degenerate_assignment_like_instance() {
    let n = 6;
    let mut lp = LpProblem::new(Objective::Maximize);
    let mut vars = Vec::new();
    for i in 0..n {
        for j in 0..n {
            let v = lp.add_variable(0.0, Some(1.0)).unwrap();
            // Objective rewards the diagonal.
            lp.set_objective_coefficient(v, if i == j { 2.0 } else { 1.0 });
            vars.push(v);
        }
    }
    // Row and column sums ≤ 1 — the classic massively degenerate polytope.
    for i in 0..n {
        let row: Vec<_> = (0..n).map(|j| (vars[i * n + j], 1.0)).collect();
        lp.add_constraint(&row, Relation::Le, 1.0).unwrap();
        let col: Vec<_> = (0..n).map(|j| (vars[j * n + i], 1.0)).collect();
        lp.add_constraint(&col, Relation::Le, 1.0).unwrap();
    }
    let sol = lp.solve().unwrap();
    assert_eq!(sol.status(), LpStatus::Optimal);
    // Optimal assignment: the diagonal, objective 2n.
    assert!(
        (sol.objective_value() - 2.0 * n as f64).abs() < 1e-6,
        "objective {}",
        sol.objective_value()
    );
}

/// A chain of redundant equalities stacked on a degenerate vertex.
#[test]
fn redundant_equalities_on_degenerate_vertex() {
    let mut lp = LpProblem::new(Objective::Maximize);
    let x = lp.add_variable(0.0, Some(10.0)).unwrap();
    let y = lp.add_variable(0.0, Some(10.0)).unwrap();
    lp.set_objective_coefficient(x, 1.0);
    lp.set_objective_coefficient(y, 1.0);
    for k in 1..=5 {
        // k·x + k·y = 10k  — the same plane, five times.
        lp.add_constraint(
            &[(x, k as f64), (y, k as f64)],
            Relation::Eq,
            10.0 * k as f64,
        )
        .unwrap();
    }
    let sol = lp.solve().unwrap();
    assert_eq!(sol.status(), LpStatus::Optimal);
    assert!((sol.objective_value() - 10.0).abs() < 1e-7);
}
