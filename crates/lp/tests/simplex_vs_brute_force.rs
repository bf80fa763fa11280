//! Property-based validation of the simplex solver against exhaustive
//! vertex enumeration.
//!
//! For a fully boxed LP (`0 ≤ x ≤ u` componentwise) the feasible region is
//! a polytope, so it is nonempty iff it has a vertex, and every optimum is
//! attained at a vertex. Vertices are intersections of `n` active
//! hyperplanes drawn from {constraint boundaries} ∪ {bound faces}; with
//! `n ≤ 3` variables and few constraints we can enumerate all of them and
//! compare against the simplex answer exactly.

use proptest::prelude::*;
use tomo_lp::{LpProblem, LpStatus, Objective, Relation};

#[derive(Debug, Clone)]
struct BoxedLp {
    /// Objective coefficients (maximize).
    c: Vec<f64>,
    /// `a·x ≤ b` rows.
    rows: Vec<(Vec<f64>, f64)>,
    /// Upper bounds (lower bounds are all 0).
    u: Vec<f64>,
}

fn det(m: &[Vec<f64>]) -> f64 {
    match m.len() {
        1 => m[0][0],
        2 => m[0][0] * m[1][1] - m[0][1] * m[1][0],
        3 => {
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        }
        _ => unreachable!("only n ≤ 3 supported"),
    }
}

/// Solves `M x = rhs` by Cramer's rule; `None` if `M` is singular.
fn solve_square(m: &[Vec<f64>], rhs: &[f64]) -> Option<Vec<f64>> {
    let d = det(m);
    if d.abs() < 1e-9 {
        return None;
    }
    let n = m.len();
    let mut x = vec![0.0; n];
    for j in 0..n {
        let mut mj: Vec<Vec<f64>> = m.to_vec();
        for i in 0..n {
            mj[i][j] = rhs[i];
        }
        x[j] = det(&mj) / d;
    }
    Some(x)
}

/// All hyperplanes of the boxed LP as (normal, offset) pairs.
fn hyperplanes(lp: &BoxedLp) -> Vec<(Vec<f64>, f64)> {
    let n = lp.u.len();
    let mut planes = lp.rows.clone();
    for i in 0..n {
        let mut e = vec![0.0; n];
        e[i] = 1.0;
        planes.push((e.clone(), 0.0)); // x_i = 0
        planes.push((e, lp.u[i])); // x_i = u_i
    }
    planes
}

fn is_feasible(lp: &BoxedLp, x: &[f64], tol: f64) -> bool {
    for (xi, ui) in x.iter().zip(lp.u.iter()) {
        if *xi < -tol || *xi > ui + tol {
            return false;
        }
    }
    for (a, b) in &lp.rows {
        let lhs: f64 = a.iter().zip(x.iter()).map(|(ai, xi)| ai * xi).sum();
        if lhs > b + tol {
            return false;
        }
    }
    true
}

/// Brute-force optimum: `Some(max c·x over feasible vertices)`, or `None`
/// if no feasible vertex exists (⇒ the polytope is empty).
fn brute_force(lp: &BoxedLp) -> Option<f64> {
    let n = lp.u.len();
    let planes = hyperplanes(lp);
    let idx: Vec<usize> = (0..planes.len()).collect();
    let mut best: Option<f64> = None;

    // Enumerate all n-combinations of hyperplanes.
    let mut combo = vec![0usize; n];
    #[allow(clippy::too_many_arguments)] // recursive closure workaround
    fn rec(
        idx: &[usize],
        n: usize,
        start: usize,
        depth: usize,
        combo: &mut Vec<usize>,
        planes: &[(Vec<f64>, f64)],
        lp: &BoxedLp,
        best: &mut Option<f64>,
    ) {
        if depth == n {
            let m: Vec<Vec<f64>> = combo.iter().map(|&k| planes[k].0.clone()).collect();
            let rhs: Vec<f64> = combo.iter().map(|&k| planes[k].1).collect();
            if let Some(x) = solve_square(&m, &rhs) {
                if is_feasible(lp, &x, 1e-6) {
                    let obj: f64 = lp.c.iter().zip(x.iter()).map(|(c, v)| c * v).sum();
                    *best = Some(best.map_or(obj, |b: f64| b.max(obj)));
                }
            }
            return;
        }
        for pos in start..idx.len() {
            combo[depth] = idx[pos];
            rec(idx, n, pos + 1, depth + 1, combo, planes, lp, best);
        }
    }
    rec(&idx, n, 0, 0, &mut combo, &planes, lp, &mut best);
    best
}

fn solve_with_simplex(lp: &BoxedLp) -> (LpStatus, f64) {
    let mut problem = LpProblem::new(Objective::Maximize);
    let vars: Vec<_> =
        lp.u.iter()
            .map(|&u| problem.add_variable(0.0, Some(u)).unwrap())
            .collect();
    for (i, &v) in vars.iter().enumerate() {
        problem.set_objective_coefficient(v, lp.c[i]);
    }
    for (a, b) in &lp.rows {
        let terms: Vec<_> = vars.iter().copied().zip(a.iter().copied()).collect();
        problem.add_constraint(&terms, Relation::Le, *b).unwrap();
    }
    let sol = problem.solve().unwrap();
    (sol.status(), sol.objective_value())
}

fn boxed_lp_strategy(n: usize) -> impl Strategy<Value = BoxedLp> {
    let coeff = -3..=3i32;
    let c = proptest::collection::vec(coeff.clone().prop_map(f64::from), n);
    let u = proptest::collection::vec((1..=5i32).prop_map(f64::from), n);
    let row = (
        proptest::collection::vec(coeff.prop_map(f64::from), n),
        (-6..=10i32).prop_map(f64::from),
    );
    let rows = proptest::collection::vec(row, 0..5);
    (c, rows, u).prop_map(|(c, rows, u)| BoxedLp { c, rows, u })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn simplex_matches_vertex_enumeration_2d(lp in boxed_lp_strategy(2)) {
        check(&lp)?;
    }

    #[test]
    fn simplex_matches_vertex_enumeration_3d(lp in boxed_lp_strategy(3)) {
        check(&lp)?;
    }
}

fn check(lp: &BoxedLp) -> Result<(), TestCaseError> {
    let brute = brute_force(lp);
    let (status, obj) = solve_with_simplex(lp);
    match brute {
        Some(best) => {
            prop_assert_eq!(
                status,
                LpStatus::Optimal,
                "brute force found feasible vertex with objective {} but simplex says {:?}",
                best,
                status
            );
            prop_assert!(
                (obj - best).abs() < 1e-5 * (1.0 + best.abs()),
                "objective mismatch: simplex {} vs brute force {}",
                obj,
                best
            );
        }
        None => {
            prop_assert_eq!(status, LpStatus::Infeasible);
        }
    }
    Ok(())
}

#[test]
fn regression_simple_instances() {
    // A couple of fixed instances exercising both outcomes.
    let feasible = BoxedLp {
        c: vec![1.0, 2.0],
        rows: vec![(vec![1.0, 1.0], 3.0)],
        u: vec![5.0, 5.0],
    };
    let (status, obj) = solve_with_simplex(&feasible);
    assert_eq!(status, LpStatus::Optimal);
    assert!((obj - brute_force(&feasible).unwrap()).abs() < 1e-6);

    let infeasible = BoxedLp {
        c: vec![1.0],
        rows: vec![(vec![-1.0], -10.0)], // -x ≤ -10 ⟹ x ≥ 10 > u = 5
        u: vec![5.0],
    };
    assert!(brute_force(&infeasible).is_none());
    assert_eq!(solve_with_simplex(&infeasible).0, LpStatus::Infeasible);
}
