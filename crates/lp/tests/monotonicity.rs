//! Structural property tests of the simplex solver: the monotone laws
//! the attack layer depends on.
//!
//! * Adding a constraint never improves a maximization optimum — this is
//!   what makes `obfuscation`'s binary search over nested victim prefixes
//!   sound and why `chosen_victim_exclusive` can never beat
//!   `chosen_victim`.
//! * Raising a variable's cap never hurts — why the per-path cap is a
//!   genuine knob on attack damage.

use proptest::prelude::*;
use tomo_lp::{LpProblem, LpStatus, Objective, Relation, VarId};

#[derive(Debug, Clone)]
struct Instance {
    c: Vec<f64>,
    rows: Vec<(Vec<f64>, f64)>,
    cap: f64,
}

fn build(instance: &Instance, rows: usize, cap: f64) -> (LpProblem, Vec<VarId>) {
    let mut lp = LpProblem::new(Objective::Maximize);
    let vars: Vec<VarId> = (0..instance.c.len())
        .map(|_| lp.add_variable(0.0, Some(cap)).unwrap())
        .collect();
    for (i, &v) in vars.iter().enumerate() {
        lp.set_objective_coefficient(v, instance.c[i]);
    }
    for (a, b) in instance.rows.iter().take(rows) {
        let terms: Vec<_> = vars.iter().copied().zip(a.iter().copied()).collect();
        lp.add_constraint(&terms, Relation::Le, *b).unwrap();
    }
    (lp, vars)
}

fn instance_strategy() -> impl Strategy<Value = Instance> {
    let n = 4usize;
    let coeff = (-3..=3i32).prop_map(f64::from);
    (
        proptest::collection::vec(coeff.clone(), n),
        proptest::collection::vec(
            (
                proptest::collection::vec(coeff, n),
                (0..=12i32).prop_map(f64::from),
            ),
            1..6,
        ),
        (1..=5i32).prop_map(f64::from),
    )
        .prop_map(|(c, rows, cap)| Instance { c, rows, cap })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Dropping the last constraint can only raise (or keep) the optimum.
    #[test]
    fn adding_constraints_never_helps(instance in instance_strategy()) {
        let all = instance.rows.len();
        let (full, _) = build(&instance, all, instance.cap);
        let (relaxed, _) = build(&instance, all - 1, instance.cap);
        let sol_full = full.solve().unwrap();
        let sol_relaxed = relaxed.solve().unwrap();

        match (sol_full.status(), sol_relaxed.status()) {
            (LpStatus::Optimal, LpStatus::Optimal) => {
                prop_assert!(
                    sol_relaxed.objective_value()
                        >= sol_full.objective_value() - 1e-6,
                    "relaxed {} < constrained {}",
                    sol_relaxed.objective_value(),
                    sol_full.objective_value()
                );
            }
            // If the full problem is feasible, the relaxed one must be too.
            (LpStatus::Optimal, other) => {
                prop_assert!(false, "relaxation became {other:?}");
            }
            _ => {}
        }
    }

    /// Doubling every cap never lowers the optimum.
    #[test]
    fn larger_caps_never_hurt(instance in instance_strategy()) {
        let all = instance.rows.len();
        let (small, _) = build(&instance, all, instance.cap);
        let (large, _) = build(&instance, all, instance.cap * 2.0);
        let sol_small = small.solve().unwrap();
        let sol_large = large.solve().unwrap();
        if sol_small.status() == LpStatus::Optimal {
            prop_assert_eq!(sol_large.status(), LpStatus::Optimal);
            prop_assert!(
                sol_large.objective_value() >= sol_small.objective_value() - 1e-6
            );
        }
    }

    /// The reported solution always satisfies its own constraints
    /// (via constraint_activity's `satisfied` flags).
    #[test]
    fn solutions_satisfy_their_constraints(instance in instance_strategy()) {
        let (lp, vars) = build(&instance, instance.rows.len(), instance.cap);
        let sol = lp.solve().unwrap();
        if sol.status() == LpStatus::Optimal {
            for a in lp.constraint_activity(&sol, 1e-6) {
                prop_assert!(a.satisfied, "violated: lhs {} rhs {}", a.lhs, a.rhs);
            }
            for &v in &vars {
                let x = sol.value(v);
                prop_assert!((-1e-9..=instance.cap + 1e-9).contains(&x));
            }
        }
    }
}
