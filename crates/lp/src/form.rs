//! The standard form both simplex backends solve.
//!
//! [`StandardForm::new`] turns an [`LpProblem`] into `min cᵀx', Ax' = b,
//! x' ≥ 0, b ≥ 0` over the shifted structural variables `x' = x − lower`:
//!
//! * rows: the user constraints, then one `x'_j ≤ upper_j − lower_j` row
//!   per variable with an upper bound;
//! * each constraint's rhs loses `Σ a·lower_j`, summed in term order;
//! * a row whose rhs is negative is flipped: terms and rhs negated,
//!   `Le` ↔ `Ge`, `Eq` stays `Eq`;
//! * columns: `[structural | slack/surplus | artificial]`, one slack
//!   (`+1`) per `Le` row, one surplus (`−1`) per `Ge` row and one
//!   artificial per `Ge` or `Eq` row, each numbered in row order. A row
//!   starts with its artificial basic if it has one, its slack otherwise.
//!
//! Rows keep the model's sparse terms by reference; each backend
//! scatters them into its own basis representation.

use crate::model::{LpProblem, Relation};

/// A row's structural entries.
enum Terms<'p> {
    /// A user constraint's terms, in term order.
    Constraint(&'p [(usize, f64)]),
    /// The upper-bound row of structural variable `j`: one entry, `1.0`.
    Upper(usize),
}

/// One standard-form row.
pub(crate) struct Row<'p> {
    terms: Terms<'p>,
    /// Whether the terms are negated (the shifted rhs was negative).
    negated: bool,
    /// The shifted rhs, ≥ 0 after the flip.
    pub(crate) rhs: f64,
    /// The slack (`+1.0`) or surplus (`−1.0`) column, if the row has one.
    pub(crate) slack: Option<(usize, f64)>,
    /// The artificial column, if the row has one.
    pub(crate) artificial: Option<usize>,
}

impl Row<'_> {
    /// Calls `f(j, a)` for each structural entry, in term order.
    pub(crate) fn for_each_term(&self, mut f: impl FnMut(usize, f64)) {
        let sign = |a: f64| if self.negated { -a } else { a };
        match self.terms {
            Terms::Constraint(terms) => terms.iter().for_each(|&(j, a)| f(j, sign(a))),
            Terms::Upper(j) => f(j, sign(1.0)),
        }
    }

    /// The column basic in this row at the start of phase 1.
    pub(crate) fn initial_basic(&self) -> usize {
        self.artificial
            .or(self.slack.map(|(s, _)| s))
            .expect("every row has a slack or an artificial")
    }
}

/// The standard form of one [`LpProblem`].
pub(crate) struct StandardForm<'p> {
    pub(crate) problem: &'p LpProblem,
    pub(crate) rows: Vec<Row<'p>>,
    /// Rows.
    pub(crate) m: usize,
    /// Structural columns, one per model variable.
    pub(crate) n_struct: usize,
    /// The artificial columns are `first_artificial..ncols`.
    pub(crate) first_artificial: usize,
    /// Columns.
    pub(crate) ncols: usize,
}

impl<'p> StandardForm<'p> {
    /// Builds the standard form of `problem`.
    pub(crate) fn new(problem: &'p LpProblem) -> Self {
        let n_struct = problem.variables.len();
        let mut rows: Vec<Row<'p>> = Vec::with_capacity(problem.constraints.len() + n_struct);
        let (mut n_slack, mut n_art) = (0, 0);
        let mut push = |terms: Terms<'p>, relation: Relation, rhs: f64| {
            let negated = rhs < 0.0;
            let relation = match (negated, relation) {
                (true, Relation::Le) => Relation::Ge,
                (true, Relation::Ge) => Relation::Le,
                (_, relation) => relation,
            };
            let slack = match relation {
                Relation::Le => Some((n_struct + n_slack, 1.0)),
                Relation::Ge => Some((n_struct + n_slack, -1.0)),
                Relation::Eq => None,
            };
            n_slack += usize::from(slack.is_some());
            // Numbered among the artificials until `first_artificial` is known.
            let artificial = (relation != Relation::Le).then_some(n_art);
            n_art += usize::from(artificial.is_some());
            rows.push(Row {
                terms,
                negated,
                rhs: if negated { -rhs } else { rhs },
                slack,
                artificial,
            });
        };
        for c in &problem.constraints {
            let mut shift = 0.0;
            for &(j, a) in &c.terms {
                shift += a * problem.variables[j].lower;
            }
            push(Terms::Constraint(&c.terms), c.relation, c.rhs - shift);
        }
        for (j, v) in problem.variables.iter().enumerate() {
            if let Some(u) = v.upper {
                push(Terms::Upper(j), Relation::Le, u - v.lower);
            }
        }
        let first_artificial = n_struct + n_slack;
        for a in rows.iter_mut().filter_map(|r| r.artificial.as_mut()) {
            *a += first_artificial;
        }
        StandardForm {
            problem,
            m: rows.len(),
            rows,
            n_struct,
            first_artificial,
            ncols: first_artificial + n_art,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::StandardForm;
    use crate::{LpProblem, Objective, Relation};

    fn dims(lp: &LpProblem) -> (usize, usize) {
        let form = StandardForm::new(lp);
        (form.m, form.ncols)
    }

    #[test]
    fn standard_form_counts_rows_and_columns() {
        // min 2x + 3y s.t. x + y ≥ 10, x − y = 2.5, x, y ∈ [0, 100]:
        // Ge + Eq rows plus two upper-bound rows → m = 4; slacks: Ge
        // surplus + 2 upper-bound slacks = 3; artificials: Ge + Eq = 2;
        // ncols = 2 structural + 3 + 2.
        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_variable(0.0, Some(100.0)).unwrap();
        let y = lp.add_variable(0.0, Some(100.0)).unwrap();
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 10.0)
            .unwrap();
        lp.add_constraint(&[(x, 1.0), (y, -1.0)], Relation::Eq, 2.5)
            .unwrap();
        assert_eq!(dims(&lp), (4, 7));

        // A negative-rhs Le row flips to Ge and gains an artificial.
        let mut neg = LpProblem::new(Objective::Minimize);
        let x = neg.add_variable(0.0, None).unwrap();
        neg.set_objective_coefficient(x, 1.0);
        neg.add_constraint(&[(x, -1.0)], Relation::Le, -3.0)
            .unwrap();
        // m = 1; slack (surplus after the flip) = 1; artificial = 1.
        assert_eq!(dims(&neg), (1, 3));

        // Lower-bound shifts change the effective rhs sign: x ≥ 5 with
        // rhs 2 becomes x' ≥ -3, normalized to a Le row (slack, no
        // artificial).
        let mut shifted = LpProblem::new(Objective::Minimize);
        let x = shifted.add_variable(5.0, None).unwrap();
        shifted.set_objective_coefficient(x, 1.0);
        shifted
            .add_constraint(&[(x, 1.0)], Relation::Ge, 2.0)
            .unwrap();
        assert_eq!(dims(&shifted), (1, 2));
    }

    #[test]
    fn rows_carry_the_flip_and_the_column_layout() {
        // With x ≥ 1 shifted to x' = x − 1:
        // row 0: x − 2y ≥ 4 becomes x' − 2y ≥ 3: surplus 2, artificial 5;
        // row 1: x + y ≤ −1 becomes x' + y ≤ −2, flipped to
        //        −x' − y ≥ 2: surplus 3, artificial 6;
        // row 2: the upper bound y ≤ 4: slack 4, basic.
        let mut lp = LpProblem::new(Objective::Minimize);
        let x = lp.add_variable(1.0, None).unwrap();
        let y = lp.add_variable(0.0, Some(4.0)).unwrap();
        lp.add_constraint(&[(x, 1.0), (y, -2.0)], Relation::Ge, 4.0)
            .unwrap();
        lp.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, -1.0)
            .unwrap();
        let form = StandardForm::new(&lp);
        assert_eq!((form.m, form.first_artificial, form.ncols), (3, 5, 7));
        let rows: Vec<_> = form
            .rows
            .iter()
            .map(|r| {
                let mut terms = Vec::new();
                r.for_each_term(|j, a| terms.push((j, a)));
                (terms, r.rhs, r.slack, r.artificial, r.initial_basic())
            })
            .collect();
        assert_eq!(
            rows,
            vec![
                (vec![(0, 1.0), (1, -2.0)], 3.0, Some((2, -1.0)), Some(5), 5),
                (vec![(0, -1.0), (1, -1.0)], 2.0, Some((3, -1.0)), Some(6), 6),
                (vec![(1, 1.0)], 4.0, Some((4, 1.0)), None, 4),
            ]
        );
    }
}
