//! The manipulation LP: the common optimization core of all three
//! scapegoating strategies.
//!
//! With estimator matrix `A = (RᵀR)⁻¹Rᵀ` and clean estimate `x̂₀`, a
//! manipulation `m` shifts the tomography output linearly:
//! `x̂(m) = x̂₀ + A m`. Since `m` is zero off the attacked paths, only
//! their columns of `A` enter the LP. Every strategy is then
//!
//! ```text
//! maximize   Σᵢ mᵢ                               (damage, Definition 2)
//! subject to mᵢ ∈ [0, cap]   for attacked paths  (Constraint 1 + cap)
//!            mᵢ = 0          elsewhere            (Constraint 1)
//!            x̂(m)ⱼ  ⋚  thresholds                 (per-link state goals)
//! ```
//!
//! differing only in which links get which state goal.

use tomo_core::TomographySystem;
use tomo_graph::LinkId;
use tomo_linalg::{norms, CsrBuilder, CsrMatrix, Vector};
use tomo_lp::{LpProblem, LpStatus, Objective, Relation, VarId};

use crate::attacker::AttackerSet;
use crate::outcome::{AttackOutcome, AttackSuccess};
use crate::scenario::AttackScenario;
use crate::AttackError;

/// The state the attacker wants tomography to report for one link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkGoal {
    /// Estimate below `b_l − margin` — constraint (5).
    Normal,
    /// Estimate above `b_u + margin` — constraint (6).
    Abnormal,
    /// Estimate inside `[b_l + margin, b_u − margin]` — constraint (10).
    Uncertain,
    /// Like [`LinkGoal::Normal`] but additionally `x̂ ≥ 0`: a *plausible*
    /// healthy link. Eq. (5) does not require non-negativity, but a
    /// negative delay estimate would instantly expose the attack to a
    /// sanity check, so precision strategies (exclusive framing) use
    /// this variant.
    NormalPlausible,
}

/// A reusable manipulation-LP factory for one (system, attackers,
/// baseline) instance. Strategies call [`ManipulationProblem::solve`]
/// with different goal sets; the expensive pieces (the attacked columns
/// of the estimator and projector, clean measurements) are fetched once.
#[derive(Debug, Clone)]
pub struct ManipulationProblem<'a> {
    system: &'a TomographySystem,
    attackers: &'a AttackerSet,
    scenario: AttackScenario,
    /// Clean measurements `y = R x`.
    clean_measurements: Vector,
    /// Clean estimate `x̂₀` (equals the true metrics in a noise-free run).
    baseline_estimate: Vector,
    /// Sparse LP coefficient rows, links × |attacked paths|: row `j`
    /// holds the estimator entries `A[j, i]` over attacked paths `i`
    /// with `|A[j, i]| > 1e-12`, column `c` being the position of path
    /// `i` in `attacked_paths()` (= the LP variable index). Built once
    /// per problem; every goal and plausibility constraint is a row
    /// slice of this matrix instead of a fresh dense scan per solve.
    goal_rows: CsrMatrix,
    /// Per link `j`, the range `(lo_j, hi_j)` of the estimate shift
    /// `Σᵢ A[j,i]·mᵢ` over the box `m ∈ [0, cap]^S`:
    /// `lo_j = Σᵢ min(A[j,i], 0)·cap` and `hi_j = Σᵢ max(A[j,i], 0)·cap`,
    /// summed over the unfiltered attacked columns in attacked-path
    /// order. A goal or plausibility row whose rhs these bounds clear
    /// strictly holds everywhere in the box and is left out of the LP.
    shift_bounds: Vec<(f64, f64)>,
    /// Eq. (23) consistency rows `(R·A − I)[S, S]`, |attacked paths| ×
    /// |attacked paths|, same filter: row `r` is attacked path
    /// `attacked_paths()[r]`. Only built when the scenario evades
    /// detection.
    evasion_rows: Option<CsrMatrix>,
}

impl<'a> ManipulationProblem<'a> {
    /// Prepares the LP factory for true link metrics `true_metrics`.
    ///
    /// # Errors
    ///
    /// * [`AttackError::BadBaseline`] if `true_metrics.len() ≠ |L|`,
    /// * propagates tomography errors.
    pub fn new(
        system: &'a TomographySystem,
        attackers: &'a AttackerSet,
        scenario: AttackScenario,
        true_metrics: &Vector,
    ) -> Result<Self, AttackError> {
        if true_metrics.len() != system.num_links() {
            return Err(AttackError::BadBaseline {
                expected: system.num_links(),
                got: true_metrics.len(),
            });
        }
        let clean_measurements = system.measure(true_metrics)?;
        let baseline_estimate = system.estimate(&clean_measurements)?;
        let attacked = attackers.attacked_paths();
        let estimator_columns = attacked
            .iter()
            .map(|&i| system.estimator_column(i))
            .collect::<Result<Vec<_>, _>>()?;

        // Filter the attacked columns once per problem (|A[j,i]| > 1e-12,
        // attacked-path order); every solve slices these rows.
        let mut goal_builder = CsrBuilder::new(attacked.len());
        for j in 0..system.num_links() {
            goal_builder
                .push_row(estimator_columns.iter().enumerate().filter_map(|(c, col)| {
                    let a = col[j];
                    (a.abs() > 1e-12).then_some((c, a))
                }))
                .expect("columns ascend with attacked-path order");
        }
        let goal_rows = goal_builder.finish();

        // Box bounds from the unfiltered columns, one contiguous pass per
        // column. Each link's sums run in attacked-path order from −0.0,
        // as `Iterator::sum` does, so `max_upward_shift` keeps its bits.
        let mut shift_bounds = vec![(-0.0, -0.0); system.num_links()];
        for col in &estimator_columns {
            for ((lo, hi), &a) in shift_bounds.iter_mut().zip(col.iter()) {
                *lo += a.min(0.0);
                *hi += a.max(0.0);
            }
        }
        for (lo, hi) in &mut shift_bounds {
            *lo *= scenario.path_cap;
            *hi *= scenario.path_cap;
        }

        // Eq. (23) on the attacked coordinates only: `I − P` is a
        // symmetric projector, so for m supported on S,
        // ‖(I − P)·m‖² = mᵀ·(I − P)[S, S]·m, and the PSD block
        // (I − P)[S, S] has exactly the null space of all |P| rows.
        let evasion_rows = if scenario.evade_detection {
            let projector_columns = attacked
                .iter()
                .map(|&i| system.projector_column(i))
                .collect::<Result<Vec<_>, _>>()?;
            let mut b = CsrBuilder::new(attacked.len());
            for &k in attacked {
                b.push_row(
                    attacked
                        .iter()
                        .zip(&projector_columns)
                        .enumerate()
                        .filter_map(|(c, (&i, col))| {
                            let mut p = col[k];
                            if i == k {
                                p -= 1.0;
                            }
                            (p.abs() > 1e-12).then_some((c, p))
                        }),
                )
                .expect("columns ascend with attacked-path order");
            }
            Some(b.finish())
        } else {
            None
        };

        Ok(ManipulationProblem {
            system,
            attackers,
            scenario,
            clean_measurements,
            baseline_estimate,
            goal_rows,
            shift_bounds,
            evasion_rows,
        })
    }

    /// The clean (pre-attack) estimate `x̂₀`.
    #[must_use]
    pub fn baseline_estimate(&self) -> &Vector {
        &self.baseline_estimate
    }

    /// The clean measurement vector `y`.
    #[must_use]
    pub fn clean_measurements(&self) -> &Vector {
        &self.clean_measurements
    }

    /// Largest achievable upward shift of link `j`'s estimate:
    /// `Σᵢ max(A[j,i], 0) · cap` over attacked paths, looked up from the
    /// box bounds computed once in [`Self::new`]. A cheap feasibility
    /// pre-filter for victim candidates (if even this bound cannot reach
    /// `b_u`, the abnormal goal is hopeless).
    #[must_use]
    pub fn max_upward_shift(&self, link: LinkId) -> f64 {
        self.shift_bounds[link.index()].1
    }

    /// Solves the manipulation LP for the given per-link goals.
    ///
    /// Links not mentioned in `goals` are unconstrained (the paper's
    /// formulations constrain only `L_m` and `L_s`). `victims` is the
    /// victim set `L_s` recorded on a successful outcome (it does not
    /// affect the optimization — attacker links may share the same state
    /// goal without being victims).
    ///
    /// # Errors
    ///
    /// * [`AttackError::UnknownVictim`] if a goal references a link
    ///   outside the graph,
    /// * propagates LP solver errors.
    pub fn solve(
        &self,
        goals: &[(LinkId, LinkGoal)],
        victims: &[LinkId],
    ) -> Result<AttackOutcome, AttackError> {
        self.solve_directed(goals, victims, Objective::Maximize)
    }

    /// Like [`Self::solve`] but **minimizing** the total manipulation
    /// `‖m‖₁` — the covert attacker's objective (see
    /// `strategy::min_effort_chosen_victim`). Feasibility is unchanged.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::solve`].
    pub fn solve_minimizing(
        &self,
        goals: &[(LinkId, LinkGoal)],
        victims: &[LinkId],
    ) -> Result<AttackOutcome, AttackError> {
        self.solve_directed(goals, victims, Objective::Minimize)
    }

    fn solve_directed(
        &self,
        goals: &[(LinkId, LinkGoal)],
        victims: &[LinkId],
        direction: Objective,
    ) -> Result<AttackOutcome, AttackError> {
        for &(l, _) in goals {
            if l.index() >= self.system.num_links() {
                return Err(AttackError::UnknownVictim { link: l });
            }
        }
        let attacked = self.attackers.attacked_paths();
        if attacked.is_empty() {
            // No manipulable path: feasible only if every goal already
            // holds at the clean estimate with margin.
            return Ok(self.zero_manipulation_outcome(goals, victims));
        }

        let mut lp = LpProblem::new(direction);
        let vars: Vec<VarId> = attacked
            .iter()
            .map(|_| {
                lp.add_variable(0.0, Some(self.scenario.path_cap))
                    .expect("valid bounds")
            })
            .collect();
        for &v in &vars {
            lp.set_objective_coefficient(v, 1.0);
        }

        let b_l = self.scenario.thresholds.lower();
        let b_u = self.scenario.thresholds.upper();
        let eps = self.scenario.margin;

        for &(link, goal) in goals {
            let j = link.index();
            let base = self.baseline_estimate[j];
            let mut push = |rel: Relation, rhs: f64| self.add_link_row(&mut lp, &vars, j, rel, rhs);
            match goal {
                LinkGoal::Normal => push(Relation::Le, b_l - eps - base),
                LinkGoal::Abnormal => push(Relation::Ge, b_u + eps - base),
                LinkGoal::Uncertain => {
                    push(Relation::Ge, b_l + eps - base);
                    push(Relation::Le, b_u - eps - base);
                }
                LinkGoal::NormalPlausible => {
                    push(Relation::Le, b_l - eps - base);
                    push(Relation::Ge, -base);
                }
            }
        }

        if self.scenario.evade_detection {
            self.add_evasion_constraints(&mut lp, &vars);
        }

        let sol = lp.solve()?;
        match sol.status() {
            LpStatus::Optimal => {
                let mut manipulation = Vector::zeros(self.system.num_paths());
                for (&i, &v) in attacked.iter().zip(vars.iter()) {
                    // Clamp LP round-off into the valid range.
                    manipulation[i] = sol.value(v).clamp(0.0, self.scenario.path_cap);
                }
                Ok(self.outcome_from_manipulation(manipulation, victims))
            }
            LpStatus::Infeasible => Ok(AttackOutcome::Infeasible),
            LpStatus::Unbounded => {
                unreachable!("capped variables make the damage objective bounded")
            }
        }
    }

    /// Adds link `j`'s estimate-shift row `Σᵢ A[j,i]·mᵢ  relation  rhs`
    /// unless the box bounds clear `rhs` strictly: a `Le` row with
    /// `hi_j < rhs` or a `Ge` row with `lo_j > rhs` holds for every `m`
    /// in `[0, cap]^S`. The bounds sum the unfiltered columns, so they
    /// enclose the filtered row's range and a skipped row holds
    /// everywhere in the box.
    fn add_link_row(
        &self,
        lp: &mut LpProblem,
        vars: &[VarId],
        j: usize,
        relation: Relation,
        rhs: f64,
    ) {
        let (lo, hi) = self.shift_bounds[j];
        let implied = match relation {
            Relation::Le => hi < rhs,
            Relation::Ge => lo > rhs,
            Relation::Eq => false,
        };
        if !implied {
            lp.add_sparse_row(
                vars,
                self.goal_rows.row_indices(j),
                self.goal_rows.row_values(j),
                relation,
                rhs,
            )
            .expect("finite coefficients, ascending columns");
        }
    }

    /// Adds the detection-evasion constraints of Theorem 3's
    /// undetectable branch:
    ///
    /// * consistency: `(R A − I)[k, S]·m = 0`, one row per attacked path
    ///   `k`, so the Eq. (23) check `R x̂ = y′` holds with equality on
    ///   every measurement path (the S-block has the null space of all
    ///   |P| rows, see [`Self::new`]),
    /// * plausibility: `x̂(m)ⱼ ≥ 0` per link (negative delay estimates
    ///   would expose the attack to a trivial sanity check), except
    ///   where the box bounds already imply it.
    fn add_evasion_constraints(&self, lp: &mut LpProblem, vars: &[VarId]) {
        // (R·A − I)[S, S], pre-filtered into CSR rows at construction
        // (computed once, not per LP solve).
        let evasion = self
            .evasion_rows
            .as_ref()
            .expect("evasion rows built when scenario.evade_detection");
        for i in 0..evasion.rows() {
            let cols = evasion.row_indices(i);
            if !cols.is_empty() {
                lp.add_sparse_row(vars, cols, evasion.row_values(i), Relation::Eq, 0.0)
                    .expect("finite coefficients, ascending columns");
            }
        }
        if !self.scenario.plausible_evasion {
            return; // the gap exploit: consistent but implausible
        }
        for j in 0..self.goal_rows.rows() {
            if !self.goal_rows.row_indices(j).is_empty() {
                self.add_link_row(lp, vars, j, Relation::Ge, -self.baseline_estimate[j]);
            }
        }
    }

    /// Builds the success payload for a concrete manipulation vector.
    fn outcome_from_manipulation(&self, manipulation: Vector, victims: &[LinkId]) -> AttackOutcome {
        let attacked_measurements = &self.clean_measurements + &manipulation;
        let estimate = self
            .system
            .estimate(&attacked_measurements)
            .expect("dimensions fixed by construction");
        let states = self.system.classify(&estimate, &self.scenario.thresholds);
        AttackOutcome::Success(AttackSuccess {
            damage: norms::l1(&manipulation),
            manipulation,
            estimate,
            states,
            victims: victims.to_vec(),
        })
    }

    /// Outcome when the attacker cannot touch any path: the zero
    /// manipulation either already satisfies all goals or the attack is
    /// infeasible.
    fn zero_manipulation_outcome(
        &self,
        goals: &[(LinkId, LinkGoal)],
        victims: &[LinkId],
    ) -> AttackOutcome {
        let b_l = self.scenario.thresholds.lower();
        let b_u = self.scenario.thresholds.upper();
        let eps = self.scenario.margin;
        let ok = goals.iter().all(|&(l, g)| {
            let v = self.baseline_estimate[l.index()];
            match g {
                LinkGoal::Normal => v <= b_l - eps,
                LinkGoal::Abnormal => v >= b_u + eps,
                LinkGoal::Uncertain => (b_l + eps..=b_u - eps).contains(&v),
                LinkGoal::NormalPlausible => v >= 0.0 && v <= b_l - eps,
            }
        });
        if ok {
            self.outcome_from_manipulation(Vector::zeros(self.system.num_paths()), victims)
        } else {
            AttackOutcome::Infeasible
        }
    }
}

/// Verifies Constraint 1 on a manipulation vector: non-negative
/// everywhere, zero on paths without an attacker, and within the cap.
/// Used by tests and by downstream consumers that receive manipulation
/// vectors from untrusted strategy code.
#[must_use]
pub fn satisfies_constraint_1(
    manipulation: &Vector,
    attackers: &AttackerSet,
    cap: f64,
    tol: f64,
) -> bool {
    manipulation.iter().enumerate().all(|(i, &m)| {
        let in_range = (-tol..=cap + tol).contains(&m);
        let allowed = attackers.controls_path(i) || m.abs() <= tol;
        in_range && allowed
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tomo_core::fig1;
    use tomo_core::LinkState;

    fn setup() -> (
        tomo_core::TomographySystem,
        tomo_graph::topology::Fig1Topology,
        Vector,
    ) {
        let system = fig1::fig1_system().unwrap();
        let topo = fig1::fig1_topology();
        let x = Vector::filled(10, 10.0);
        (system, topo, x)
    }

    #[test]
    fn baseline_estimate_equals_truth_noise_free() {
        let (system, topo, x) = setup();
        let attackers = AttackerSet::new(&system, topo.attackers.clone()).unwrap();
        let prob =
            ManipulationProblem::new(&system, &attackers, AttackScenario::paper_defaults(), &x)
                .unwrap();
        assert!(prob.baseline_estimate().approx_eq(&x, 1e-8));
        assert_eq!(prob.clean_measurements().len(), 23);
    }

    #[test]
    fn abnormal_goal_on_perfectly_cut_link_succeeds() {
        let (system, topo, x) = setup();
        let attackers = AttackerSet::new(&system, topo.attackers.clone()).unwrap();
        let prob =
            ManipulationProblem::new(&system, &attackers, AttackScenario::paper_defaults(), &x)
                .unwrap();
        let victim = topo.paper_link(1);
        let mut goals = vec![(victim, LinkGoal::Abnormal)];
        for &l in attackers.controlled_links() {
            goals.push((l, LinkGoal::Normal));
        }
        let outcome = prob.solve(&goals, &[victim]).unwrap();
        let s = outcome.success().expect("perfect cut must be feasible");
        assert_eq!(s.states[victim.index()], LinkState::Abnormal);
        for &l in attackers.controlled_links() {
            assert_eq!(s.states[l.index()], LinkState::Normal, "link {l}");
        }
        assert!(s.damage > 0.0);
        assert!(satisfies_constraint_1(
            &s.manipulation,
            &attackers,
            2000.0,
            1e-6
        ));
    }

    #[test]
    fn solution_is_damage_maximal_not_just_feasible() {
        // The LP maximizes ‖m‖₁; every attacked path must be driven to a
        // binding constraint (cap or a state constraint). Sanity check:
        // damage strictly exceeds what the minimum framing needs.
        let (system, topo, x) = setup();
        let attackers = AttackerSet::new(&system, topo.attackers.clone()).unwrap();
        let prob =
            ManipulationProblem::new(&system, &attackers, AttackScenario::paper_defaults(), &x)
                .unwrap();
        let victim = topo.paper_link(1);
        let goals = vec![(victim, LinkGoal::Abnormal)];
        let unconstrained = prob
            .solve(&goals, &[victim])
            .unwrap()
            .into_success()
            .unwrap();
        // With no normal-goals, the attacker can saturate caps on many
        // paths: damage should be large (at least several caps' worth).
        assert!(
            unconstrained.damage >= 3.0 * 2000.0,
            "damage {}",
            unconstrained.damage
        );
    }

    #[test]
    fn impossible_goal_is_infeasible() {
        let (system, topo, x) = setup();
        let attackers = AttackerSet::new(&system, topo.attackers.clone()).unwrap();
        // Margin cannot exceed the band: force normal AND abnormal on the
        // same link.
        let prob =
            ManipulationProblem::new(&system, &attackers, AttackScenario::paper_defaults(), &x)
                .unwrap();
        let l = topo.paper_link(9);
        let outcome = prob
            .solve(&[(l, LinkGoal::Normal), (l, LinkGoal::Abnormal)], &[l])
            .unwrap();
        assert!(!outcome.is_success());
    }

    #[test]
    fn unknown_victim_rejected() {
        let (system, topo, x) = setup();
        let attackers = AttackerSet::new(&system, topo.attackers.clone()).unwrap();
        let prob =
            ManipulationProblem::new(&system, &attackers, AttackScenario::paper_defaults(), &x)
                .unwrap();
        assert!(matches!(
            prob.solve(&[(LinkId(99), LinkGoal::Abnormal)], &[]),
            Err(AttackError::UnknownVictim { .. })
        ));
    }

    #[test]
    fn bad_baseline_rejected() {
        let (system, topo, _) = setup();
        let attackers = AttackerSet::new(&system, topo.attackers.clone()).unwrap();
        assert!(matches!(
            ManipulationProblem::new(
                &system,
                &attackers,
                AttackScenario::paper_defaults(),
                &Vector::zeros(3),
            ),
            Err(AttackError::BadBaseline { .. })
        ));
    }

    #[test]
    fn max_upward_shift_bounds_actual_shift() {
        let (system, topo, x) = setup();
        let attackers = AttackerSet::new(&system, topo.attackers.clone()).unwrap();
        let prob =
            ManipulationProblem::new(&system, &attackers, AttackScenario::paper_defaults(), &x)
                .unwrap();
        let victim = topo.paper_link(10);
        let outcome = prob
            .solve(&[(victim, LinkGoal::Abnormal)], &[victim])
            .unwrap();
        if let Some(s) = outcome.success() {
            let shift = s.estimate[victim.index()] - x[victim.index()];
            assert!(shift <= prob.max_upward_shift(victim) + 1e-6);
        }
    }

    #[test]
    fn max_upward_shift_is_the_column_sum_bit_for_bit() {
        let (system, topo, x) = setup();
        let attackers = AttackerSet::new(&system, topo.attackers.clone()).unwrap();
        let scenario = AttackScenario::paper_defaults();
        let prob = ManipulationProblem::new(&system, &attackers, scenario, &x).unwrap();
        let columns: Vec<&Vector> = attackers
            .attacked_paths()
            .iter()
            .map(|&i| system.estimator_column(i).unwrap())
            .collect();
        for j in 0..system.num_links() {
            let column_sum =
                columns.iter().map(|col| col[j].max(0.0)).sum::<f64>() * scenario.path_cap;
            assert_eq!(
                prob.max_upward_shift(LinkId(j)).to_bits(),
                column_sum.to_bits(),
                "link {j}"
            );
        }
    }

    #[test]
    fn evasion_rows_are_the_attacked_block() {
        let (system, topo, x) = setup();
        let attackers = AttackerSet::new(&system, topo.attackers.clone()).unwrap();
        let prob = ManipulationProblem::new(
            &system,
            &attackers,
            AttackScenario::paper_defaults_stealthy(),
            &x,
        )
        .unwrap();
        let evasion = prob.evasion_rows.as_ref().unwrap();
        assert_eq!(evasion.rows(), attackers.attacked_paths().len());
        assert!(evasion.rows() < system.num_paths());
    }

    #[test]
    fn empty_goals_maximize_pure_damage() {
        let (system, topo, x) = setup();
        let attackers = AttackerSet::new(&system, topo.attackers.clone()).unwrap();
        let prob =
            ManipulationProblem::new(&system, &attackers, AttackScenario::paper_defaults(), &x)
                .unwrap();
        let outcome = prob.solve(&[], &[]).unwrap();
        let s = outcome.success().unwrap();
        // Unconstrained: every attacked path saturates the cap.
        let expected = attackers.attacked_paths().len() as f64 * 2000.0;
        assert!((s.damage - expected).abs() < 1e-3);
    }

    #[test]
    fn stealthy_attack_on_perfect_cut_is_consistent() {
        let (system, topo, x) = setup();
        let attackers = AttackerSet::new(&system, topo.attackers.clone()).unwrap();
        let prob = ManipulationProblem::new(
            &system,
            &attackers,
            AttackScenario::paper_defaults_stealthy(),
            &x,
        )
        .unwrap();
        let victim = topo.paper_link(1); // perfectly cut by {B, C}
        let mut goals = vec![(victim, LinkGoal::Abnormal)];
        for &l in attackers.controlled_links() {
            goals.push((l, LinkGoal::Normal));
        }
        let outcome = prob.solve(&goals, &[victim]).unwrap();
        let s = outcome
            .success()
            .expect("Theorem 3: perfect cut admits an undetectable attack");
        // The consistency residual ‖R x̂ − y′‖₁ vanishes.
        let y_attacked = &prob.clean_measurements().clone() + &s.manipulation;
        let reproj = system
            .routing_csr()
            .to_dense()
            .mul_vec(&s.estimate)
            .unwrap();
        let residual = tomo_linalg::norms::l1(&(&reproj - &y_attacked));
        assert!(residual < 1e-4, "residual {residual}");
        assert_eq!(s.states[victim.index()], tomo_core::LinkState::Abnormal);
    }

    #[test]
    fn stealthy_attack_on_imperfect_cut_is_infeasible() {
        let (system, topo, x) = setup();
        let attackers = AttackerSet::new(&system, topo.attackers.clone()).unwrap();
        let prob = ManipulationProblem::new(
            &system,
            &attackers,
            AttackScenario::paper_defaults_stealthy(),
            &x,
        )
        .unwrap();
        let victim = topo.paper_link(10); // NOT perfectly cut
        let mut goals = vec![(victim, LinkGoal::Abnormal)];
        for &l in attackers.controlled_links() {
            goals.push((l, LinkGoal::Normal));
        }
        let outcome = prob.solve(&goals, &[victim]).unwrap();
        assert!(
            !outcome.is_success(),
            "Theorem 3: imperfect cut cannot evade the consistency check"
        );
    }

    #[test]
    fn constraint_1_checker() {
        let (system, topo, _) = setup();
        let attackers = AttackerSet::new(&system, topo.attackers.clone()).unwrap();
        let n = system.num_paths();
        assert!(satisfies_constraint_1(
            &Vector::zeros(n),
            &attackers,
            100.0,
            1e-9
        ));
        // Negative entry fails.
        let mut neg = Vector::zeros(n);
        neg[attackers.attacked_paths()[0]] = -1.0;
        assert!(!satisfies_constraint_1(&neg, &attackers, 100.0, 1e-9));
        // Entry on a non-attacked path fails.
        if let Some(free) = (0..n).find(|i| !attackers.controls_path(*i)) {
            let mut bad = Vector::zeros(n);
            bad[free] = 1.0;
            assert!(!satisfies_constraint_1(&bad, &attackers, 100.0, 1e-9));
        }
        // Over-cap fails.
        let mut over = Vector::zeros(n);
        over[attackers.attacked_paths()[0]] = 101.0;
        assert!(!satisfies_constraint_1(&over, &attackers, 100.0, 1e-9));
    }
}
