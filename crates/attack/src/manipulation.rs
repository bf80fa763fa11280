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
//!
//! Before an LP is built, each goal link's reachable estimate range is
//! checked against its goal: a goal the range misses by at least the
//! margin decides the LP infeasible without a solve (see
//! [`ManipulationProblem::solve`]).

use std::sync::{Arc, OnceLock};

use tomo_core::TomographySystem;
use tomo_graph::LinkId;
use tomo_linalg::{norms, CsrBuilder, CsrMatrix, Vector};
use tomo_lp::{LpProblem, LpStatus, Objective, Relation, VarId};
use tomo_obs::LazyCounter;

use crate::attacker::AttackerSet;
use crate::outcome::{AttackOutcome, AttackSuccess};
use crate::scenario::AttackScenario;
use crate::AttackError;

static OUT_OF_REACH: LazyCounter = LazyCounter::new("attack.lp.out_of_reach");

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

impl LinkGoal {
    /// The band `[low, high]` the LP holds this goal's estimate in: the
    /// goal's thresholds moved `margin` inward (either end may be
    /// infinite).
    fn band(self, scenario: &AttackScenario) -> (f64, f64) {
        let b_l = scenario.thresholds.lower();
        let b_u = scenario.thresholds.upper();
        let eps = scenario.margin;
        match self {
            LinkGoal::Normal => (f64::NEG_INFINITY, b_l - eps),
            LinkGoal::Abnormal => (b_u + eps, f64::INFINITY),
            LinkGoal::Uncertain => (b_l + eps, b_u - eps),
            LinkGoal::NormalPlausible => (0.0, b_l - eps),
        }
    }
}

/// What every manipulation LP of one coalition on one system for one
/// `x` shares, whatever its scenario or goals: the clean measurements and
/// estimate, and the LP rows of the attacked columns. Built by
/// [`AttackerSet`]'s cache (keyed by [`Self::is_for`]) and shared by
/// every [`ManipulationProblem`] of the round. Eq. (2) is linear, so a
/// manipulation only adds `A m` to the one clean estimate.
#[derive(Debug)]
pub(crate) struct AttackContext {
    /// [`TomographySystem::id`] of the system the context was built on.
    system_id: u64,
    /// The true metrics `x`, bit for bit.
    x_bits: Vec<u64>,
    /// Clean measurements `y = R x`.
    clean_measurements: Vector,
    /// Clean estimate `x̂₀` (equals the true metrics in a noise-free run).
    baseline_estimate: Vector,
    /// Sparse LP coefficient rows, links × |attacked paths|: row `j`
    /// holds the estimator entries `A[j, i]` over attacked paths `i`
    /// with `|A[j, i]| > 1e-12`, column `c` being the position of path
    /// `i` in `attacked_paths()` (= the LP variable index). Every goal
    /// and plausibility constraint is a row slice of this matrix.
    goal_rows: CsrMatrix,
    /// Per link `j`, the unscaled range `(lo_j, hi_j)` of the estimate
    /// shift: `lo_j = Σᵢ min(A[j,i], 0)` and `hi_j = Σᵢ max(A[j,i], 0)`,
    /// summed over the unfiltered attacked columns in attacked-path
    /// order from `-0.0`. Times the scenario's `path_cap` (one multiply,
    /// at use) they bound the shift over the box `m ∈ [0, cap]^S`.
    shift_sums: Vec<(f64, f64)>,
    /// Eq. (23) consistency rows `(R·A − I)[S, S]`, |attacked paths| ×
    /// |attacked paths|, same filter: row `r` is attacked path
    /// `attacked_paths()[r]`. Built by the first problem whose scenario
    /// evades detection.
    evasion_rows: OnceLock<CsrMatrix>,
}

impl AttackContext {
    /// Computes `y`, `x̂₀`, the goal rows and the shift sums of the
    /// `attacked` paths of `system` for true metrics `x` (`x.len()` is
    /// checked by the caller).
    pub(crate) fn new(
        system: &TomographySystem,
        attacked: &[usize],
        x: &Vector,
    ) -> Result<Self, AttackError> {
        let clean_measurements = system.measure(x)?;
        let baseline_estimate = system.estimate(&clean_measurements)?;
        let estimator_columns = attacked
            .iter()
            .map(|&i| system.estimator_column(i))
            .collect::<Result<Vec<_>, _>>()?;

        // Filter the attacked columns once (|A[j,i]| > 1e-12,
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
        let mut shift_sums = vec![(-0.0, -0.0); system.num_links()];
        for col in &estimator_columns {
            for ((lo, hi), &a) in shift_sums.iter_mut().zip(col.iter()) {
                *lo += a.min(0.0);
                *hi += a.max(0.0);
            }
        }

        Ok(AttackContext {
            system_id: system.id(),
            x_bits: x.iter().map(|v| v.to_bits()).collect(),
            clean_measurements,
            baseline_estimate,
            goal_rows,
            shift_sums,
            evasion_rows: OnceLock::new(),
        })
    }

    /// `true` if the context was built on `system` for exactly these
    /// bits of `x`.
    pub(crate) fn is_for(&self, system: &TomographySystem, x: &Vector) -> bool {
        self.system_id == system.id()
            && self.x_bits.len() == x.len()
            && self
                .x_bits
                .iter()
                .zip(x.iter())
                .all(|(&b, v)| b == v.to_bits())
    }

    /// Builds the Eq. (23) block on first use. Racing builders compute
    /// identical rows, and the first one stored wins.
    fn fill_evasion_rows(
        &self,
        system: &TomographySystem,
        attacked: &[usize],
    ) -> Result<(), AttackError> {
        if self.evasion_rows.get().is_some() {
            return Ok(());
        }
        // Eq. (23) on the attacked coordinates only: `I − P` is a
        // symmetric projector, so for m supported on S,
        // ‖(I − P)·m‖² = mᵀ·(I − P)[S, S]·m, and the PSD block
        // (I − P)[S, S] has exactly the null space of all |P| rows.
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
        let _ = self.evasion_rows.set(b.finish());
        Ok(())
    }
}

/// A reusable manipulation-LP factory for one (system, attackers,
/// baseline) instance. Strategies call [`ManipulationProblem::solve`]
/// with different goal sets.
///
/// The expensive pieces (the clean measurements and estimate, the
/// attacked columns of the estimator and projector as LP rows) live in
/// the attackers' cached attack context, keyed by the system's
/// [`TomographySystem::id`] and the exact bits of the true metrics: every
/// problem built on one [`AttackerSet`] for the same system and the same
/// `x` shares them, whatever its scenario, and the first stealthy one
/// adds the Eq. (23) block.
#[derive(Debug, Clone)]
pub struct ManipulationProblem<'a> {
    system: &'a TomographySystem,
    attackers: &'a AttackerSet,
    scenario: AttackScenario,
    context: Arc<AttackContext>,
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
        let context = attackers.context(system, true_metrics)?;
        if scenario.evade_detection {
            context.fill_evasion_rows(system, attackers.attacked_paths())?;
        }
        Ok(ManipulationProblem {
            system,
            attackers,
            scenario,
            context,
        })
    }

    /// The clean (pre-attack) estimate `x̂₀`.
    #[must_use]
    pub fn baseline_estimate(&self) -> &Vector {
        &self.context.baseline_estimate
    }

    /// The clean measurement vector `y`.
    #[must_use]
    pub fn clean_measurements(&self) -> &Vector {
        &self.context.clean_measurements
    }

    /// Largest achievable upward shift of link `j`'s estimate:
    /// `Σᵢ max(A[j,i], 0) · cap` over attacked paths, looked up from the
    /// shift sums of the attack context. A cheap feasibility pre-filter
    /// for victim candidates (if even this bound cannot reach `b_u`, the
    /// abnormal goal is hopeless).
    #[must_use]
    pub fn max_upward_shift(&self, link: LinkId) -> f64 {
        self.context.shift_sums[link.index()].1 * self.scenario.path_cap
    }

    /// Solves the manipulation LP for the given per-link goals.
    ///
    /// Links not mentioned in `goals` are unconstrained (the paper's
    /// formulations constrain only `L_m` and `L_s`). `victims` is the
    /// victim set `L_s` recorded on a successful outcome (it does not
    /// affect the optimization — attacker links may share the same state
    /// goal without being victims).
    ///
    /// No LP is built when some goal link's reachable estimate range
    /// misses the goal's thresholds themselves, a margin outside the band
    /// the LP's rows hold the estimate in; the attack is then
    /// [`AttackOutcome::Infeasible`], and `attack.lp.out_of_reach` counts
    /// it. Over the box `m ∈ [0, cap]^S` link `j` reaches
    /// `[x̂₀_j + lo_j·cap, x̂₀_j + hi_j·cap]` (the shift sums of
    /// [`Self::max_upward_shift`]). For the consistent and plausible
    /// evader (Theorem 3's undetectable branch) an abnormal or uncertain
    /// goal's upper end is also capped by every attacker-free measurement
    /// path `p` through `j`: consistency leaves `p`'s estimate sum at its
    /// clean value, and plausibility keeps its other links at or above
    /// `min(x̂₀_l, 0)`, so `x̂_j ≤ x̂₀_j + Σ_{l∈p, l≠j} max(x̂₀_l, 0)`. The
    /// margin of slack (1 ms in the paper's scenario, ~10⁷ times the LP
    /// tolerance) keeps every decided LP one the simplex finds infeasible
    /// too. A non-positive margin skips the check.
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
        let manipulation = self.solve_manipulation(goals, Objective::Maximize)?;
        Ok(manipulation.map_or(AttackOutcome::Infeasible, |m| {
            self.outcome_from_manipulation(m, victims)
        }))
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
        let manipulation = self.solve_manipulation(goals, Objective::Minimize)?;
        Ok(manipulation.map_or(AttackOutcome::Infeasible, |m| {
            self.outcome_from_manipulation(m, victims)
        }))
    }

    /// The manipulation LP's optimum in `direction`, clamped into
    /// `[0, cap]`, or `None` when no manipulation meets `goals`. With no
    /// attacked path only the zero manipulation exists, and it is
    /// returned only when every goal already holds at `x̂₀`. A goal out
    /// of reach gives `None` before any LP is built (see [`Self::solve`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::solve`].
    pub(crate) fn solve_manipulation(
        &self,
        goals: &[(LinkId, LinkGoal)],
        direction: Objective,
    ) -> Result<Option<Vector>, AttackError> {
        for &(l, _) in goals {
            if l.index() >= self.system.num_links() {
                return Err(AttackError::UnknownVictim { link: l });
            }
        }
        let attacked = self.attackers.attacked_paths();
        if attacked.is_empty() {
            let holds = self.goals_hold_at_baseline(goals);
            return Ok(holds.then(|| Vector::zeros(self.system.num_paths())));
        }
        if self.some_goal_out_of_reach(goals) {
            OUT_OF_REACH.inc();
            return Ok(None);
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
        let baseline = &self.context.baseline_estimate;

        for &(link, goal) in goals {
            let j = link.index();
            let base = baseline[j];
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
                debug_assert!(
                    self.goal_shortfall(goals, &manipulation) <= eps / 2.0,
                    "an optimal manipulation misses a goal by {} (margin {eps})",
                    self.goal_shortfall(goals, &manipulation)
                );
                Ok(Some(manipulation))
            }
            LpStatus::Infeasible => Ok(None),
            LpStatus::Unbounded => {
                unreachable!("capped variables make the damage objective bounded")
            }
        }
    }

    /// `true` when some goal link's reachable estimate range misses the
    /// goal's band by at least the margin, so that no manipulation meets
    /// `goals` (the check [`Self::solve`] describes). The path ceiling is
    /// computed only for the goals the box leaves open.
    fn some_goal_out_of_reach(&self, goals: &[(LinkId, LinkGoal)]) -> bool {
        let eps = self.scenario.margin;
        if eps.is_nan() || eps <= 0.0 {
            return false;
        }
        let cap = self.scenario.path_cap;
        let consistent_and_plausible =
            self.scenario.evade_detection && self.scenario.plausible_evasion;
        goals.iter().any(|&(link, goal)| {
            let j = link.index();
            let base = self.context.baseline_estimate[j];
            let (lo, hi) = self.context.shift_sums[j];
            let (band_low, band_high) = goal.band(&self.scenario);
            if base + lo * cap > band_high + eps || base + hi * cap < band_low - eps {
                return true;
            }
            consistent_and_plausible
                && matches!(goal, LinkGoal::Abnormal | LinkGoal::Uncertain)
                && self.path_ceiling(j) < band_low - eps
        })
    }

    /// The least upper bound on link `j`'s estimate that the attacker-free
    /// measurement paths through `j` give a consistent, plausible
    /// manipulation: `min_p x̂₀_j + Σ_{l∈p, l≠j} max(x̂₀_l, 0)`, which is
    /// `Σ_{l∈p} x̂₀_l − Σ_{l∈p, l≠j} min(x̂₀_l, 0)`; `+∞` when every path
    /// through `j` is attacked.
    ///
    /// The Eq. (23) rows `(P − I)[S, S]·m = 0` force `(I − P)·m = 0` (see
    /// [`AttackContext`]), so `R·x̂(m) = R·x̂₀ + m`, and on a path `p`
    /// without an attacker (`m_p = 0`) the estimates still sum to
    /// `(R·x̂₀)_p`. Every other link `l` of `p` keeps `x̂(m)_l ≥ 0` (its
    /// plausibility row, or the box bounds implying it) or, without an
    /// attacked column, `x̂(m)_l = x̂₀_l`. The clean estimates are summed,
    /// not `y`, so the bound holds under measurement noise as well.
    fn path_ceiling(&self, j: usize) -> f64 {
        let baseline = &self.context.baseline_estimate;
        let routing = self.system.routing_csr();
        self.system
            .paths_through_link(LinkId(j))
            .iter()
            .filter(|&&p| !self.attackers.controls_path(p))
            .map(|&p| {
                let others = routing.row_indices(p).iter().filter(|&&l| l != j);
                baseline[j] + others.map(|&l| baseline[l].max(0.0)).sum::<f64>()
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// The largest amount by which link estimates under `manipulation`
    /// fall outside their goals' bands, each recomputed from the context's
    /// goal rows (the LP's own coefficients); `0` when every goal holds.
    fn goal_shortfall(&self, goals: &[(LinkId, LinkGoal)], manipulation: &Vector) -> f64 {
        let attacked = self.attackers.attacked_paths();
        let goal_rows = &self.context.goal_rows;
        goals
            .iter()
            .map(|&(link, goal)| {
                let j = link.index();
                let shift: f64 = goal_rows
                    .row_indices(j)
                    .iter()
                    .zip(goal_rows.row_values(j))
                    .map(|(&c, &a)| a * manipulation[attacked[c]])
                    .sum();
                let estimate = self.context.baseline_estimate[j] + shift;
                let (low, high) = goal.band(&self.scenario);
                (low - estimate).max(estimate - high).max(0.0)
            })
            .fold(0.0, f64::max)
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
        let (lo, hi) = self.context.shift_sums[j];
        let cap = self.scenario.path_cap;
        let implied = match relation {
            Relation::Le => hi * cap < rhs,
            Relation::Ge => lo * cap > rhs,
            Relation::Eq => false,
        };
        if !implied {
            let goal_rows = &self.context.goal_rows;
            lp.add_sparse_row(
                vars,
                goal_rows.row_indices(j),
                goal_rows.row_values(j),
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
    ///   |P| rows, see [`AttackContext`]),
    /// * plausibility: `x̂(m)ⱼ ≥ 0` per link (negative delay estimates
    ///   would expose the attack to a trivial sanity check), except
    ///   where the box bounds already imply it.
    fn add_evasion_constraints(&self, lp: &mut LpProblem, vars: &[VarId]) {
        // (R·A − I)[S, S], pre-filtered into CSR rows once per context.
        let evasion = self
            .context
            .evasion_rows
            .get()
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
        let goal_rows = &self.context.goal_rows;
        for j in 0..goal_rows.rows() {
            if !goal_rows.row_indices(j).is_empty() {
                self.add_link_row(lp, vars, j, Relation::Ge, -self.baseline_estimate()[j]);
            }
        }
    }

    /// Builds the success payload for a concrete manipulation vector:
    /// one estimate and one classification.
    pub(crate) fn outcome_from_manipulation(
        &self,
        manipulation: Vector,
        victims: &[LinkId],
    ) -> AttackOutcome {
        let attacked_measurements = &self.context.clean_measurements + &manipulation;
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

    /// `true` if the zero manipulation already meets every goal, with
    /// margin, at the clean estimate.
    fn goals_hold_at_baseline(&self, goals: &[(LinkId, LinkGoal)]) -> bool {
        goals.iter().all(|&(l, g)| {
            let (low, high) = g.band(&self.scenario);
            (low..=high).contains(&self.baseline_estimate()[l.index()])
        })
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
        let evasion = prob.context.evasion_rows.get().unwrap();
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
    fn path_ceiling_sums_the_attacker_free_path() {
        // {B, C} leave one path through links 9 and 10 free (path 17,
        // M3-D-M2) and sit on every path through link 1 (a perfect cut).
        let (system, topo, mut x) = setup();
        let attackers = AttackerSet::new(&system, topo.attackers.clone()).unwrap();
        let (l1, l9, l10) = (topo.paper_link(1), topo.paper_link(9), topo.paper_link(10));
        x[l9.index()] = -50.0;
        x[l10.index()] = 120.0;
        let prob = ManipulationProblem::new(
            &system,
            &attackers,
            AttackScenario::paper_defaults_stealthy(),
            &x,
        )
        .unwrap();
        // A negative neighbour adds nothing; a positive one adds itself.
        assert!((prob.path_ceiling(l10.index()) - 120.0).abs() < 1e-9);
        assert!((prob.path_ceiling(l9.index()) - 70.0).abs() < 1e-9);
        assert_eq!(prob.path_ceiling(l1.index()), f64::INFINITY);
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
