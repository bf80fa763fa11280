//! The three scapegoating strategies (Section III-C).

use tomo_core::TomographySystem;
use tomo_graph::LinkId;
use tomo_linalg::{norms, Vector};
use tomo_lp::{Objective, WarmStart};
use tomo_obs::{LazyCounter, LazyHistogram};

use crate::attacker::AttackerSet;
use crate::manipulation::{LinkGoal, ManipulationProblem};
use crate::outcome::AttackOutcome;
use crate::scenario::AttackScenario;
use crate::AttackError;

static CHOSEN_FEASIBLE: LazyCounter = LazyCounter::new("attack.chosen_victim.feasible");
static CHOSEN_INFEASIBLE: LazyCounter = LazyCounter::new("attack.chosen_victim.infeasible");
static CHOSEN_DAMAGE: LazyHistogram = LazyHistogram::new("attack.chosen_victim.damage");
static MAXDMG_FEASIBLE: LazyCounter = LazyCounter::new("attack.max_damage.feasible");
static MAXDMG_INFEASIBLE: LazyCounter = LazyCounter::new("attack.max_damage.infeasible");
static MAXDMG_DAMAGE: LazyHistogram = LazyHistogram::new("attack.max_damage.damage");
static OBFUSC_FEASIBLE: LazyCounter = LazyCounter::new("attack.obfuscation.feasible");
static OBFUSC_INFEASIBLE: LazyCounter = LazyCounter::new("attack.obfuscation.infeasible");
static OBFUSC_DAMAGE: LazyHistogram = LazyHistogram::new("attack.obfuscation.damage");

/// Bumps the per-strategy feasible/infeasible counter and, on success,
/// records the achieved damage.
fn record_outcome(
    feasible: &LazyCounter,
    infeasible: &LazyCounter,
    damage: &LazyHistogram,
    outcome: &AttackOutcome,
) {
    match outcome.success() {
        Some(s) => {
            feasible.inc();
            damage.record(s.damage);
        }
        None => infeasible.inc(),
    }
}

/// Chosen-victim scapegoating (Eq. 4-7): frame exactly the given victim
/// links while every attacker-controlled link stays normal-looking, and
/// maximize the damage `‖m‖₁`.
///
/// ```
/// use tomo_attack::{attacker::AttackerSet, scenario::AttackScenario, strategy};
/// use tomo_core::{fig1, LinkState};
/// use tomo_linalg::Vector;
///
/// # fn main() -> Result<(), tomo_attack::AttackError> {
/// let system = fig1::fig1_system().unwrap();
/// let topo = fig1::fig1_topology();
/// let attackers = AttackerSet::new(&system, topo.attackers.clone())?;
/// let x = Vector::filled(10, 10.0);
/// let outcome = strategy::chosen_victim(
///     &system, &attackers, &AttackScenario::paper_defaults(), &x,
///     &[topo.paper_link(10)],
/// )?;
/// let s = outcome.success().expect("feasible on Fig. 1");
/// assert_eq!(s.states[9], LinkState::Abnormal);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// * [`AttackError::NoVictims`] for an empty victim set,
/// * [`AttackError::VictimControlledByAttacker`] if `L_s ∩ L_m ≠ ∅`
///   (Eq. 7),
/// * [`AttackError::UnknownVictim`] / construction errors.
pub fn chosen_victim(
    system: &TomographySystem,
    attackers: &AttackerSet,
    scenario: &AttackScenario,
    true_metrics: &Vector,
    victims: &[LinkId],
) -> Result<AttackOutcome, AttackError> {
    check_victims(system, attackers, victims)?;
    let prob = ManipulationProblem::new(system, attackers, *scenario, true_metrics)?;
    let outcome = prob.solve(&chosen_victim_goals(attackers, victims), victims)?;
    record_outcome(
        &CHOSEN_FEASIBLE,
        &CHOSEN_INFEASIBLE,
        &CHOSEN_DAMAGE,
        &outcome,
    );
    Ok(outcome)
}

/// Inert forward to [`chosen_victim`], kept only because the benchmark in
/// `perfbench/` still calls it: the `_warm` handle is ignored and every
/// solve runs cold. The name goes once the benchmark stops calling it.
///
/// # Errors
///
/// Same contract as [`chosen_victim`].
pub fn chosen_victim_warm(
    system: &TomographySystem,
    attackers: &AttackerSet,
    scenario: &AttackScenario,
    true_metrics: &Vector,
    victims: &[LinkId],
    _warm: Option<&WarmStart>,
) -> Result<AttackOutcome, AttackError> {
    chosen_victim(system, attackers, scenario, true_metrics, victims)
}

/// The victim-set contract shared by the chosen-victim strategies and
/// the perfect-cut construction: at least one victim, every victim a
/// link of `system`, none controlled by the attackers (Eq. 7).
pub(crate) fn check_victims(
    system: &TomographySystem,
    attackers: &AttackerSet,
    victims: &[LinkId],
) -> Result<(), AttackError> {
    if victims.is_empty() {
        return Err(AttackError::NoVictims);
    }
    for &v in victims {
        if v.index() >= system.num_links() {
            return Err(AttackError::UnknownVictim { link: v });
        }
        if attackers.controls_link(v) {
            return Err(AttackError::VictimControlledByAttacker { link: v });
        }
    }
    Ok(())
}

/// The chosen-victim goals (Eq. 5-6): every victim abnormal, every
/// attacker-controlled link normal.
fn chosen_victim_goals(attackers: &AttackerSet, victims: &[LinkId]) -> Vec<(LinkId, LinkGoal)> {
    victims
        .iter()
        .map(|&v| (v, LinkGoal::Abnormal))
        .chain(
            attackers
                .controlled_links()
                .iter()
                .map(|&l| (l, LinkGoal::Normal)),
        )
        .collect()
}

/// Chosen-victim scapegoating with *exclusive framing*: like
/// [`chosen_victim`], but every non-victim link — not only the
/// attacker-controlled ones — is additionally constrained to classify
/// *normal*, so the blame points unambiguously at the victims.
///
/// This is the variant behind the paper's Fig. 4, where links 1-9 all
/// sit visibly below the normal threshold and only link 10 spikes. It
/// trades damage for precision: its optimum never exceeds
/// [`chosen_victim`]'s on the same instance.
///
/// # Errors
///
/// Same contract as [`chosen_victim`].
pub fn chosen_victim_exclusive(
    system: &TomographySystem,
    attackers: &AttackerSet,
    scenario: &AttackScenario,
    true_metrics: &Vector,
    victims: &[LinkId],
) -> Result<AttackOutcome, AttackError> {
    check_victims(system, attackers, victims)?;
    let prob = ManipulationProblem::new(system, attackers, *scenario, true_metrics)?;
    let goals: Vec<(LinkId, LinkGoal)> = (0..system.num_links())
        .map(LinkId)
        .map(|l| {
            if victims.contains(&l) {
                (l, LinkGoal::Abnormal)
            } else {
                (l, LinkGoal::NormalPlausible)
            }
        })
        .collect();
    let outcome = prob.solve(&goals, victims)?;
    record_outcome(
        &CHOSEN_FEASIBLE,
        &CHOSEN_INFEASIBLE,
        &CHOSEN_DAMAGE,
        &outcome,
    );
    Ok(outcome)
}

/// Maximum-damage scapegoating (Eq. 8): search all single-link victim
/// candidates `l ∉ L_m` and return the feasible attack with the largest
/// damage.
///
/// Enumerating singletons attains the optimum of Eq. (8): a larger victim
/// set only adds constraints, so it can never beat its best singleton
/// subset — yet the returned attack may still push *additional* links
/// over `b_u` as a side effect, exactly as the paper's Fig. 5 shows two
/// abnormal links.
///
/// ```
/// use tomo_attack::{attacker::AttackerSet, scenario::AttackScenario, strategy};
/// use tomo_core::fig1;
/// use tomo_linalg::Vector;
///
/// # fn main() -> Result<(), tomo_attack::AttackError> {
/// let system = fig1::fig1_system().unwrap();
/// let topo = fig1::fig1_topology();
/// let attackers = AttackerSet::new(&system, topo.attackers.clone())?;
/// let x = Vector::filled(10, 10.0);
/// let best = strategy::max_damage(
///     &system, &attackers, &AttackScenario::paper_defaults(), &x,
/// )?;
/// assert!(best.success().expect("feasible").damage > 0.0);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Propagates construction errors; an exhausted search returns
/// [`AttackOutcome::Infeasible`].
pub fn max_damage(
    system: &TomographySystem,
    attackers: &AttackerSet,
    scenario: &AttackScenario,
    true_metrics: &Vector,
) -> Result<AttackOutcome, AttackError> {
    let prob = ManipulationProblem::new(system, attackers, *scenario, true_metrics)?;
    let b_u = scenario.thresholds.upper();
    // The best (damage, manipulation, victim) so far; only the winner's
    // outcome is built.
    let mut best: Option<(f64, Vector, LinkId)> = None;
    for j in 0..system.num_links() {
        let victim = LinkId(j);
        if attackers.controls_link(victim) {
            continue;
        }
        // Cheap bound: if even saturating every attacked path cannot lift
        // this link's estimate past b_u, skip the LP.
        let needed = b_u + scenario.margin - prob.baseline_estimate()[j];
        if prob.max_upward_shift(victim) < needed {
            continue;
        }
        let goals = chosen_victim_goals(attackers, &[victim]);
        if let Some(m) = prob.solve_manipulation(&goals, Objective::Maximize)? {
            let damage = norms::l1(&m);
            if best.as_ref().is_none_or(|(b, _, _)| damage > *b) {
                best = Some((damage, m, victim));
            }
        }
    }
    let outcome = best.map_or(AttackOutcome::Infeasible, |(_, m, victim)| {
        prob.outcome_from_manipulation(m, &[victim])
    });
    record_outcome(
        &MAXDMG_FEASIBLE,
        &MAXDMG_INFEASIBLE,
        &MAXDMG_DAMAGE,
        &outcome,
    );
    Ok(outcome)
}

/// Inert forward to [`max_damage`], kept only because the benchmark in
/// `perfbench/` still calls it: the `_warm` handle is ignored and every
/// solve runs cold. The name goes once the benchmark stops calling it.
///
/// # Errors
///
/// Same contract as [`max_damage`].
pub fn max_damage_warm(
    system: &TomographySystem,
    attackers: &AttackerSet,
    scenario: &AttackScenario,
    true_metrics: &Vector,
    _warm: Option<&WarmStart>,
) -> Result<AttackOutcome, AttackError> {
    max_damage(system, attackers, scenario, true_metrics)
}

/// Minimum-effort scapegoating: the dual of [`chosen_victim`] — satisfy
/// exactly the same framing constraints (victims abnormal, attacker
/// links normal) while **minimizing** the total manipulation `‖m‖₁`.
///
/// The paper's attacker maximizes damage; a *covert* attacker who only
/// wants the operator to chase the scapegoat would minimize footprint
/// instead: less injected delay means less collateral evidence
/// (smaller residuals under noise, fewer affected flows). Feasibility is
/// identical to [`chosen_victim`] — only the objective differs.
///
/// # Errors
///
/// Same contract as [`chosen_victim`].
pub fn min_effort_chosen_victim(
    system: &TomographySystem,
    attackers: &AttackerSet,
    scenario: &AttackScenario,
    true_metrics: &Vector,
    victims: &[LinkId],
) -> Result<AttackOutcome, AttackError> {
    check_victims(system, attackers, victims)?;
    let prob = ManipulationProblem::new(system, attackers, *scenario, true_metrics)?;
    prob.solve_minimizing(&chosen_victim_goals(attackers, victims), victims)
}

/// Node scapegoating: frame a *node* rather than a link — the paper's
/// Section II-D question ("can B and C make some other node like D the
/// scapegoat?") and the Fig. 1 narrative ("link 1 or its end-node A
/// might have some issues").
///
/// The victim set is every link incident to `victim_node` that the
/// attackers do not control; making them all look abnormal points the
/// diagnosis at the node itself.
///
/// # Errors
///
/// * [`AttackError::NoVictims`] if every incident link is
///   attacker-controlled (framing would implicate the attackers) or the
///   node is isolated,
/// * [`AttackError::UnknownAttacker`] if `victim_node` is not in the
///   graph (reusing the unknown-node error shape).
pub fn frame_node(
    system: &TomographySystem,
    attackers: &AttackerSet,
    scenario: &AttackScenario,
    true_metrics: &Vector,
    victim_node: tomo_graph::NodeId,
) -> Result<AttackOutcome, AttackError> {
    if victim_node.index() >= system.graph().num_nodes() {
        return Err(AttackError::UnknownAttacker { node: victim_node });
    }
    let victims: Vec<LinkId> = system
        .graph()
        .incident_links(victim_node)
        .expect("node validated")
        .into_iter()
        .filter(|&l| !attackers.controls_link(l))
        .collect();
    if victims.is_empty() {
        return Err(AttackError::NoVictims);
    }
    chosen_victim(system, attackers, scenario, true_metrics, &victims)
}

/// Obfuscation (Eq. 9-11): make a substantial set of links — the victims
/// `L_s` *and* the attacker links `L_m` — classify as *uncertain*, hiding
/// any clear outlier, while maximizing damage.
///
/// The victim set is searched over nested prefixes of the manipulable
/// non-attacker links (those whose estimate the attackers can lift into
/// the band at all), ordered by decreasing liftability. Prefixes are
/// nested, so LP feasibility is monotone in the prefix length — a longer
/// prefix only adds constraints. The `min_victims` prefix is solved
/// first, and when it fails that one LP is the verdict; otherwise the
/// largest feasible prefix above it is found by binary search
/// (`O(log |L|)` LP solves), and the floor's attack is kept until a
/// longer prefix succeeds.
///
/// Returns [`AttackOutcome::Infeasible`] if no victim set of size
/// ≥ `min_victims` works.
///
/// ```
/// use tomo_attack::{attacker::AttackerSet, scenario::AttackScenario, strategy};
/// use tomo_core::{fig1, LinkState};
/// use tomo_linalg::Vector;
///
/// # fn main() -> Result<(), tomo_attack::AttackError> {
/// let system = fig1::fig1_system().unwrap();
/// let topo = fig1::fig1_topology();
/// let attackers = AttackerSet::new(&system, topo.attackers.clone())?;
/// let x = Vector::filled(10, 10.0);
/// let outcome = strategy::obfuscation(
///     &system, &attackers, &AttackScenario::paper_defaults(), &x, 3,
/// )?;
/// // Every link of Fig. 1 ends up in the uncertain band.
/// let s = outcome.success().expect("feasible");
/// assert!(s.states.iter().all(|&st| st == LinkState::Uncertain));
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Propagates construction errors.
pub fn obfuscation(
    system: &TomographySystem,
    attackers: &AttackerSet,
    scenario: &AttackScenario,
    true_metrics: &Vector,
    min_victims: usize,
) -> Result<AttackOutcome, AttackError> {
    let outcome = obfuscation_inner(system, attackers, scenario, true_metrics, min_victims)?;
    record_outcome(
        &OBFUSC_FEASIBLE,
        &OBFUSC_INFEASIBLE,
        &OBFUSC_DAMAGE,
        &outcome,
    );
    Ok(outcome)
}

/// Inert forward to [`obfuscation`], kept only because the benchmark in
/// `perfbench/` still calls it: the `_warm` handle is ignored and every
/// solve runs cold. The name goes once the benchmark stops calling it.
///
/// # Errors
///
/// Same contract as [`obfuscation`].
pub fn obfuscation_warm(
    system: &TomographySystem,
    attackers: &AttackerSet,
    scenario: &AttackScenario,
    true_metrics: &Vector,
    min_victims: usize,
    _warm: Option<&WarmStart>,
) -> Result<AttackOutcome, AttackError> {
    obfuscation(system, attackers, scenario, true_metrics, min_victims)
}

fn obfuscation_inner(
    system: &TomographySystem,
    attackers: &AttackerSet,
    scenario: &AttackScenario,
    true_metrics: &Vector,
    min_victims: usize,
) -> Result<AttackOutcome, AttackError> {
    let prob = ManipulationProblem::new(system, attackers, *scenario, true_metrics)?;
    let b_l = scenario.thresholds.lower();

    // Candidate victims: non-attacker links the attackers can lift into
    // the uncertain band, sorted by decreasing liftability.
    let mut candidates: Vec<(LinkId, f64)> = (0..system.num_links())
        .map(LinkId)
        .filter(|&l| !attackers.controls_link(l))
        .map(|l| (l, prob.max_upward_shift(l)))
        .filter(|&(l, shift)| {
            let needed = b_l + scenario.margin - prob.baseline_estimate()[l.index()];
            shift >= needed
        })
        .collect();
    candidates.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });

    let floor = min_victims.max(1);
    if candidates.len() < floor {
        return Ok(AttackOutcome::Infeasible);
    }

    let victims = |k: usize| -> Vec<LinkId> { candidates[..k].iter().map(|&(l, _)| l).collect() };
    // The damage-maximizing manipulation that puts the first `k`
    // candidates and every attacker link in the band, if one exists.
    let solve_prefix = |k: usize| -> Result<Option<Vector>, AttackError> {
        let goals: Vec<(LinkId, LinkGoal)> = candidates[..k]
            .iter()
            .map(|&(l, _)| l)
            .chain(attackers.controlled_links().iter().copied())
            .map(|l| (l, LinkGoal::Uncertain))
            .collect();
        prob.solve_manipulation(&goals, Objective::Maximize)
    };

    // The floor first: when it fails, so does every longer prefix.
    let Some(m) = solve_prefix(floor)? else {
        return Ok(AttackOutcome::Infeasible);
    };
    // Binary search the largest feasible prefix in (floor, len], keeping
    // only the best manipulation so far; its outcome is the one built.
    let mut best = (m, floor);
    let (mut lo, mut hi) = (floor + 1, candidates.len() + 1);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if let Some(m) = solve_prefix(mid)? {
            best = (m, mid);
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let (m, k) = best;
    Ok(prob.outcome_from_manipulation(m, &victims(k)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tomo_core::params::OBFUSCATION_MIN_VICTIMS;
    use tomo_core::{fig1, LinkState};

    fn setup() -> (
        TomographySystem,
        tomo_graph::topology::Fig1Topology,
        AttackerSet,
        AttackScenario,
        Vector,
    ) {
        let system = fig1::fig1_system().unwrap();
        let topo = fig1::fig1_topology();
        let attackers = AttackerSet::new(&system, topo.attackers.clone()).unwrap();
        let scenario = AttackScenario::paper_defaults();
        let x = Vector::filled(10, 10.0);
        (system, topo, attackers, scenario, x)
    }

    #[test]
    fn fig4_chosen_victim_on_link_10() {
        // The paper's Fig. 4: B and C frame link 10, which they do NOT
        // perfectly cut — the attack must still succeed.
        let (system, topo, attackers, scenario, x) = setup();
        let victim = topo.paper_link(10);
        let cut = crate::cut::analyze_cut(&system, &attackers, &[victim]);
        assert!(!cut.is_perfect(), "link 10 must be an imperfect-cut victim");

        let outcome = chosen_victim(&system, &attackers, &scenario, &x, &[victim]).unwrap();
        let s = outcome.success().expect("Fig. 4 attack is feasible");
        assert_eq!(s.states[victim.index()], LinkState::Abnormal);
        for &l in attackers.controlled_links() {
            assert_eq!(s.states[l.index()], LinkState::Normal);
        }
        assert!(s.damage > 0.0);
    }

    #[test]
    fn exclusive_framing_blames_only_the_victim() {
        let (system, topo, attackers, scenario, x) = setup();
        let victim = topo.paper_link(10);
        let outcome =
            chosen_victim_exclusive(&system, &attackers, &scenario, &x, &[victim]).unwrap();
        let s = outcome.success().expect("feasible on Fig. 1");
        // Exactly one abnormal link: the victim.
        for (j, &st) in s.states.iter().enumerate() {
            if j == victim.index() {
                assert_eq!(st, LinkState::Abnormal);
            } else {
                assert_eq!(st, LinkState::Normal, "link {}", j + 1);
            }
        }
        // Less damage than the unconstrained variant.
        let plain = chosen_victim(&system, &attackers, &scenario, &x, &[victim])
            .unwrap()
            .into_success()
            .unwrap();
        assert!(s.damage <= plain.damage + 1e-6);
        assert!(s.damage > 0.0);
    }

    #[test]
    fn exclusive_framing_validates_like_plain() {
        let (system, topo, attackers, scenario, x) = setup();
        assert!(matches!(
            chosen_victim_exclusive(&system, &attackers, &scenario, &x, &[]),
            Err(AttackError::NoVictims)
        ));
        assert!(matches!(
            chosen_victim_exclusive(&system, &attackers, &scenario, &x, &[topo.paper_link(5)]),
            Err(AttackError::VictimControlledByAttacker { .. })
        ));
    }

    #[test]
    fn chosen_victim_rejects_controlled_and_empty_victims() {
        let (system, topo, attackers, scenario, x) = setup();
        assert!(matches!(
            chosen_victim(&system, &attackers, &scenario, &x, &[]),
            Err(AttackError::NoVictims)
        ));
        assert!(matches!(
            chosen_victim(&system, &attackers, &scenario, &x, &[topo.paper_link(5)]),
            Err(AttackError::VictimControlledByAttacker { .. })
        ));
        assert!(matches!(
            chosen_victim(&system, &attackers, &scenario, &x, &[LinkId(42)]),
            Err(AttackError::UnknownVictim { .. })
        ));
    }

    #[test]
    fn fig5_max_damage_beats_every_chosen_victim() {
        let (system, topo, attackers, scenario, x) = setup();
        let best = max_damage(&system, &attackers, &scenario, &x)
            .unwrap()
            .into_success()
            .expect("Fig. 5 attack is feasible");

        // Maximum-damage dominates each individual chosen-victim attack.
        for n in [1, 9, 10] {
            let victim = topo.paper_link(n);
            let outcome = chosen_victim(&system, &attackers, &scenario, &x, &[victim]).unwrap();
            if let Some(s) = outcome.success() {
                assert!(
                    best.damage >= s.damage - 1e-6,
                    "victim {n}: {} > {}",
                    s.damage,
                    best.damage
                );
            }
        }
        // Attacker links still look normal.
        for &l in attackers.controlled_links() {
            assert_eq!(best.states[l.index()], LinkState::Normal);
        }
        // At least one non-attacker link is framed abnormal.
        assert!(best
            .states
            .iter()
            .enumerate()
            .any(|(j, &st)| st == LinkState::Abnormal && !attackers.controls_link(LinkId(j))));
    }

    #[test]
    fn fig6_obfuscation_pushes_all_links_into_the_band() {
        // Fig. 1 has only 3 non-attacker links (1, 9, 10), so the maximum
        // victim quota here is 3 — the paper's ≥5 quota applies to its
        // 100-node Fig. 8 experiments. With L_s = {1, 9, 10} and
        // L_m = {2..8}, L_o covers all 10 links: Fig. 6 shows exactly
        // this, every estimate inside the uncertain band.
        let (system, _topo, attackers, scenario, x) = setup();
        let outcome = obfuscation(&system, &attackers, &scenario, &x, 3).unwrap();
        let s = outcome.success().expect("Fig. 6 attack is feasible");
        assert_eq!(s.victims.len(), 3);
        // Every link of the network is uncertain — no clear outlier.
        for (j, &st) in s.states.iter().enumerate() {
            assert_eq!(st, LinkState::Uncertain, "link index {j}");
        }
        assert!(s.damage > 0.0);
        // The ≥5 quota is indeed impossible here (sanity for Fig. 8 logic).
        #[allow(clippy::assertions_on_constants)]
        {
            assert!(OBFUSCATION_MIN_VICTIMS > 3);
        }
    }

    #[test]
    fn obfuscation_with_impossible_quota_is_infeasible() {
        let (system, _topo, attackers, scenario, x) = setup();
        // More victims than non-attacker links exist (10 − 7 = 3).
        let outcome = obfuscation(&system, &attackers, &scenario, &x, 4).unwrap();
        assert!(!outcome.is_success());
    }

    #[test]
    fn frame_node_makes_a_the_scapegoat() {
        // The paper's running narrative: B and C mislead the operator
        // into believing "link 1 or its end-node A might have some
        // issues". Frame node A: its only non-attacker link is link 1
        // (M1-A), perfectly cut by {B, C}.
        let (system, topo, attackers, scenario, x) = setup();
        let a = topo.node("A");
        let outcome = frame_node(&system, &attackers, &scenario, &x, a).unwrap();
        let s = outcome.success().expect("A can be framed");
        assert_eq!(s.victims, vec![topo.paper_link(1)]);
        assert_eq!(s.states[topo.paper_link(1).index()], LinkState::Abnormal);
        for &l in attackers.controlled_links() {
            assert_eq!(s.states[l.index()], LinkState::Normal);
        }
    }

    #[test]
    fn frame_node_d_uses_its_free_links() {
        // "Can B and C make some other node like D the scapegoat?"
        // D's links: 5 (B-D, controlled), 7 (C-D, controlled), 9 (M3-D),
        // 10 (D-M2). The victim set must be exactly {9, 10}.
        let (system, topo, attackers, scenario, x) = setup();
        let d = topo.node("D");
        let outcome = frame_node(&system, &attackers, &scenario, &x, d).unwrap();
        let s = outcome.success().expect("D can be framed");
        let mut victims = s.victims.clone();
        victims.sort();
        assert_eq!(victims, vec![topo.paper_link(9), topo.paper_link(10)]);
        for v in victims {
            assert_eq!(s.states[v.index()], LinkState::Abnormal);
        }
    }

    #[test]
    fn frame_node_validation() {
        let (system, topo, attackers, scenario, x) = setup();
        // Framing an attacker's own node: all incident links controlled.
        let b = topo.node("B");
        assert!(matches!(
            frame_node(&system, &attackers, &scenario, &x, b),
            Err(AttackError::NoVictims)
        ));
        // Unknown node.
        assert!(frame_node(&system, &attackers, &scenario, &x, tomo_graph::NodeId(99)).is_err());
    }

    #[test]
    fn min_effort_is_feasible_iff_chosen_victim_is_and_cheaper() {
        let (system, topo, attackers, scenario, x) = setup();
        for n in [1usize, 9, 10] {
            let victim = topo.paper_link(n);
            let plain = chosen_victim(&system, &attackers, &scenario, &x, &[victim]).unwrap();
            let covert =
                min_effort_chosen_victim(&system, &attackers, &scenario, &x, &[victim]).unwrap();
            assert_eq!(plain.is_success(), covert.is_success(), "victim {n}");
            if let (Some(p), Some(c)) = (plain.success(), covert.success()) {
                assert!(
                    c.damage <= p.damage + 1e-6,
                    "victim {n}: covert {} > damage-max {}",
                    c.damage,
                    p.damage
                );
                assert!(c.damage > 0.0, "framing requires nonzero manipulation");
                // The frame still works.
                assert_eq!(c.states[victim.index()], LinkState::Abnormal);
                for &l in attackers.controlled_links() {
                    assert_eq!(c.states[l.index()], LinkState::Normal);
                }
            }
        }
    }

    #[test]
    fn min_effort_validation_matches_chosen_victim() {
        let (system, topo, attackers, scenario, x) = setup();
        assert!(matches!(
            min_effort_chosen_victim(&system, &attackers, &scenario, &x, &[]),
            Err(AttackError::NoVictims)
        ));
        assert!(matches!(
            min_effort_chosen_victim(&system, &attackers, &scenario, &x, &[topo.paper_link(5)]),
            Err(AttackError::VictimControlledByAttacker { .. })
        ));
    }

    #[test]
    fn single_attacker_max_damage_on_fig1() {
        // Fig. 8's premise: "even one single attacker is likely to
        // succeed". Node B alone controls links 2, 3, 5, 6.
        let (system, topo, _, scenario, x) = setup();
        let b = topo.node("B");
        let attackers = AttackerSet::new(&system, vec![b]).unwrap();
        let outcome = max_damage(&system, &attackers, &scenario, &x).unwrap();
        assert!(outcome.is_success(), "single attacker B should succeed");
    }

    #[test]
    fn manipulations_always_satisfy_constraint_1() {
        let (system, _topo, attackers, scenario, x) = setup();
        let outcomes = [
            max_damage(&system, &attackers, &scenario, &x).unwrap(),
            obfuscation(&system, &attackers, &scenario, &x, 3).unwrap(),
        ];
        for o in outcomes.iter().filter_map(|o| o.success()) {
            assert!(crate::manipulation::satisfies_constraint_1(
                &o.manipulation,
                &attackers,
                scenario.path_cap,
                1e-6
            ));
        }
    }
}
