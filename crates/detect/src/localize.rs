//! Attacker localization — an extension beyond the paper.
//!
//! The paper's detector (Eq. 23) only answers *whether* scapegoating
//! happened. A natural operator follow-up is *who* is doing it. The idea
//! here uses the same machinery: manipulated entries of `y′` are
//! confined to paths crossing the attackers (Constraint 1), so if we
//! **exclude all paths through one candidate node** and the remaining
//! (still overdetermined) subsystem becomes consistent, that node can
//! explain the whole inconsistency — it is a suspect.
//!
//! Formally, for candidate `v` let `P_v` be the paths avoiding `v`, and
//! `R_v`, `y′_v` the corresponding row selections. The *residual score*
//! of `v` is the ℓ1 norm of the component of `y′_v` outside the column
//! space of `R_v` — the subsystem's consistency residual, well-defined
//! even when `R_v` is rank-deficient. The check only has power when the
//! subsystem retains redundancy (`|P_v| > rank(R_v)`); a node whose
//! exclusion leaves a redundancy-free subsystem is reported as
//! non-assessable. True attackers score ≈ 0; innocent nodes keep the
//! inconsistency and score high.
//!
//! Limits mirror Theorem 3: perfect-cut (consistent) attacks produce no
//! residual at all, so there is nothing to localize; and when several
//! nodes lie on exactly the same path sets, they are indistinguishable
//! (reported as tied scores).

use serde::{Deserialize, Serialize};

use tomo_core::{CoreError, TomographySystem};
use tomo_graph::NodeId;
use tomo_linalg::{lstsq, rank};
use tomo_linalg::{norms, Vector};

/// Outcome of assessing one candidate node.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SuspectAssessment {
    /// Excluding the node leaves a redundant subsystem with this
    /// consistency residual; low values make the node a suspect.
    Residual(f64),
    /// Excluding the node leaves no redundant measurement to check — the
    /// node is on too many paths to be assessed this way.
    NotAssessable,
}

/// One node's localization record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SuspectScore {
    /// The candidate node.
    pub node: NodeId,
    /// Its assessment.
    pub assessment: SuspectAssessment,
}

/// Localization report: per-node scores plus the full-system residual.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LocalizationReport {
    /// The full-system residual `‖R x̂ − y′‖₁` (the detector's statistic).
    pub full_residual: f64,
    /// Scores in ascending residual order (most suspicious first);
    /// non-assessable nodes last.
    pub scores: Vec<SuspectScore>,
}

impl LocalizationReport {
    /// Nodes whose exclusion restores consistency to within `tol` —
    /// the suspects.
    #[must_use]
    pub fn suspects(&self, tol: f64) -> Vec<NodeId> {
        self.scores
            .iter()
            .filter_map(|s| match s.assessment {
                SuspectAssessment::Residual(r) if r <= tol => Some(s.node),
                _ => None,
            })
            .collect()
    }
}

/// Scores every node of the system against observed measurements `y′`.
///
/// # Errors
///
/// Returns [`CoreError::DimensionMismatch`] if `observed` has the wrong
/// length; linear-algebra errors are absorbed into
/// [`SuspectAssessment::NotAssessable`].
pub fn localize(
    system: &TomographySystem,
    observed: &Vector,
) -> Result<LocalizationReport, CoreError> {
    if observed.len() != system.num_paths() {
        return Err(CoreError::DimensionMismatch {
            context: "localize: measurement vector",
            expected: system.num_paths(),
            got: observed.len(),
        });
    }
    let estimate = system.estimate(observed)?;
    let reprojected = system.routing_csr().mul_vec(&estimate)?;
    let full_residual = norms::l1(&(&reprojected - observed));

    let mut scores: Vec<SuspectScore> = system
        .graph()
        .nodes()
        .map(|v| SuspectScore {
            node: v,
            assessment: assess(system, observed, v),
        })
        .collect();
    scores.sort_by(|a, b| match (&a.assessment, &b.assessment) {
        (SuspectAssessment::Residual(x), SuspectAssessment::Residual(y)) => {
            x.partial_cmp(y).unwrap_or(std::cmp::Ordering::Equal)
        }
        (SuspectAssessment::Residual(_), SuspectAssessment::NotAssessable) => {
            std::cmp::Ordering::Less
        }
        (SuspectAssessment::NotAssessable, SuspectAssessment::Residual(_)) => {
            std::cmp::Ordering::Greater
        }
        _ => std::cmp::Ordering::Equal,
    });
    Ok(LocalizationReport {
        full_residual,
        scores,
    })
}

/// Consistency residual of the subsystem that avoids `v`.
fn assess(system: &TomographySystem, observed: &Vector, v: NodeId) -> SuspectAssessment {
    let keep: Vec<usize> = system
        .paths()
        .iter()
        .enumerate()
        .filter(|(_, p)| !p.contains_node(v))
        .map(|(i, _)| i)
        .collect();
    if keep.is_empty() {
        return SuspectAssessment::NotAssessable;
    }
    let Ok(sub_r) = system.surviving_csr(&keep, None).map(|csr| csr.to_dense()) else {
        return SuspectAssessment::NotAssessable;
    };
    // Redundancy condition: with rows == rank the subsystem is trivially
    // consistent and the check has no power.
    if keep.len() <= rank::rank(&sub_r) {
        return SuspectAssessment::NotAssessable;
    }
    let sub_y: Vector = keep.iter().map(|&i| observed[i]).collect();
    match lstsq::residual_outside_column_space(&sub_r, &sub_y) {
        Ok(residual) => SuspectAssessment::Residual(norms::l1(&residual)),
        Err(_) => SuspectAssessment::NotAssessable,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tomo_attack::attacker::AttackerSet;
    use tomo_attack::scenario::AttackScenario;
    use tomo_attack::strategy;
    use tomo_core::fig1;
    use tomo_core::placement::{random_placement, PlacementConfig};

    /// A larger system where excluding one node's paths leaves plenty of
    /// redundancy (localization needs residual measurements to check).
    fn isp_system(seed: u64) -> TomographySystem {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let graph =
            tomo_graph::isp::generate(&tomo_graph::isp::IspConfig::default(), &mut rng).unwrap();
        let config = PlacementConfig {
            redundancy_fraction: 1.0, // extra rows make localization sharp
            ..PlacementConfig::default()
        };
        random_placement(&graph, &config, &mut rng).unwrap()
    }

    /// Launches a single-attacker max-damage attack that succeeds and is
    /// inconsistent, returning (system, attacked measurements, attacker).
    fn attacked_measurements(seed: u64) -> (TomographySystem, Vector, NodeId) {
        let system = isp_system(seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xa11);
        let x = tomo_core::params::default_delay_model().sample(system.num_links(), &mut rng);
        // Prefer a lightly-loaded attacker so its exclusion keeps
        // redundancy; walk candidates until one admits a feasible,
        // detectably inconsistent attack.
        let mut nodes: Vec<NodeId> = system.graph().nodes().collect();
        nodes.sort_by_key(|&n| system.paths_through_nodes(&[n]).len());
        for node in nodes {
            if system.paths_through_nodes(&[node]).is_empty() {
                continue;
            }
            let attackers = AttackerSet::new(&system, vec![node]).unwrap();
            let outcome =
                strategy::max_damage(&system, &attackers, &AttackScenario::paper_defaults(), &x)
                    .unwrap();
            if let Some(s) = outcome.success() {
                let y = &system.measure(&x).unwrap() + &s.manipulation;
                let est = system.estimate(&y).unwrap();
                let reproj = system.routing_csr().mul_vec(&est).unwrap();
                if norms::l1(&(&reproj - &y)) > 200.0 {
                    return (system, y, node);
                }
            }
        }
        panic!("no localizable attack instance at seed {seed}");
    }

    #[test]
    fn clean_measurements_give_zero_scores_everywhere() {
        let system = fig1::fig1_system().unwrap();
        let y = system.measure(&Vector::filled(10, 10.0)).unwrap();
        let report = localize(&system, &y).unwrap();
        assert!(report.full_residual < 1e-6);
        for s in &report.scores {
            if let SuspectAssessment::Residual(r) = s.assessment {
                assert!(r < 1e-6, "node {} residual {r}", s.node);
            }
        }
    }

    #[test]
    fn single_attacker_is_a_suspect() {
        let (system, y, attacker) = attacked_measurements(7);
        let report = localize(&system, &y).unwrap();
        assert!(report.full_residual > 200.0, "attack must be inconsistent");
        let suspects = report.suspects(1e-3);
        assert!(
            suspects.contains(&attacker),
            "attacker {attacker} not among suspects {suspects:?}"
        );
    }

    #[test]
    fn innocent_well_covered_nodes_score_high() {
        let (system, y, attacker) = attacked_measurements(7);
        let report = localize(&system, &y).unwrap();
        // Some node must remain clearly implausible as the sole culprit.
        let innocents_with_residual: Vec<f64> = report
            .scores
            .iter()
            .filter(|s| s.node != attacker)
            .filter_map(|s| match s.assessment {
                SuspectAssessment::Residual(r) => Some(r),
                SuspectAssessment::NotAssessable => None,
            })
            .collect();
        assert!(
            innocents_with_residual.iter().any(|&r| r > 100.0),
            "no innocent node retains the inconsistency: {innocents_with_residual:?}"
        );
    }

    #[test]
    fn wrong_length_rejected() {
        let system = fig1::fig1_system().unwrap();
        assert!(localize(&system, &Vector::zeros(3)).is_err());
    }

    #[test]
    fn report_orders_suspects_first() {
        let (system, y, _) = attacked_measurements(9);
        let report = localize(&system, &y).unwrap();
        // Scores with residuals come before NotAssessable, and residuals
        // are ascending.
        let mut last = -1.0;
        let mut seen_na = false;
        for s in &report.scores {
            match s.assessment {
                SuspectAssessment::Residual(r) => {
                    assert!(!seen_na, "residual after NotAssessable");
                    assert!(r >= last - 1e-12);
                    last = r;
                }
                SuspectAssessment::NotAssessable => seen_na = true,
            }
        }
    }
}
