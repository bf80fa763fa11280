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
//! even when `R_v` is rank-deficient. It is computed on the sparse
//! stack: exact elimination ([`SparseRank`]) over the columns of `R_v`
//! picks a column basis `C` (link `j` joins `C` iff its column is
//! independent of the columns before it), and the score is the Eq. 2
//! least-squares residual `‖R_C x̂ − y′_v‖₁` on those columns. The check
//! only has power when the subsystem retains redundancy
//! (`|P_v| > rank(R_v) = |C|`); a node whose exclusion leaves a
//! redundancy-free subsystem is reported as non-assessable. True
//! attackers score ≈ 0; innocent nodes keep the inconsistency and score
//! high.
//!
//! Limits mirror Theorem 3: perfect-cut (consistent) attacks produce no
//! residual at all, so there is nothing to localize; and when several
//! nodes lie on exactly the same path sets, they are indistinguishable
//! (reported as tied scores).

use std::cmp::Ordering;

use serde::{Deserialize, Serialize};

use tomo_core::{CoreError, TomographySystem};
use tomo_graph::NodeId;
use tomo_linalg::lstsq::NormalEquationsSolver;
use tomo_linalg::rank::SparseRank;
use tomo_linalg::{norms, CsrBuilder, Vector};

use crate::detector::consistency_residual;

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
/// * [`CoreError::DimensionMismatch`] if `observed` has the wrong length,
/// * [`CoreError::NonFiniteMeasurement`] if a reading is NaN or infinite.
///
/// Linear-algebra errors on a candidate's subsystem are absorbed into
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
    let (full_residual, _) = consistency_residual(system, observed)?;

    let mut scores: Vec<SuspectScore> = system
        .graph()
        .nodes()
        .map(|v| SuspectScore {
            node: v,
            assessment: assess(system, observed, v),
        })
        .collect();
    scores.sort_by(|a, b| match (a.assessment, b.assessment) {
        (SuspectAssessment::Residual(x), SuspectAssessment::Residual(y)) => x.total_cmp(&y),
        (SuspectAssessment::Residual(_), SuspectAssessment::NotAssessable) => Ordering::Less,
        (SuspectAssessment::NotAssessable, SuspectAssessment::Residual(_)) => Ordering::Greater,
        (SuspectAssessment::NotAssessable, SuspectAssessment::NotAssessable) => Ordering::Equal,
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
    let Ok(kept) = system.surviving_csr(&keep, None) else {
        return SuspectAssessment::NotAssessable;
    };
    // Row j of the transpose is link j's column over the kept rows.
    let columns = kept.transpose();
    let mut tracker = SparseRank::new(keep.len());
    let mut position = vec![None; columns.rows()];
    let mut basis_len = 0;
    for (j, slot) in position.iter_mut().enumerate() {
        if tracker.try_add(columns.row_indices(j).iter().copied()) {
            *slot = Some(basis_len);
            basis_len += 1;
        }
    }
    // Redundancy condition: with rows == rank the subsystem is trivially
    // consistent and the check has no power.
    if keep.len() <= basis_len {
        return SuspectAssessment::NotAssessable;
    }
    // R_C: the kept rows restricted to the basis columns, renumbered.
    let mut r_c = CsrBuilder::new(basis_len);
    for i in 0..kept.rows() {
        let row = kept
            .row_iter(i)
            .filter_map(|(j, r)| position[j].map(|k| (k, r)));
        if r_c.push_row(row).is_err() {
            return SuspectAssessment::NotAssessable;
        }
    }
    let sub_y: Vector = keep.iter().map(|&i| observed[i]).collect();
    let Ok(solver) = NormalEquationsSolver::from_sparse(r_c.finish()) else {
        return SuspectAssessment::NotAssessable;
    };
    match solver
        .solve(&sub_y)
        .and_then(|x| solver.matrix().mul_vec(&x))
    {
        Ok(reprojected) => SuspectAssessment::Residual(norms::l1(&(&reprojected - &sub_y))),
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
                if consistency_residual(&system, &y).unwrap().0 > 200.0 {
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

    /// The NotAssessable set, `suspects(1e-3)` and `suspects(1.0)`, as
    /// sorted node indices.
    fn decision_sets(report: &LocalizationReport) -> [Vec<usize>; 3] {
        let sorted = |nodes: Vec<NodeId>| {
            let mut ids: Vec<usize> = nodes.into_iter().map(|n| n.0).collect();
            ids.sort_unstable();
            ids
        };
        let not_assessable = report
            .scores
            .iter()
            .filter(|s| s.assessment == SuspectAssessment::NotAssessable)
            .map(|s| s.node)
            .collect();
        [
            sorted(not_assessable),
            sorted(report.suspects(1e-3)),
            sorted(report.suspects(1.0)),
        ]
    }

    #[test]
    fn decisions_match_the_dense_qr_path() {
        // Recorded from the dense pivoted-QR rank and Gram-Schmidt
        // residual this module used before it moved to SparseRank and
        // the normal equations.
        let fig1_clean = {
            let system = fig1::fig1_system().unwrap();
            let y = system.measure(&Vector::filled(10, 10.0)).unwrap();
            (system, y)
        };
        let fig1_attacked = {
            let system = fig1::fig1_system().unwrap();
            let attackers =
                AttackerSet::new(&system, fig1::fig1_topology().attackers.clone()).unwrap();
            let x = Vector::filled(10, 10.0);
            let outcome =
                strategy::max_damage(&system, &attackers, &AttackScenario::paper_defaults(), &x)
                    .unwrap();
            let y = &system.measure(&x).unwrap() + &outcome.success().unwrap().manipulation;
            (system, y)
        };
        let (s7, y7, _) = attacked_measurements(7);
        let (s9, y9, _) = attacked_measurements(9);
        let seed7_suspects = vec![4, 5, 6, 19, 30, 32, 63, 80, 92];
        let seed9_suspects = vec![2, 3, 23, 51, 78, 88, 97];
        let fig1_suspects = vec![1, 2, 3, 4, 5];
        let cases = [
            ((s7, y7), [vec![], seed7_suspects.clone(), seed7_suspects]),
            ((s9, y9), [vec![], seed9_suspects.clone(), seed9_suspects]),
            (
                fig1_clean,
                [vec![0, 6], fig1_suspects.clone(), fig1_suspects],
            ),
            (fig1_attacked, [vec![0, 6], vec![], vec![]]),
        ];
        for (k, ((system, y), want)) in cases.iter().enumerate() {
            let report = localize(system, y).unwrap();
            assert_eq!(&decision_sets(&report), want, "case {k}");
        }
    }

    #[test]
    fn non_finite_readings_are_rejected() {
        let system = fig1::fig1_system().unwrap();
        let mut y = system.measure(&Vector::filled(10, 10.0)).unwrap();
        y[2] = f64::NAN;
        assert!(matches!(
            localize(&system, &y),
            Err(CoreError::NonFiniteMeasurement { row: 2 })
        ));
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
