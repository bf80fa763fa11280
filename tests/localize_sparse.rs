//! Attacker localization above `SPARSE_FACTOR_MIN_DIM`, where each
//! candidate's subsystem is factored by `SparseCholesky`.
//!
//! On the 607-link ISP system of `tests/estimator_golden.rs`, clean
//! measurements leave no residual anywhere, and an inconsistent shift on
//! every path through one node makes that node a suspect while some
//! innocent node keeps the inconsistency.

mod common;

use common::large_isp_system;
use scapegoat_tomography::core::TomographySystem;
use scapegoat_tomography::detect::localize::{localize, SuspectAssessment};
use scapegoat_tomography::graph::NodeId;
use scapegoat_tomography::linalg::lstsq::SPARSE_FACTOR_MIN_DIM;
use scapegoat_tomography::linalg::Vector;

fn clean_measurements(system: &TomographySystem) -> Vector {
    let x: Vector = (0..system.num_links())
        .map(|i| 100.0 + (i % 7) as f64)
        .collect();
    system.measure(&x).unwrap()
}

#[test]
fn clean_measurements_score_zero_on_the_sparse_factor() {
    let system = large_isp_system();
    assert!(system.num_links() >= SPARSE_FACTOR_MIN_DIM);
    let report = localize(&system, &clean_measurements(&system)).unwrap();
    assert!(report.full_residual <= 1e-6);
    let mut assessed = 0;
    for s in &report.scores {
        if let SuspectAssessment::Residual(r) = s.assessment {
            assert!(r <= 1e-6, "node {} residual {r}", s.node);
            assessed += 1;
        }
    }
    assert!(assessed > 0, "some node must be assessable");
}

#[test]
fn shifted_node_is_a_suspect_on_the_sparse_factor() {
    let system = large_isp_system();
    // The least-loaded node that some path crosses as a relay: a shift on
    // every path through it is then inconsistent, since the relayed path
    // crosses two of its links and would need the shift twice.
    let relays = |v: NodeId| {
        system
            .paths()
            .iter()
            .any(|p| p.contains_node(v) && p.source() != v && p.destination() != v)
    };
    let v = system
        .graph()
        .nodes()
        .filter(|&v| relays(v))
        .min_by_key(|&v| system.paths_through_nodes(&[v]).len())
        .expect("some path relays through a node");
    let mut y = clean_measurements(&system);
    for i in system.paths_through_nodes(&[v]) {
        y[i] += 50.0;
    }
    let report = localize(&system, &y).unwrap();
    assert!(report.full_residual > 1.0, "the shift must be inconsistent");
    assert!(
        report.suspects(1e-6).contains(&v),
        "node {v} not among suspects {:?}",
        report.suspects(1e-6)
    );
    assert!(
        report
            .scores
            .iter()
            .any(|s| matches!(s.assessment, SuspectAssessment::Residual(r) if r > 1.0)),
        "some node must keep the inconsistency"
    );
}
