//! The paper's Fig. 1 measurement setup: the 7-node example network with
//! its canonical 23-path measurement plan.
//!
//! The topology itself lives in [`tomo_graph::topology::fig1`]; this
//! module reconstructs the measurement-path selection. The paper states
//! 23 paths were chosen from the monitor-to-monitor simple paths (the
//! topology has exactly 32) but never prints the list, so we fix a
//! canonical, deterministic choice: enumerate all 32 in sorted order,
//! greedily take the rank-increasing ones (10 paths reach full rank),
//! then fill with the remaining shortest paths up to 23.

use tomo_graph::topology::{self, Fig1Topology};
use tomo_graph::{enumerate, Path};

use crate::selection::select_identifiable_paths;
use crate::{CoreError, TomographySystem};

/// Number of measurement paths in the paper's Fig. 1 setup.
pub const FIG1_NUM_PATHS: usize = 23;

/// All 32 monitor-to-monitor simple paths of the Fig. 1 network, in
/// canonical (sorted) order.
///
/// # Errors
///
/// Propagates graph errors (cannot occur for the fixed topology).
pub fn fig1_all_simple_paths() -> Result<Vec<Path>, CoreError> {
    let f = topology::fig1();
    Ok(enumerate::simple_paths_between_terminals(
        &f.graph,
        &f.monitors,
        10,
        10_000,
    )?)
}

/// The canonical 23-path selection.
///
/// # Errors
///
/// Propagates graph errors (cannot occur for the fixed topology).
pub fn fig1_paths() -> Result<Vec<Path>, CoreError> {
    let pool = fig1_all_simple_paths()?;
    let outcome = select_identifiable_paths(&pool, 10, FIG1_NUM_PATHS - 10);
    debug_assert_eq!(outcome.rank, 10);
    Ok(outcome.paths)
}

/// The complete Fig. 1 tomography system (23 paths, 10 links, monitors
/// `M1, M2, M3`).
///
/// # Errors
///
/// Propagates construction errors (cannot occur for the fixed topology).
///
/// ```
/// let sys = tomo_core::fig1::fig1_system().unwrap();
/// assert_eq!(sys.num_paths(), 23);
/// assert_eq!(sys.num_links(), 10);
/// ```
pub fn fig1_system() -> Result<TomographySystem, CoreError> {
    let f = fig1_topology();
    let paths = fig1_paths()?;
    TomographySystem::new(f.graph, f.monitors, paths)
}

/// Re-export of the annotated topology (graph + monitors + attackers).
#[must_use]
pub fn fig1_topology() -> Fig1Topology {
    topology::fig1()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tomo_linalg::Vector;

    #[test]
    fn canonical_selection_is_23_paths_rank_10() {
        let paths = fig1_paths().unwrap();
        assert_eq!(paths.len(), FIG1_NUM_PATHS);
        let sys = fig1_system().unwrap();
        assert_eq!(sys.num_paths(), 23);
        assert_eq!(sys.num_links(), 10);
        assert_eq!(tomo_linalg::rank::rank(&sys.routing_csr().to_dense()), 10);
    }

    #[test]
    fn selection_is_deterministic() {
        assert_eq!(fig1_paths().unwrap(), fig1_paths().unwrap());
    }

    #[test]
    fn pool_has_32_paths() {
        assert_eq!(fig1_all_simple_paths().unwrap().len(), 32);
    }

    #[test]
    fn noise_free_tomography_is_exact_on_fig1() {
        let sys = fig1_system().unwrap();
        let x = Vector::from(vec![3.0, 7.0, 2.0, 9.0, 4.0, 6.0, 8.0, 1.0, 5.0, 10.0]);
        let y = sys.measure(&x).unwrap();
        let x_hat = sys.estimate(&y).unwrap();
        assert!(x_hat.approx_eq(&x, 1e-8));
    }

    #[test]
    fn every_link_is_covered_by_some_path() {
        let sys = fig1_system().unwrap();
        let r = sys.routing_csr().to_dense();
        for j in 0..10 {
            let covered = (0..23).any(|i| r[(i, j)] == 1.0);
            assert!(covered, "link {j} uncovered");
        }
    }

    #[test]
    fn attackers_cover_many_paths() {
        // B and C "are on many measurement paths" (Section V-B) — the
        // premise of the running example.
        let sys = fig1_system().unwrap();
        let f = fig1_topology();
        let touched = sys.paths_through_nodes(&f.attackers).len();
        assert!(touched >= 15, "attackers only touch {touched}/23 paths");
    }
}
