//! # scapegoat-tomography
//!
//! A complete Rust reproduction of
//! *"When Seeing Isn't Believing: On Feasibility and Detectability of
//! Scapegoating in Network Tomography"* (Zhao, Lu, Wang — IEEE ICDCS
//! 2017), packaged as a reusable library plus an experiment harness that
//! regenerates every figure of the paper's evaluation.
//!
//! ## What's inside
//!
//! | Re-export | Crate | Contents |
//! |-----------|-------|----------|
//! | [`linalg`] | `tomo-linalg` | CSR kernels, exact sparse rank, dense/sparse Cholesky least squares |
//! | [`lp`] | `tomo-lp` | two-phase simplex LP solver |
//! | [`graph`] | `tomo-graph` | graphs, paths, RGG/ISP/Rocketfuel topologies |
//! | [`core`] | `tomo-core` | tomography: monitors, routing matrix, estimator |
//! | [`attack`] | `tomo-attack` | the three scapegoating strategies + theory |
//! | [`detect`] | `tomo-detect` | consistency detection, Fig. 9, ROC |
//! | [`fault`] | `tomo-fault` | deterministic fault injection + accounting |
//! | [`sim`] | `tomo-sim` | figure-by-figure experiment runners |
//!
//! ## Quickstart
//!
//! Frame an innocent link on the paper's running example and then catch
//! the attack with the consistency check:
//!
//! ```
//! use scapegoat_tomography::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The paper's Fig. 1 network: 7 nodes, 10 links, monitors M1-M3.
//! let system = fig1_system()?;
//! let topo = fig1_topology();
//!
//! // Nodes B and C turn malicious and frame link 10 (D-M2).
//! let attackers = AttackerSet::new(&system, topo.attackers.clone())?;
//! let scenario = AttackScenario::paper_defaults();
//! let x = Vector::filled(10, 10.0); // true 10 ms delays everywhere
//! let victim = topo.paper_link(10);
//! let outcome = chosen_victim(&system, &attackers, &scenario, &x, &[victim])?;
//! let s = outcome.success().expect("feasible on Fig. 1");
//!
//! // Tomography now blames the victim…
//! assert_eq!(s.states[victim.index()], LinkState::Abnormal);
//!
//! // …but the consistency check catches this imperfect-cut attack.
//! let y_attacked = &system.measure(&x)? + &s.manipulation;
//! let verdict = ConsistencyDetector::paper_default().inspect(&system, &y_attacked)?;
//! assert!(verdict.detected);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tomo_attack as attack;
pub use tomo_core as core;
pub use tomo_detect as detect;
pub use tomo_fault as fault;
pub use tomo_graph as graph;
pub use tomo_linalg as linalg;
pub use tomo_lp as lp;
pub use tomo_par as par;
pub use tomo_sim as sim;

/// The most common imports in one place.
pub mod prelude {
    pub use tomo_attack::attacker::AttackerSet;
    pub use tomo_attack::cut::{analyze_cut, CutKind};
    pub use tomo_attack::scenario::AttackScenario;
    pub use tomo_attack::strategy::{
        chosen_victim, chosen_victim_exclusive, frame_node, max_damage, min_effort_chosen_victim,
        obfuscation,
    };
    pub use tomo_attack::theory::perfect_cut_attack;
    pub use tomo_attack::{AttackError, AttackOutcome, AttackSuccess};
    pub use tomo_core::delay::{DelayModel, GaussianNoise};
    pub use tomo_core::fig1::{fig1_system, fig1_topology};
    pub use tomo_core::placement::{random_placement, PlacementConfig};
    pub use tomo_core::{params, CoreError, LinkState, StateThresholds, TomographySystem};
    pub use tomo_detect::{ConsistencyDetector, Verdict};
    pub use tomo_graph::{Graph, GraphError, LinkId, NodeId, Path};
    pub use tomo_linalg::{Matrix, Vector};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_reaches_everything() {
        use crate::prelude::*;
        let system = fig1_system().unwrap();
        assert_eq!(system.num_paths(), 23);
        let _ = AttackScenario::paper_defaults();
        let _ = ConsistencyDetector::paper_default();
    }
}
