//! The attacker model: which nodes are malicious, which links and paths
//! they control.

use std::sync::{Arc, Mutex, PoisonError};

use tomo_core::TomographySystem;
use tomo_graph::{LinkId, NodeId};
use tomo_linalg::Vector;
use tomo_obs::LazyCounter;

use crate::manipulation::AttackContext;
use crate::AttackError;

static CONTEXT_BUILDS: LazyCounter = LazyCounter::new("attack.context.builds");

/// A set of malicious nodes `V_m` within a measurement system, with the
/// derived quantities the paper's formulation uses:
///
/// * `controlled_links` — `L_m`, every link incident to an attacker
///   ("they can adversely affect the performance of all links connecting
///   to them"),
/// * `attacked_paths` — row indices of measurement paths visiting an
///   attacker; only these entries of `m` may be nonzero (Constraint 1).
///
/// Monitors may be attackers too — the paper explicitly allows it
/// (Section II-D).
///
/// The set also caches one *attack context*: the clean measurements
/// `y = R x`, the clean estimate `x̂₀` and the LP rows of the attacked
/// columns that every [`ManipulationProblem`] built on it shares. The
/// context is keyed by the system's [`TomographySystem::id`] and the
/// exact bits of the true metrics `x`, so every strategy of one round
/// (one coalition, one `x`) reuses it, and a call with another system or
/// another `x` replaces it. A clone starts with an empty cache.
///
/// [`ManipulationProblem`]: crate::manipulation::ManipulationProblem
#[derive(Debug)]
pub struct AttackerSet {
    nodes: Vec<NodeId>,
    controlled_links: Vec<LinkId>,
    attacked_paths: Vec<usize>,
    context: Mutex<Option<Arc<AttackContext>>>,
}

impl Clone for AttackerSet {
    fn clone(&self) -> Self {
        AttackerSet {
            nodes: self.nodes.clone(),
            controlled_links: self.controlled_links.clone(),
            attacked_paths: self.attacked_paths.clone(),
            context: Mutex::new(None),
        }
    }
}

impl AttackerSet {
    /// Builds the attacker view of `system` for malicious `nodes`.
    ///
    /// # Errors
    ///
    /// * [`AttackError::NoAttackers`] for an empty node set,
    /// * [`AttackError::UnknownAttacker`] if a node is not in the graph.
    pub fn new(system: &TomographySystem, nodes: Vec<NodeId>) -> Result<Self, AttackError> {
        let mut unique = nodes;
        unique.sort();
        unique.dedup();
        if unique.is_empty() {
            return Err(AttackError::NoAttackers);
        }
        for &n in &unique {
            if n.index() >= system.graph().num_nodes() {
                return Err(AttackError::UnknownAttacker { node: n });
            }
        }
        let graph = system.graph();
        let mut controlled_links: Vec<LinkId> = Vec::new();
        for &n in &unique {
            let neighbors = graph.neighbors(n).expect("attacker nodes validated");
            controlled_links.extend(neighbors.iter().map(|&(_, link)| link));
        }
        controlled_links.sort_unstable();
        controlled_links.dedup();
        // A path visits an attacker exactly when it crosses one of its
        // links.
        let attacked_paths = system.paths_crossing_links(&controlled_links);
        Ok(AttackerSet {
            nodes: unique,
            controlled_links,
            attacked_paths,
            context: Mutex::new(None),
        })
    }

    /// The attack context of this coalition on `system` for true metrics
    /// `x`: the cached one when it was built for the same system id and
    /// the same bits of `x`, else a new one, which replaces it. The lock
    /// is held while a context builds, so concurrent callers with one key
    /// build it once.
    pub(crate) fn context(
        &self,
        system: &TomographySystem,
        x: &Vector,
    ) -> Result<Arc<AttackContext>, AttackError> {
        // The slot is written once, after a build succeeds: a panic while
        // building leaves it as it was, so a poisoned lock is still valid.
        let mut slot = self.context.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(context) = slot.as_ref().filter(|c| c.is_for(system, x)) {
            return Ok(Arc::clone(context));
        }
        let context = Arc::new(AttackContext::new(system, &self.attacked_paths, x)?);
        CONTEXT_BUILDS.inc();
        *slot = Some(Arc::clone(&context));
        Ok(context)
    }

    /// The malicious nodes `V_m` (sorted, deduplicated).
    #[must_use]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The attacker-controlled links `L_m` (sorted).
    #[must_use]
    pub fn controlled_links(&self) -> &[LinkId] {
        &self.controlled_links
    }

    /// Row indices of measurement paths visiting an attacker — the only
    /// paths whose measurements can be manipulated (ascending).
    #[must_use]
    pub fn attacked_paths(&self) -> &[usize] {
        &self.attacked_paths
    }

    /// `true` if `link` is attacker-controlled.
    #[must_use]
    pub fn controls_link(&self, link: LinkId) -> bool {
        self.controlled_links.binary_search(&link).is_ok()
    }

    /// `true` if the path at `row` can be manipulated.
    #[must_use]
    pub fn controls_path(&self, row: usize) -> bool {
        self.attacked_paths.binary_search(&row).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tomo_core::fig1;

    #[test]
    fn fig1_attackers_control_links_2_through_8() {
        let system = fig1::fig1_system().unwrap();
        let topo = fig1::fig1_topology();
        let set = AttackerSet::new(&system, topo.attackers.clone()).unwrap();
        assert_eq!(set.nodes().len(), 2);
        let expected: Vec<LinkId> = (2..=8).map(|n| topo.paper_link(n)).collect();
        assert_eq!(set.controlled_links(), expected.as_slice());
        assert!(set.controls_link(topo.paper_link(5)));
        assert!(!set.controls_link(topo.paper_link(1)));
        assert!(!set.controls_link(topo.paper_link(9)));
        assert!(!set.controls_link(topo.paper_link(10)));
    }

    #[test]
    fn attacked_paths_match_node_queries() {
        let system = fig1::fig1_system().unwrap();
        let topo = fig1::fig1_topology();
        let set = AttackerSet::new(&system, topo.attackers.clone()).unwrap();
        for (i, p) in system.paths().iter().enumerate() {
            assert_eq!(
                set.controls_path(i),
                p.contains_any_node(set.nodes()),
                "path {i}"
            );
        }
        // B and C sit on most Fig. 1 paths.
        assert!(set.attacked_paths().len() >= 15);
    }

    #[test]
    fn duplicates_are_merged() {
        let system = fig1::fig1_system().unwrap();
        let topo = fig1::fig1_topology();
        let b = topo.attackers[0];
        let set = AttackerSet::new(&system, vec![b, b, b]).unwrap();
        assert_eq!(set.nodes(), &[b]);
    }

    #[test]
    fn empty_and_unknown_rejected() {
        let system = fig1::fig1_system().unwrap();
        assert!(matches!(
            AttackerSet::new(&system, vec![]),
            Err(AttackError::NoAttackers)
        ));
        assert!(matches!(
            AttackerSet::new(&system, vec![NodeId(99)]),
            Err(AttackError::UnknownAttacker { .. })
        ));
    }

    #[test]
    fn monitor_can_be_attacker() {
        let system = fig1::fig1_system().unwrap();
        let m1 = system.graph().node_by_label("M1").unwrap();
        let set = AttackerSet::new(&system, vec![m1]).unwrap();
        // M1's links: 1 (M1-A) and 2 (M1-B).
        assert_eq!(set.controlled_links().len(), 2);
        assert!(!set.attacked_paths().is_empty());
    }
}
