//! Identifiability analysis for routing matrices.
//!
//! `TomographySystem` requires full column rank, but *why* a path set
//! fails that bar matters to operators: which link metrics are pinned
//! down, and which are entangled with others? A link `l` is
//! **identifiable** iff `e_l` is orthogonal to the null space of `R` —
//! equivalently, every null vector has a zero in `l`'s coordinate. The
//! classic failure mode is a degree-2 internal relay: its two links only
//! ever appear together, so `e_i − e_j` is a null direction and both
//! links are unidentifiable (exactly the issue a naive reconstruction of
//! the paper's Fig. 1 runs into — see `tomo-graph::topology`).

use tomo_graph::{LinkId, Path};
use tomo_linalg::rank::SparseRank;

/// Result of analyzing a candidate path set.
#[derive(Debug, Clone)]
pub struct IdentifiabilityReport {
    /// Rank of the routing matrix.
    pub rank: usize,
    /// Number of links (columns).
    pub num_links: usize,
    /// Per-link identifiability flags.
    pub identifiable: Vec<bool>,
}

impl IdentifiabilityReport {
    /// `true` iff every link metric is identifiable (full column rank).
    #[must_use]
    pub fn is_fully_identifiable(&self) -> bool {
        self.rank == self.num_links
    }

    /// Links whose metrics cannot be determined from the path set.
    #[must_use]
    pub fn unidentifiable_links(&self) -> Vec<LinkId> {
        self.identifiable
            .iter()
            .enumerate()
            .filter(|(_, &ok)| !ok)
            .map(|(j, _)| LinkId(j))
            .collect()
    }
}

/// Analyzes which link metrics a path set can determine.
///
/// Feeds the path rows to an exact [`SparseRank`] tracker; link `j` is
/// then identifiable iff the unit row `e_j` does not raise the rank,
/// i.e. `e_j` already lies in the row space of `R`.
#[must_use]
pub fn analyze_paths(paths: &[Path], num_links: usize) -> IdentifiabilityReport {
    let mut tracker = path_rank(paths, num_links);
    let identifiable = (0..num_links)
        .map(|j| !tracker.would_increase([j]))
        .collect();
    IdentifiabilityReport {
        rank: tracker.rank(),
        num_links,
        identifiable,
    }
}

/// Exact rank tracker over the paths' routing rows, stopping once they
/// span every link.
pub(crate) fn path_rank(paths: &[Path], num_links: usize) -> SparseRank {
    let mut tracker = SparseRank::new(num_links);
    for p in paths {
        if tracker.is_full() {
            break;
        }
        tracker.try_add(p.links().iter().map(|l| l.index()));
    }
    tracker
}

#[cfg(test)]
mod tests {
    use super::*;
    use tomo_graph::{Graph, NodeId};

    /// m0 — v — m1 line: the degree-2 relay makes both links
    /// unidentifiable from end-to-end paths alone.
    fn degree_2_relay() -> (Graph, Vec<Path>) {
        let mut g = Graph::new();
        let m0 = g.add_node("m0");
        let v = g.add_node("v");
        let m1 = g.add_node("m1");
        g.add_link(m0, v).unwrap();
        g.add_link(v, m1).unwrap();
        let p = Path::from_nodes(&g, &[m0, v, m1]).unwrap();
        (g, vec![p])
    }

    #[test]
    fn degree_2_relay_is_unidentifiable() {
        let (g, paths) = degree_2_relay();
        let report = analyze_paths(&paths, g.num_links());
        assert_eq!(report.rank, 1);
        assert!(!report.is_fully_identifiable());
        assert_eq!(
            report.unidentifiable_links(),
            vec![LinkId(0), LinkId(1)],
            "both links of the relay are entangled"
        );
    }

    #[test]
    fn fig1_canonical_paths_are_fully_identifiable() {
        let paths = crate::fig1::fig1_paths().unwrap();
        let report = analyze_paths(&paths, 10);
        assert_eq!(report.rank, 10);
        assert!(report.is_fully_identifiable());
        assert!(report.unidentifiable_links().is_empty());
        assert!(report.identifiable.iter().all(|&b| b));
    }

    #[test]
    fn partial_identifiability_is_per_link() {
        // Triangle where every node is a monitor, but only paths that pin
        // down link 2 (m0-m2 direct) are provided; links 0 and 1 appear
        // only as a sum.
        let mut g = Graph::new();
        let m0 = g.add_node("m0");
        let m1 = g.add_node("m1");
        let m2 = g.add_node("m2");
        g.add_link(m0, m1).unwrap(); // l0
        g.add_link(m1, m2).unwrap(); // l1
        g.add_link(m0, m2).unwrap(); // l2
        let paths = vec![
            Path::from_nodes(&g, &[m0, m1, m2]).unwrap(), // l0 + l1
            Path::from_nodes(&g, &[m0, m2]).unwrap(),     // l2
        ];
        let report = analyze_paths(&paths, 3);
        assert_eq!(report.rank, 2);
        assert_eq!(report.identifiable, vec![false, false, true]);
        assert_eq!(report.unidentifiable_links(), vec![LinkId(0), LinkId(1)]);
    }

    #[test]
    fn empty_path_set() {
        // Every column of an empty R is zero: no link is identifiable.
        let report = analyze_paths(&[], 4);
        assert_eq!(report.rank, 0);
        assert_eq!(report.unidentifiable_links().len(), 4);
    }

    #[test]
    fn uncovered_relay_subgraph() {
        // Mixed case on a square with a diagonal: exercise a 5-link set
        // where one extra path completes identifiability.
        let mut g = Graph::new();
        let ids: Vec<NodeId> = (0..4).map(|i| g.add_node(format!("m{i}"))).collect();
        g.add_link(ids[0], ids[1]).unwrap(); // l0
        g.add_link(ids[1], ids[2]).unwrap(); // l1
        g.add_link(ids[2], ids[3]).unwrap(); // l2
        g.add_link(ids[3], ids[0]).unwrap(); // l3
        g.add_link(ids[0], ids[2]).unwrap(); // l4
        let mut paths = vec![
            Path::from_nodes(&g, &[ids[0], ids[1]]).unwrap(),
            Path::from_nodes(&g, &[ids[1], ids[2]]).unwrap(),
            Path::from_nodes(&g, &[ids[2], ids[3]]).unwrap(),
            Path::from_nodes(&g, &[ids[0], ids[2]]).unwrap(),
        ];
        let partial = analyze_paths(&paths, 5);
        assert_eq!(partial.rank, 4);
        assert_eq!(partial.unidentifiable_links(), vec![LinkId(3)]);
        paths.push(Path::from_nodes(&g, &[ids[3], ids[0]]).unwrap());
        let full = analyze_paths(&paths, 5);
        assert!(full.is_fully_identifiable());
    }
}
