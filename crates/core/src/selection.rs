//! Identifiability-driven measurement-path selection.
//!
//! Monitors "only need to choose a sufficient number of paths to ensure
//! identifiability" (paper, footnote 1). Given a candidate pool, the
//! greedy selector accepts every path whose routing-matrix row increases
//! the rank, reaching full column rank with the minimum-size prefix, and
//! can then add *redundant* paths — which matter for security: a square
//! `R` makes scapegoating undetectable (Theorem 3), so real deployments
//! want `|P| > |L|`.

use tomo_graph::Path;
use tomo_linalg::rank::SparseRank;

/// Result of a greedy selection pass.
#[derive(Debug, Clone)]
pub struct SelectionOutcome {
    /// Chosen paths (rank-increasing prefix first, then redundant fills).
    pub paths: Vec<Path>,
    /// Rank achieved (= number of identifiable link-metric dimensions).
    pub rank: usize,
    /// Number of redundant (non-rank-increasing) paths included.
    pub redundant: usize,
}

/// Greedy rank-first selection from an ordered candidate pool.
///
/// Scans `candidates` in order, accepting each path that increases the
/// rank; afterwards appends up to `extra` of the skipped paths (in pool
/// order) as redundant measurements.
///
/// The returned [`SelectionOutcome::rank`] may be less than `num_links`
/// if the pool cannot identify every link — callers decide whether that
/// is fatal (see `TomographySystem::new`) or a signal to add monitors
/// (see [`crate::placement`]).
#[must_use]
pub fn select_identifiable_paths(
    candidates: &[Path],
    num_links: usize,
    extra: usize,
) -> SelectionOutcome {
    let mut tracker = SparseRank::new(num_links);
    let mut chosen = Vec::new();
    let mut skipped = Vec::new();
    for p in candidates {
        if tracker.try_add(p.links().iter().map(|l| l.index())) {
            chosen.push(p.clone());
        } else {
            skipped.push(p.clone());
        }
    }
    let rank = tracker.rank();
    let redundant = skipped.len().min(extra);
    chosen.extend(skipped.into_iter().take(extra));
    SelectionOutcome {
        paths: chosen,
        rank,
        redundant,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tomo_graph::{enumerate, topology};

    #[test]
    fn fig1_pool_reaches_full_rank() {
        let f = topology::fig1();
        let pool =
            enumerate::simple_paths_between_terminals(&f.graph, &f.monitors, 10, 1000).unwrap();
        assert_eq!(
            pool.len(),
            32,
            "Fig. 1 has exactly 32 monitor-pair simple paths"
        );
        let outcome = select_identifiable_paths(&pool, 10, 0);
        assert_eq!(outcome.rank, 10);
        assert_eq!(outcome.paths.len(), 10);
        assert_eq!(outcome.redundant, 0);
    }

    #[test]
    fn extras_are_appended_up_to_budget() {
        let f = topology::fig1();
        let pool =
            enumerate::simple_paths_between_terminals(&f.graph, &f.monitors, 10, 1000).unwrap();
        let outcome = select_identifiable_paths(&pool, 10, 13);
        assert_eq!(outcome.rank, 10);
        assert_eq!(outcome.paths.len(), 23);
        assert_eq!(outcome.redundant, 13);
        // Extras beyond the pool size are harmless.
        let all = select_identifiable_paths(&pool, 10, 1000);
        assert_eq!(all.paths.len(), 32);
        assert_eq!(all.redundant, 22);
    }

    #[test]
    fn insufficient_pool_reports_partial_rank() {
        let f = topology::fig1();
        // Only paths between M1 and M2 — cannot identify all 10 links.
        let pool = enumerate::simple_paths(&f.graph, f.node("M1"), f.node("M2"), 10, 100).unwrap();
        let outcome = select_identifiable_paths(&pool, 10, 0);
        assert!(outcome.rank < 10);
        assert_eq!(outcome.paths.len(), outcome.rank);
    }

    #[test]
    fn empty_pool() {
        let outcome = select_identifiable_paths(&[], 5, 3);
        assert_eq!(outcome.rank, 0);
        assert!(outcome.paths.is_empty());
        assert_eq!(outcome.redundant, 0);
    }
}
