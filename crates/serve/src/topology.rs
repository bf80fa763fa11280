//! Builds the daemon's tomography system from a topology file.
//!
//! `tomo-serve --topology <file>` serves a Rocketfuel ISP map (or any
//! edge list) instead of the fig. 1 toy system: the file is parsed with
//! the PR 6 Rocketfuel parsers, every node becomes a monitor, every
//! link gets a one-hop measurement path (which guarantees the routing
//! matrix has full column rank, i.e. the system is identifiable), and
//! `--extra-paths` adds seeded multi-hop shortest paths between random
//! node pairs so the daemon also exercises the overlapping-path solve
//! the `run scale` sweep measures.
//!
//! File format is chosen by extension: `.cch` parses as Rocketfuel CCH,
//! anything else as a plain `a b` edge list.

use std::path::Path as FsPath;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tomo_core::{CoreError, TomographySystem};
use tomo_graph::rocketfuel::{from_cch_file, from_edge_list_file};
use tomo_graph::shortest::{one_hop_paths, sample_extra_paths};
use tomo_graph::{GraphError, NodeId};

/// Why a topology file could not be turned into a servable system.
#[derive(Debug)]
pub enum TopologyError {
    /// The file failed to parse as a graph.
    Graph(GraphError),
    /// The parsed graph does not form a valid measurement system.
    Core(CoreError),
    /// More extra paths were asked for than the graph has ordered node
    /// pairs to draw them from.
    TooManyExtraPaths {
        /// The extra paths asked for.
        requested: usize,
        /// The graph's ordered node pairs, `n·(n − 1)`.
        pairs: usize,
    },
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::Graph(e) => write!(f, "topology parse failed: {e}"),
            TopologyError::Core(e) => write!(f, "topology is not servable: {e}"),
            TopologyError::TooManyExtraPaths { requested, pairs } => write!(
                f,
                "{requested} extra paths exceed the topology's {pairs} ordered node pairs"
            ),
        }
    }
}

impl std::error::Error for TopologyError {}

impl From<GraphError> for TopologyError {
    fn from(e: GraphError) -> Self {
        TopologyError::Graph(e)
    }
}

impl From<CoreError> for TopologyError {
    fn from(e: CoreError) -> Self {
        TopologyError::Core(e)
    }
}

/// Loads `path` and builds the system the daemon will serve: all nodes
/// monitored, one one-hop path per link, plus up to `extra_paths`
/// multi-hop shortest paths sampled with `paths_seed` (deterministic —
/// the probe side builds the identical system from the same flags).
///
/// # Errors
///
/// [`TopologyError::Graph`] when the file doesn't parse,
/// [`TopologyError::TooManyExtraPaths`] when `extra_paths` exceeds the
/// graph's `n·(n − 1)` ordered node pairs (sampling reserves room for
/// every path asked for), and [`TopologyError::Core`] when the
/// resulting system is rejected (e.g. a graph with fewer than two
/// nodes, which draws no extra path).
pub fn load_system(
    path: &FsPath,
    extra_paths: usize,
    paths_seed: u64,
) -> Result<TomographySystem, TopologyError> {
    let graph = if path.extension().is_some_and(|e| e == "cch") {
        from_cch_file(path)?
    } else {
        from_edge_list_file(path)?
    };
    let n = graph.num_nodes();
    let pairs = n.saturating_mul(n.saturating_sub(1));
    if n >= 2 && extra_paths > pairs {
        return Err(TopologyError::TooManyExtraPaths {
            requested: extra_paths,
            pairs,
        });
    }
    let monitors: Vec<NodeId> = graph.nodes().collect();
    let mut paths = one_hop_paths(&graph)?;
    paths.extend(sample_extra_paths(
        &graph,
        extra_paths,
        &mut ChaCha8Rng::seed_from_u64(paths_seed),
    ));
    Ok(TomographySystem::new(graph, monitors, paths)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/as65530.cch")
    }

    #[test]
    fn loads_the_rocketfuel_fixture_with_one_hop_paths() {
        let system = load_system(&fixture(), 0, 42).expect("fixture loads");
        assert!(system.num_links() > 0);
        assert_eq!(
            system.num_paths(),
            system.num_links(),
            "one path per link with no extras"
        );
    }

    #[test]
    fn extra_paths_are_deterministic_per_seed() {
        let a = load_system(&fixture(), 8, 42).expect("loads");
        let b = load_system(&fixture(), 8, 42).expect("loads");
        assert_eq!(a.num_paths(), b.num_paths());
        assert!(a.num_paths() > a.num_links(), "extras were added");
        // The sampled paths cover the same rows: identical measurements
        // of the same ground truth agree bit-for-bit.
        let x = tomo_linalg::Vector::filled(a.num_links(), 3.0);
        let ya = a.measure(&x).expect("measure");
        let yb = b.measure(&x).expect("measure");
        for i in 0..a.num_paths() {
            assert_eq!(ya[i].to_bits(), yb[i].to_bits());
        }
    }

    #[test]
    fn empty_topology_with_extra_paths_is_a_typed_core_error() {
        // A parseable-but-empty edge list must not panic in extra-path
        // sampling (gen_range over 0 nodes); it reaches the system
        // builder and comes back as a typed error.
        let mut p = std::env::temp_dir();
        p.push(format!("tomo-serve-topo-empty-{}.txt", std::process::id()));
        std::fs::write(&p, "# no edges\n").expect("write fixture");
        let err = load_system(&p, 8, 42).unwrap_err();
        let _ = std::fs::remove_file(&p);
        assert!(matches!(err, TopologyError::Core(_)), "got {err}");
    }

    #[test]
    fn extra_paths_past_the_node_pairs_are_a_typed_error() {
        // A three-node path has 3 · 2 = 6 ordered pairs to draw from.
        let mut p = std::env::temp_dir();
        p.push(format!("tomo-serve-topo-pairs-{}.txt", std::process::id()));
        std::fs::write(&p, "a b\nb c\n").expect("write fixture");
        let six = load_system(&p, 6, 42);
        let seven = load_system(&p, 7, 42);
        let _ = std::fs::remove_file(&p);
        assert!(six.is_ok(), "{:?}", six.err());
        assert!(
            matches!(
                seven,
                Err(TopologyError::TooManyExtraPaths {
                    requested: 7,
                    pairs: 6
                })
            ),
            "{:?}",
            seven.err()
        );
        // The fixture's 255 nodes have 255 · 254 = 64,770.
        for requested in [64_771, 1_000_000_000_000, usize::MAX] {
            let err = load_system(&fixture(), requested, 42).unwrap_err();
            assert!(
                matches!(
                    err,
                    TopologyError::TooManyExtraPaths {
                        requested: r,
                        pairs: 64_770,
                    } if r == requested
                ),
                "got {err}"
            );
        }
    }

    #[test]
    fn missing_file_is_a_typed_graph_error() {
        let err = load_system(std::path::Path::new("/nonexistent/x.cch"), 0, 0).unwrap_err();
        assert!(matches!(err, TopologyError::Graph(_)));
        assert!(!err.to_string().is_empty());
    }
}
