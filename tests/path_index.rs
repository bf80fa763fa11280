//! Parity of the indexed path queries with the linear scans they
//! replaced.
//!
//! `TomographySystem::paths_crossing_links` answers from rows of `Rᵀ`
//! and `paths_through_nodes` from the nodes' incident links. Both must
//! return exactly what a scan over every path returns: the ascending
//! row indices of the paths crossing (visiting) any queried id, with
//! duplicates in the query and ids outside the graph changing nothing.
//! The scans are kept here as the reference.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use scapegoat_tomography::core::fig1::fig1_system;
use scapegoat_tomography::core::TomographySystem;
use scapegoat_tomography::graph::{LinkId, NodeId};
use scapegoat_tomography::par::Executor;
use scapegoat_tomography::sim::topologies::{build_system, NetworkKind};

/// The reference: every path that contains one of `links`, in row order.
fn crossing_scan(system: &TomographySystem, links: &[LinkId]) -> Vec<usize> {
    let paths = system.paths().iter().enumerate();
    paths
        .filter(|(_, p)| p.contains_any_link(links))
        .map(|(i, _)| i)
        .collect()
}

/// The reference: every path that visits one of `nodes`, in row order.
fn through_scan(system: &TomographySystem, nodes: &[NodeId]) -> Vec<usize> {
    let paths = system.paths().iter().enumerate();
    paths
        .filter(|(_, p)| p.contains_any_node(nodes))
        .map(|(i, _)| i)
        .collect()
}

/// Fig. 1 and the seed-42 ISP (wireline) and RGG (wireless) placements.
fn systems() -> Vec<(&'static str, TomographySystem)> {
    let exec = Executor::new(1);
    vec![
        ("fig1", fig1_system().unwrap()),
        (
            "isp seed 42",
            build_system(NetworkKind::Wireline, 42, &exec).unwrap(),
        ),
        (
            "rgg seed 42",
            build_system(NetworkKind::Wireless, 42, &exec).unwrap(),
        ),
    ]
}

/// Checks every query shape on `system`: each single id, seeded subsets
/// with duplicates and out-of-range ids, the empty set, and ids past
/// the end alone.
fn check_queries(name: &str, system: &TomographySystem) {
    let links = system.num_links();
    let nodes = system.graph().num_nodes();
    for j in 0..links {
        let query = [LinkId(j)];
        let want = crossing_scan(system, &query);
        assert_eq!(system.paths_crossing_links(&query), want, "{name} link {j}");
    }
    for v in 0..nodes {
        let query = [NodeId(v)];
        let want = through_scan(system, &query);
        assert_eq!(system.paths_through_nodes(&query), want, "{name} node {v}");
    }
    let mut rng = ChaCha8Rng::seed_from_u64(0x9a7e);
    for draw in 0..200 {
        let len = rng.gen_range(1..12);
        // Ids up to 10% past the end: some out of range, many repeated.
        let mut link_query: Vec<LinkId> = (0..len)
            .map(|_| LinkId(rng.gen_range(0..links + links / 10 + 1)))
            .collect();
        link_query.push(link_query[0]);
        let mut node_query: Vec<NodeId> = (0..len)
            .map(|_| NodeId(rng.gen_range(0..nodes + nodes / 10 + 1)))
            .collect();
        node_query.push(node_query[0]);
        assert_eq!(
            system.paths_crossing_links(&link_query),
            crossing_scan(system, &link_query),
            "{name} draw {draw}: links {link_query:?}"
        );
        assert_eq!(
            system.paths_through_nodes(&node_query),
            through_scan(system, &node_query),
            "{name} draw {draw}: nodes {node_query:?}"
        );
    }
    assert!(system.paths_crossing_links(&[]).is_empty(), "{name}");
    assert!(system.paths_through_nodes(&[]).is_empty(), "{name}");
    let past_links = [LinkId(links), LinkId(usize::MAX)];
    let past_nodes = [NodeId(nodes), NodeId(usize::MAX)];
    assert!(
        system.paths_crossing_links(&past_links).is_empty(),
        "{name}"
    );
    assert!(system.paths_through_nodes(&past_nodes).is_empty(), "{name}");
}

#[test]
fn indexed_path_queries_match_the_linear_scans() {
    for (name, system) in systems() {
        // A clone taken before the first query builds its own index; one
        // taken after carries the built one.
        let early = system.clone();
        check_queries(name, &system);
        check_queries(name, &system.clone());
        check_queries(name, &early);
    }
}
