//! Fixtures shared by several root test files.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use scapegoat_tomography::core::TomographySystem;
use scapegoat_tomography::graph::isp::{self, IspConfig};
use scapegoat_tomography::graph::shortest::shortest_path;
use scapegoat_tomography::graph::{NodeId, Path};

/// An ISP system above the sparse-factor gate: every node a monitor, one
/// one-hop path per link, then 300 multi-hop shortest paths between
/// seeded node pairs.
pub fn large_isp_system() -> TomographySystem {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5ca1e);
    let config = IspConfig {
        backbone_nodes: 20,
        backbone_chords: 10,
        access_nodes: 450,
        multihoming_prob: 0.3,
    };
    let graph = isp::generate(&config, &mut rng).unwrap();
    let mut paths: Vec<Path> = graph
        .links()
        .map(|l| {
            let (a, b) = graph.endpoints(l).unwrap();
            Path::from_nodes(&graph, &[a, b]).unwrap()
        })
        .collect();
    let n = graph.num_nodes();
    while paths.len() < graph.num_links() + 300 {
        let u = NodeId(rng.gen_range(0..n));
        let v = NodeId(rng.gen_range(0..n));
        if let Some(p) = shortest_path(&graph, u, v).unwrap() {
            if p.num_links() > 1 {
                paths.push(p);
            }
        }
    }
    let monitors: Vec<NodeId> = graph.nodes().collect();
    TomographySystem::new(graph, monitors, paths).unwrap()
}
