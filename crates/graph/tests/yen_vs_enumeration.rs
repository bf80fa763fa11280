//! Property test: Yen's k-shortest paths agree with exhaustive
//! enumeration on random small graphs.
//!
//! Enumeration generates *all* simple paths between two nodes, sorts by
//! hop count; Yen must return exactly the k shortest lengths (the path
//! multiset at each length must match as sets).

use proptest::prelude::*;
use rand::Rng as _;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use tomo_graph::{enumerate, shortest, Graph, NodeId};

/// Random connected-ish graph on `n ≤ 8` nodes with edge probability `p`.
fn random_graph(seed: u64) -> (Graph, usize) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = rng.gen_range(3usize..=8);
    let mut g = Graph::new();
    for i in 0..n {
        g.add_node(format!("v{i}"));
    }
    // Spanning path to keep endpoints connected, plus random chords.
    for i in 1..n {
        g.add_link(NodeId(i - 1), NodeId(i)).unwrap();
    }
    for i in 0..n {
        for j in (i + 2)..n {
            if rng.gen_bool(0.4) {
                let _ = g.add_link(NodeId(i), NodeId(j));
            }
        }
    }
    (g, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    #[test]
    fn yen_matches_enumeration(seed in 0u64..5000, k in 1usize..12) {
        let (g, n) = random_graph(seed);
        let s = NodeId(0);
        let t = NodeId(n - 1);

        let mut all = enumerate::simple_paths(&g, s, t, n, 100_000).unwrap();
        all.sort_by_key(tomo_graph::Path::num_links);
        let yen = shortest::yen_k_shortest(&shortest::NeighbourIndex::new(&g), s, t, k).unwrap();

        // Yen returns min(k, total) paths.
        prop_assert_eq!(yen.len(), k.min(all.len()));
        // Lengths must match the k smallest enumeration lengths.
        let expected: Vec<usize> =
            all.iter().take(yen.len()).map(tomo_graph::Path::num_links).collect();
        let got: Vec<usize> = yen.iter().map(tomo_graph::Path::num_links).collect();
        prop_assert_eq!(&got, &expected,
            "lengths differ on seed {} (k = {})", seed, k);
        // Every Yen path is a genuine simple path from the enumeration.
        for p in &yen {
            prop_assert!(all.contains(p), "Yen fabricated a path");
        }
        // No duplicates.
        for (i, p) in yen.iter().enumerate() {
            for q in &yen[i + 1..] {
                prop_assert_ne!(p, q);
            }
        }
    }
}

#[test]
fn yen_complete_graph_regression() {
    // K5: v0→v4 has 1 + 3 + 6 + 6 = 16 simple paths.
    let mut g = Graph::new();
    let ids: Vec<NodeId> = (0..5).map(|i| g.add_node(format!("v{i}"))).collect();
    for i in 0..5 {
        for j in (i + 1)..5 {
            g.add_link(ids[i], ids[j]).unwrap();
        }
    }
    let all = enumerate::simple_paths(&g, ids[0], ids[4], 10, 1000).unwrap();
    assert_eq!(all.len(), 16);
    let yen =
        shortest::yen_k_shortest(&shortest::NeighbourIndex::new(&g), ids[0], ids[4], 16).unwrap();
    assert_eq!(yen.len(), 16);
    let yen_more =
        shortest::yen_k_shortest(&shortest::NeighbourIndex::new(&g), ids[0], ids[4], 40).unwrap();
    assert_eq!(yen_more.len(), 16, "no phantom paths beyond the total");
}
