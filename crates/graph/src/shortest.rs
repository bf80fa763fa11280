//! Shortest paths by hop count: breadth-first search and Yen's
//! k-shortest loopless paths.
//!
//! Monitor pairs use these to build candidate measurement-path pools. Yen's
//! algorithm provides path *diversity*, which identifiability-driven path
//! selection needs (distinct paths must cover independent link
//! combinations).
//!
//! **Tie-break rule.** Among equally short paths, the search returns the
//! one whose every node's predecessor is its *lowest-id* neighbour one hop
//! closer to the source (over the links and nodes not banned). The seeded
//! placements behind the committed artifacts depend on exactly this rule:
//! changing it changes which measurement paths get chosen.

use rand::Rng;

use crate::{Graph, GraphError, LinkId, NodeId, Path};

/// Scratch state of one breadth-first search, reused across the spur
/// searches of a Yen call. Bans and visit marks are *stamped* — an entry
/// is set iff it equals the current stamp — so starting a new search is
/// one counter bump instead of clearing per-node and per-link vectors.
struct Search {
    stamp: u32,
    banned_nodes: Vec<u32>,
    banned_links: Vec<u32>,
    seen: Vec<u32>,
    prev: Vec<NodeId>,
    frontier: Vec<NodeId>,
    next: Vec<NodeId>,
    /// Node sequence of the last path found, source first.
    path: Vec<NodeId>,
}

impl Search {
    fn new(graph: &Graph) -> Self {
        Search {
            stamp: 1,
            banned_nodes: vec![0; graph.num_nodes()],
            banned_links: vec![0; graph.num_links()],
            seen: vec![0; graph.num_nodes()],
            prev: vec![NodeId(0); graph.num_nodes()],
            frontier: Vec::new(),
            next: Vec::new(),
            path: Vec::new(),
        }
    }

    fn ban_node(&mut self, n: NodeId) {
        self.banned_nodes[n.index()] = self.stamp;
    }

    fn ban_link(&mut self, l: LinkId) {
        self.banned_links[l.index()] = self.stamp;
    }

    /// Breadth-first search from `source` to `target` (known nodes)
    /// avoiding the banned nodes and links. Each level is expanded in
    /// ascending node id, so a node's predecessor is the lowest-id
    /// neighbour one level closer — the module's tie-break rule. On
    /// success the path is left in `self.path`; `source == target` or a
    /// banned endpoint has no path.
    fn run(&mut self, graph: &Graph, source: NodeId, target: NodeId) -> bool {
        let stamp = self.stamp;
        if source == target
            || self.banned_nodes[source.index()] == stamp
            || self.banned_nodes[target.index()] == stamp
        {
            return false;
        }
        self.seen[source.index()] = stamp;
        self.frontier.clear();
        self.frontier.push(source);
        'levels: while !self.frontier.is_empty() {
            self.frontier.sort_unstable();
            self.next.clear();
            for &u in &self.frontier {
                let adjacent = graph.neighbors(u).expect("frontier nodes are graph nodes");
                for &(v, l) in adjacent {
                    if self.seen[v.index()] == stamp
                        || self.banned_nodes[v.index()] == stamp
                        || self.banned_links[l.index()] == stamp
                    {
                        continue;
                    }
                    self.seen[v.index()] = stamp;
                    self.prev[v.index()] = u;
                    if v == target {
                        break 'levels;
                    }
                    self.next.push(v);
                }
            }
            std::mem::swap(&mut self.frontier, &mut self.next);
        }
        if self.seen[target.index()] != stamp {
            return false;
        }
        self.path.clear();
        let mut cur = target;
        self.path.push(cur);
        while cur != source {
            cur = self.prev[cur.index()];
            self.path.push(cur);
        }
        self.path.reverse();
        true
    }
}

/// Shortest path by hop count, ties broken by the module's
/// lowest-id-predecessor rule.
///
/// Returns `None` if `target` is unreachable or `source == target`.
///
/// # Errors
///
/// Returns [`GraphError::UnknownNode`] for missing endpoints.
///
/// ```
/// use tomo_graph::{Graph, shortest};
///
/// # fn main() -> Result<(), tomo_graph::GraphError> {
/// let mut g = Graph::new();
/// let a = g.add_node("a");
/// let b = g.add_node("b");
/// let c = g.add_node("c");
/// g.add_link(a, b)?;
/// g.add_link(b, c)?;
/// g.add_link(a, c)?;
/// let p = shortest::shortest_path(&g, a, c)?.expect("connected");
/// assert_eq!(p.num_links(), 1);
/// assert!(shortest::shortest_path(&g, a, a)?.is_none());
/// # Ok(())
/// # }
/// ```
pub fn shortest_path(
    graph: &Graph,
    source: NodeId,
    target: NodeId,
) -> Result<Option<Path>, GraphError> {
    let _ = graph.label(source)?;
    let _ = graph.label(target)?;
    let mut search = Search::new(graph);
    if !search.run(graph, source, target) {
        return Ok(None);
    }
    Ok(Some(Path::from_nodes(graph, &search.path)?))
}

/// Yen's algorithm: up to `k` shortest loopless paths from `source` to
/// `target` by hop count, in non-decreasing length order (equal lengths
/// by node sequence). Returns an empty `Vec` if `k == 0`, `target` is
/// unreachable, or `source == target`.
///
/// One scratch search state serves every spur search, and candidates
/// stay node sequences: only the returned paths are built as [`Path`]s.
///
/// Lawler's pruning: each candidate keeps the spur index it deviated
/// at, and when it is accepted its spur loop starts there. A spur node
/// before the deviation has the root and the bans it had when that
/// root was last searched — an accepted path that adds a new next link
/// at a root deviates at or before that root, and so searched it
/// itself — so the search would only find a path already accepted or
/// queued. The output is that of the unpruned loop.
///
/// # Errors
///
/// Returns [`GraphError::UnknownNode`] for missing endpoints.
pub fn yen_k_shortest(
    graph: &Graph,
    source: NodeId,
    target: NodeId,
    k: usize,
) -> Result<Vec<Path>, GraphError> {
    let _ = graph.label(source)?;
    let _ = graph.label(target)?;
    let mut result: Vec<Path> = Vec::new();
    let mut search = Search::new(graph);
    if k == 0 || !search.run(graph, source, target) {
        return Ok(result);
    }
    result.push(Path::from_nodes(graph, &search.path)?);

    // Each candidate with the spur index it deviated at.
    let mut candidates: Vec<(Vec<NodeId>, usize)> = Vec::new();
    let mut deviation = 0;
    while result.len() < k {
        let last = result.len() - 1;
        // Each node of the previous path from its deviation on (except
        // the final node) is a spur.
        for spur_idx in deviation..result[last].nodes().len() - 1 {
            search.stamp += 1; // clears all bans and marks
            let root = &result[last].nodes()[..=spur_idx];
            // Ban the next link of every accepted path sharing this root.
            for p in &result {
                if p.nodes().len() > spur_idx + 1 && p.nodes()[..=spur_idx] == *root {
                    search.ban_link(p.links()[spur_idx]);
                }
            }
            // Ban root nodes except the spur node (loopless requirement).
            for &n in &root[..spur_idx] {
                search.ban_node(n);
            }
            if !search.run(graph, root[spur_idx], target) {
                continue;
            }
            // Total path = root + spur; compared in place, allocated
            // only when new.
            let prefix = &root[..spur_idx];
            let spur = search.path.as_slice();
            let is_total = |nodes: &[NodeId]| {
                nodes.len() == spur_idx + spur.len()
                    && nodes[..spur_idx] == *prefix
                    && nodes[spur_idx..] == *spur
            };
            if !result.iter().any(|p| is_total(p.nodes()))
                && !candidates.iter().any(|(c, _)| is_total(c))
            {
                candidates.push(([prefix, spur].concat(), spur_idx));
            }
        }
        let Some(best) = (0..candidates.len()).min_by(|&a, &b| {
            let (a, b) = (&candidates[a].0, &candidates[b].0);
            a.len().cmp(&b.len()).then_with(|| a.cmp(b))
        }) else {
            break;
        };
        let (nodes, spur_idx) = candidates.swap_remove(best);
        deviation = spur_idx;
        result.push(Path::from_nodes(graph, &nodes)?);
    }
    Ok(result)
}

/// One one-hop path per link, in link order. With every node a
/// monitor, these rows embed a permuted identity in the routing matrix,
/// so they make any topology identifiable.
///
/// # Errors
///
/// Propagates [`GraphError`] from path construction.
pub fn one_hop_paths(graph: &Graph) -> Result<Vec<Path>, GraphError> {
    graph
        .links()
        .map(|l| {
            let (a, b) = graph.endpoints(l)?;
            Path::from_nodes(graph, &[a, b])
        })
        .collect()
}

/// Up to `extra` multi-hop shortest paths between node pairs drawn from
/// `rng`. A guard bounds the attempts at 20 per wanted path, so the
/// count can fall short on tiny graphs. A graph with fewer than two
/// nodes has no pair to draw: it yields no path and leaves `rng`
/// untouched.
///
/// # Errors
///
/// Propagates [`GraphError`] from the shortest-path search.
pub fn sample_extra_paths<R: Rng + ?Sized>(
    graph: &Graph,
    extra: usize,
    rng: &mut R,
) -> Result<Vec<Path>, GraphError> {
    let n = graph.num_nodes();
    if extra == 0 || n < 2 {
        return Ok(Vec::new());
    }
    let mut out = Vec::with_capacity(extra);
    let mut guard = 0;
    while out.len() < extra && guard < extra * 20 {
        guard += 1;
        let u = NodeId(rng.gen_range(0..n));
        let v = NodeId(rng.gen_range(0..n));
        if u == v {
            continue;
        }
        if let Some(p) = shortest_path(graph, u, v)? {
            if p.num_links() > 1 {
                out.push(p);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal;
    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Diamond with a long detour:
    /// a-b, b-d, a-c, c-d, a-d(direct), c-e, e-d
    fn diamond() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new();
        let ids: Vec<NodeId> = ["a", "b", "c", "d", "e"]
            .iter()
            .map(|l| g.add_node(*l))
            .collect();
        g.add_link(ids[0], ids[1]).unwrap(); // l0 a-b
        g.add_link(ids[1], ids[3]).unwrap(); // l1 b-d
        g.add_link(ids[0], ids[2]).unwrap(); // l2 a-c
        g.add_link(ids[2], ids[3]).unwrap(); // l3 c-d
        g.add_link(ids[0], ids[3]).unwrap(); // l4 a-d
        g.add_link(ids[2], ids[4]).unwrap(); // l5 c-e
        g.add_link(ids[4], ids[3]).unwrap(); // l6 e-d
        (g, ids)
    }

    /// The search on `g` with `nodes` and `links` banned, as Yen's spur
    /// searches run it.
    fn avoiding(
        g: &Graph,
        s: NodeId,
        t: NodeId,
        nodes: &[NodeId],
        links: &[LinkId],
    ) -> Option<Vec<NodeId>> {
        let mut search = Search::new(g);
        nodes.iter().for_each(|&n| search.ban_node(n));
        links.iter().for_each(|&l| search.ban_link(l));
        search.run(g, s, t).then(|| search.path.clone())
    }

    #[test]
    fn shortest_is_direct_link() {
        let (g, ids) = diamond();
        let p = shortest_path(&g, ids[0], ids[3]).unwrap().unwrap();
        assert_eq!(p.num_links(), 1);
        assert_eq!(p.links(), &[LinkId(4)]);
    }

    #[test]
    fn equal_length_ties_take_the_lowest_id_predecessor() {
        let (g, ids) = diamond();
        // Ban direct a-d: a-b-d and a-c-d tie, and b (id 1) beats c (id 2).
        let p = avoiding(&g, ids[0], ids[3], &[], &[LinkId(4)]);
        assert_eq!(p, Some(vec![ids[0], ids[1], ids[3]]));
    }

    #[test]
    fn same_endpoint_has_no_path() {
        let (g, ids) = diamond();
        assert!(shortest_path(&g, ids[0], ids[0]).unwrap().is_none());
        assert!(yen_k_shortest(&g, ids[2], ids[2], 4).unwrap().is_empty());
        // Unknown nodes are still an error, even when equal.
        assert!(shortest_path(&g, NodeId(99), NodeId(99)).is_err());
        assert!(yen_k_shortest(&g, NodeId(99), NodeId(99), 4).is_err());
    }

    #[test]
    fn banned_node_blocks_path() {
        let (g, ids) = diamond();
        // Ban b and the direct a-d link: must go a-c-d.
        let p = avoiding(&g, ids[0], ids[3], &[ids[1]], &[LinkId(4)]);
        assert_eq!(p, Some(vec![ids[0], ids[2], ids[3]]));
        // A banned endpoint has no path.
        assert_eq!(avoiding(&g, ids[0], ids[3], &[ids[0]], &[]), None);
        assert_eq!(avoiding(&g, ids[0], ids[3], &[ids[3]], &[]), None);
    }

    #[test]
    fn yen_returns_increasing_lengths_without_duplicates() {
        let (g, ids) = diamond();
        let paths = yen_k_shortest(&g, ids[0], ids[3], 5).unwrap();
        // Paths a→d: direct (1), a-b-d (2), a-c-d (2), a-c-e-d (3) = 4
        // total; asking for more returns the same 4.
        assert_eq!(paths.len(), 4);
        for w in paths.windows(2) {
            assert!(w[0].num_links() <= w[1].num_links());
            assert_ne!(w[0], w[1]);
        }
        assert_eq!(paths[0].num_links(), 1);
        assert_eq!(paths[3].num_links(), 3);
        assert_eq!(yen_k_shortest(&g, ids[0], ids[3], 100).unwrap(), paths);
        // All simple & valid (constructor guarantees, spot-check endpoints).
        for p in &paths {
            assert_eq!(p.source(), ids[0]);
            assert_eq!(p.destination(), ids[3]);
        }
    }

    #[test]
    fn yen_k_zero_and_disconnected() {
        let (g, ids) = diamond();
        assert!(yen_k_shortest(&g, ids[0], ids[3], 0).unwrap().is_empty());
        let mut g2 = Graph::new();
        let a = g2.add_node("a");
        let b = g2.add_node("b");
        assert!(shortest_path(&g2, a, b).unwrap().is_none());
        assert!(yen_k_shortest(&g2, a, b, 3).unwrap().is_empty());
    }

    /// The tie-break rule spelled out: BFS distances from the source,
    /// then walk back from the target, always to the lowest-id
    /// neighbour one hop closer.
    fn reference(g: &Graph, s: NodeId, t: NodeId) -> Option<Vec<NodeId>> {
        let dist = traversal::bfs_distances(g, s).unwrap();
        dist[t.index()].filter(|_| s != t)?;
        let mut path = vec![t];
        while let Some(&cur) = path.last().filter(|&&c| c != s) {
            let neighbours = g.neighbors(cur).unwrap().iter().map(|&(u, _)| u);
            let closer = neighbours.filter(|u| dist[u.index()].map(|d| d + 1) == dist[cur.index()]);
            path.push(closer.min().unwrap());
        }
        path.reverse();
        Some(path)
    }

    /// Yen's loop without Lawler's pruning — every node of each accepted
    /// path is a spur — kept as the reference for [`yen_k_shortest`].
    fn yen_unpruned(graph: &Graph, source: NodeId, target: NodeId, k: usize) -> Vec<Path> {
        let mut result: Vec<Path> = Vec::new();
        let mut search = Search::new(graph);
        if k == 0 || !search.run(graph, source, target) {
            return result;
        }
        result.push(Path::from_nodes(graph, &search.path).unwrap());
        let mut candidates: Vec<Vec<NodeId>> = Vec::new();
        while result.len() < k {
            let last = result.len() - 1;
            for spur_idx in 0..result[last].nodes().len() - 1 {
                search.stamp += 1;
                let root = &result[last].nodes()[..=spur_idx];
                for p in &result {
                    if p.nodes().len() > spur_idx + 1 && p.nodes()[..=spur_idx] == *root {
                        search.ban_link(p.links()[spur_idx]);
                    }
                }
                for &n in &root[..spur_idx] {
                    search.ban_node(n);
                }
                if !search.run(graph, root[spur_idx], target) {
                    continue;
                }
                let total = [&root[..spur_idx], search.path.as_slice()].concat();
                if !result.iter().any(|p| p.nodes() == total) && !candidates.contains(&total) {
                    candidates.push(total);
                }
            }
            let Some(best) = (0..candidates.len()).min_by(|&a, &b| {
                let (a, b) = (&candidates[a], &candidates[b]);
                a.len().cmp(&b.len()).then_with(|| a.cmp(b))
            }) else {
                break;
            };
            result.push(Path::from_nodes(graph, &candidates.swap_remove(best)).unwrap());
        }
        result
    }

    /// A random graph on 2..=14 nodes, edges inserted in random order.
    fn random_graph(rng: &mut ChaCha8Rng) -> Graph {
        let n = rng.gen_range(2usize..=14);
        let density = rng.gen_range(0.1..0.6);
        let mut edges: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
            .filter(|_| rng.gen_bool(density))
            .collect();
        edges.shuffle(rng);
        let mut g = Graph::with_nodes(n);
        for (i, j) in edges {
            g.add_link(NodeId(i), NodeId(j)).unwrap();
        }
        g
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Lawler's pruning changes no output: the same paths in the same
        /// order as the loop that searches every spur.
        #[test]
        fn pruned_yen_matches_unpruned(seed in 0u64..100_000) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let g = random_graph(&mut rng);
            let s = NodeId(rng.gen_range(0..g.num_nodes()));
            let t = NodeId(rng.gen_range(0..g.num_nodes()));
            let k = rng.gen_range(1usize..=8);
            prop_assert_eq!(yen_k_shortest(&g, s, t, k).unwrap(), yen_unpruned(&g, s, t, k));
        }

        /// On random graphs, `shortest_path` and the banned search match
        /// the reference, the latter run on the graph without the banned
        /// nodes' and links' edges.
        #[test]
        fn bfs_matches_tie_break_reference(seed in 0u64..100_000) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let n = rng.gen_range(2usize..=14);
            let density = rng.gen_range(0.1..0.6);
            let mut edges: Vec<(usize, usize)> = (0..n)
                .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
                .filter(|_| rng.gen_bool(density))
                .collect();
            // Insertion order fixes adjacency order, which must not matter.
            edges.shuffle(&mut rng);
            let banned_nodes: Vec<NodeId> = (0..n).filter(|_| rng.gen_bool(0.15)).map(NodeId).collect();
            let mut banned_links = Vec::new();
            let (mut g, mut allowed) = (Graph::with_nodes(n), Graph::with_nodes(n));
            for (i, j) in edges {
                let l = g.add_link(NodeId(i), NodeId(j)).unwrap();
                if rng.gen_bool(0.15) {
                    banned_links.push(l);
                } else if !banned_nodes.contains(&NodeId(i)) && !banned_nodes.contains(&NodeId(j)) {
                    allowed.add_link(NodeId(i), NodeId(j)).unwrap();
                }
            }
            let s = NodeId(rng.gen_range(0..n));
            let t = NodeId(rng.gen_range(0..n));
            let plain = shortest_path(&g, s, t).unwrap().map(|p| p.nodes().to_vec());
            prop_assert_eq!(plain, reference(&g, s, t));
            prop_assert_eq!(
                avoiding(&g, s, t, &banned_nodes, &banned_links),
                reference(&allowed, s, t)
            );
        }
    }
}
