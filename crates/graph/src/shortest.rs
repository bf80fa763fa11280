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
    /// The level being expanded and the one being discovered, as bitsets
    /// over node ids.
    frontier: Vec<u64>,
    next: Vec<u64>,
    /// Node sequence of the last path found, source first.
    path: Vec<NodeId>,
}

impl Search {
    fn new(graph: &Graph) -> Self {
        let words = graph.num_nodes().div_ceil(64);
        Search {
            stamp: 1,
            banned_nodes: vec![0; graph.num_nodes()],
            banned_links: vec![0; graph.num_links()],
            seen: vec![0; graph.num_nodes()],
            prev: vec![NodeId(0); graph.num_nodes()],
            frontier: vec![0; words],
            next: vec![0; words],
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
    /// avoiding the banned nodes and links. Each level's bits are visited
    /// low to high, so a node's predecessor is the lowest-id neighbour one
    /// level closer — the module's tie-break rule. On success the path is
    /// left in `self.path`; `source == target` or a banned endpoint has no
    /// path.
    fn run(&mut self, graph: &Graph, source: NodeId, target: NodeId) -> bool {
        self.run_within(graph, source, target, usize::MAX)
    }

    /// [`Self::run`] for a path of at most `limit` links: it expands the
    /// first `limit` levels exactly as the uncapped search does, so it
    /// finds the same path when that path has at most `limit` links and
    /// none otherwise.
    fn run_within(&mut self, graph: &Graph, source: NodeId, target: NodeId, limit: usize) -> bool {
        let stamp = self.stamp;
        if source == target
            || self.banned_nodes[source.index()] == stamp
            || self.banned_nodes[target.index()] == stamp
        {
            return false;
        }
        self.seen[source.index()] = stamp;
        // An earlier search may have stopped with bits still set.
        self.frontier.fill(0);
        self.next.fill(0);
        self.frontier[source.index() / 64] = 1 << (source.index() % 64);
        'levels: for _ in 0..limit {
            let mut discovered = false;
            for word in 0..self.frontier.len() {
                let mut bits = std::mem::take(&mut self.frontier[word]);
                while bits != 0 {
                    let u = NodeId(word * 64 + bits.trailing_zeros() as usize);
                    bits &= bits - 1;
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
                        self.next[v.index() / 64] |= 1 << (v.index() % 64);
                        discovered = true;
                    }
                }
            }
            if !discovered {
                break;
            }
            // `frontier` was emptied word by word: it becomes the next `next`.
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
/// queued.
///
/// Bounded spur searches: while `need` more paths are wanted and at
/// least `need` candidates are queued, let `ℓ` be the link count of the
/// `need`-th shortest of them. A spur at index `i` then searches only
/// for spurs of at most `ℓ − i` links, and not at all once `ℓ ≤ i`.
/// Only the queue's minimum by (length, node sequence) is ever accepted,
/// so a longer total has `need` better candidates ahead of it; an
/// acceptance removes the minimum and a new candidate can only lower
/// `ℓ`, so `ℓ` never rises. A total of exactly `ℓ` links can still win
/// on node sequence, so the bound is inclusive. With both, the output is
/// that of the unpruned, unbounded loop.
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

    // Each candidate with the spur index it deviated at, and the number
    // of candidates queued at each link count.
    let mut candidates: Vec<(Vec<NodeId>, usize)> = Vec::new();
    let mut queued = vec![0usize; graph.num_nodes()];
    let mut deviation = 0;
    while result.len() < k {
        let last = result.len() - 1;
        let need = k - result.len();
        let mut bound = nth_shortest(&queued, need);
        // Each node of the previous path from its deviation on (except
        // the final node) is a spur.
        for spur_idx in deviation..result[last].nodes().len() - 1 {
            let limit = match bound {
                Some(links) if links <= spur_idx => break,
                Some(links) => links - spur_idx,
                None => usize::MAX,
            };
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
            if !search.run_within(graph, root[spur_idx], target, limit) {
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
                queued[spur_idx + spur.len() - 1] += 1;
                bound = nth_shortest(&queued, need);
            }
        }
        let Some(best) = (0..candidates.len()).min_by(|&a, &b| {
            let (a, b) = (&candidates[a].0, &candidates[b].0);
            a.len().cmp(&b.len()).then_with(|| a.cmp(b))
        }) else {
            break;
        };
        let (nodes, spur_idx) = candidates.swap_remove(best);
        queued[nodes.len() - 1] -= 1;
        deviation = spur_idx;
        result.push(Path::from_nodes(graph, &nodes)?);
    }
    Ok(result)
}

/// The link count of the `need`-th shortest queued candidate, given the
/// number queued at each link count; `None` while fewer are queued.
fn nth_shortest(queued: &[usize], need: usize) -> Option<usize> {
    let mut count = 0;
    queued.iter().position(|&at| {
        count += at;
        count >= need
    })
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

    #[test]
    fn run_within_finds_a_path_of_exactly_limit_links() {
        // A ladder of 75 rungs (150 nodes, three bitset words): rails
        // 0..75 and 75..150, rung i-(i + 75). Every other target ties.
        let mut g = Graph::with_nodes(150);
        for i in 0..75 {
            g.add_link(NodeId(i), NodeId(i + 75)).unwrap();
            if i + 1 < 75 {
                g.add_link(NodeId(i), NodeId(i + 1)).unwrap();
                g.add_link(NodeId(i + 75), NodeId(i + 76)).unwrap();
            }
        }
        let mut search = Search::new(&g);
        for t in 1..150 {
            let target = NodeId(t);
            assert!(search.run(&g, NodeId(0), target));
            let path = search.path.clone();
            let links = path.len() - 1;
            search.stamp += 1;
            assert!(search.run_within(&g, NodeId(0), target, links), "t = {t}");
            assert_eq!(search.path, path, "t = {t}");
            search.stamp += 1;
            assert!(
                !search.run_within(&g, NodeId(0), target, links - 1),
                "t = {t}"
            );
            search.stamp += 1;
        }
    }

    #[test]
    fn a_path_as_long_as_the_bound_wins_on_node_sequence() {
        // s=0, a=1, b=2, c=3, d=4, t=5: s-a-t first; the spur at s queues
        // s-b-c-t (3 links), so the spur at a may search 3 − 1 = 2 links
        // and finds s-a-d-t, as long and first by node sequence.
        let mut g = Graph::with_nodes(6);
        for (u, v) in [(0, 1), (0, 2), (1, 5), (1, 4), (2, 3), (3, 5), (4, 5)] {
            g.add_link(NodeId(u), NodeId(v)).unwrap();
        }
        let nodes = |p: &Path| p.nodes().iter().map(|n| n.index()).collect::<Vec<_>>();
        let paths = yen_k_shortest(&g, NodeId(0), NodeId(5), 2).unwrap();
        assert_eq!(
            paths.iter().map(nodes).collect::<Vec<_>>(),
            [vec![0, 1, 5], vec![0, 1, 4, 5]]
        );
        assert_eq!(paths, yen_unpruned(&g, NodeId(0), NodeId(5), 2));
        // The bound was the queued path's length: it comes third.
        let three = yen_k_shortest(&g, NodeId(0), NodeId(5), 3).unwrap();
        assert_eq!(nodes(&three[2]), [0, 2, 3, 5]);
        assert_eq!(three[1].num_links(), three[2].num_links());
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

    /// Edges on `n` nodes, each present with probability `density`, in
    /// random insertion order (which fixes adjacency order, and must not
    /// matter).
    fn random_edges(rng: &mut ChaCha8Rng, n: usize, density: f64) -> Vec<(usize, usize)> {
        let mut edges: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
            .filter(|_| rng.gen_bool(density))
            .collect();
        edges.shuffle(rng);
        edges
    }

    /// The wide size class: 65..=200 nodes (two to four bitset words) at a
    /// mean degree of 1.5 to 6, sparse enough for paths of many levels.
    fn wide_size(rng: &mut ChaCha8Rng) -> (usize, f64) {
        let n = rng.gen_range(65usize..=200);
        (n, rng.gen_range(1.5..6.0) / (n - 1) as f64)
    }

    /// An endpoint for the wide class: half the time an id on either side
    /// of a word boundary (63/64, 127/128) or at an end, else any node.
    fn wide_endpoint(rng: &mut ChaCha8Rng, n: usize) -> NodeId {
        if rng.gen_bool(0.5) {
            let edge = [0, 63, 64, 127, 128, n - 1][rng.gen_range(0..6usize)];
            NodeId(edge.min(n - 1))
        } else {
            NodeId(rng.gen_range(0..n))
        }
    }

    /// Pruned and bounded Yen against [`yen_unpruned`] on one random graph.
    fn yen_case(
        rng: &mut ChaCha8Rng,
        (n, density): (usize, f64),
        endpoint: fn(&mut ChaCha8Rng, usize) -> NodeId,
    ) -> TestCaseResult {
        let mut g = Graph::with_nodes(n);
        for (i, j) in random_edges(rng, n, density) {
            g.add_link(NodeId(i), NodeId(j)).unwrap();
        }
        let s = endpoint(rng, n);
        let t = endpoint(rng, n);
        let k = rng.gen_range(1usize..=8);
        prop_assert_eq!(
            yen_k_shortest(&g, s, t, k).unwrap(),
            yen_unpruned(&g, s, t, k)
        );
        Ok(())
    }

    /// `shortest_path` and the banned search against [`reference`] on one
    /// random graph, the latter run on the graph without the banned
    /// nodes' and links' edges.
    fn bfs_case(
        rng: &mut ChaCha8Rng,
        (n, density): (usize, f64),
        endpoint: fn(&mut ChaCha8Rng, usize) -> NodeId,
    ) -> TestCaseResult {
        let edges = random_edges(rng, n, density);
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
        let s = endpoint(rng, n);
        let t = endpoint(rng, n);
        let plain = shortest_path(&g, s, t).unwrap().map(|p| p.nodes().to_vec());
        prop_assert_eq!(plain, reference(&g, s, t));
        prop_assert_eq!(
            avoiding(&g, s, t, &banned_nodes, &banned_links),
            reference(&allowed, s, t)
        );
        Ok(())
    }

    /// The small size class: 2..=14 nodes at density 0.1 to 0.6.
    fn small_size(rng: &mut ChaCha8Rng) -> (usize, f64) {
        (rng.gen_range(2usize..=14), rng.gen_range(0.1..0.6))
    }

    fn any_endpoint(rng: &mut ChaCha8Rng, n: usize) -> NodeId {
        NodeId(rng.gen_range(0..n))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Lawler's pruning and the spur bound change no output: the same
        /// paths in the same order as the loop that searches every spur
        /// without a bound.
        #[test]
        fn pruned_yen_matches_unpruned(seed in 0u64..100_000) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let size = small_size(&mut rng);
            yen_case(&mut rng, size, any_endpoint)?;
        }

        /// On random graphs, `shortest_path` and the banned search match
        /// the reference.
        #[test]
        fn bfs_matches_tie_break_reference(seed in 0u64..100_000) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let size = small_size(&mut rng);
            bfs_case(&mut rng, size, any_endpoint)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// [`pruned_yen_matches_unpruned`] on graphs of 65..=200 nodes,
        /// whose BFS levels span two to four bitset words.
        #[test]
        fn pruned_yen_matches_unpruned_past_one_word(seed in 0u64..100_000) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let size = wide_size(&mut rng);
            yen_case(&mut rng, size, wide_endpoint)?;
        }

        /// [`bfs_matches_tie_break_reference`] on graphs of 65..=200 nodes.
        #[test]
        fn bfs_matches_tie_break_reference_past_one_word(seed in 0u64..100_000) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let size = wide_size(&mut rng);
            bfs_case(&mut rng, size, wide_endpoint)?;
        }
    }
}
