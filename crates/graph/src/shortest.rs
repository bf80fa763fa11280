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

use std::cell::Cell;
use std::cmp::Ordering;

use rand::Rng;

use crate::{Graph, GraphError, NodeId, Path};

/// Each node's neighbour set as a sparse bitset over node ids: (word
/// index, 64-bit mask) pairs in ascending word order, at most one pair
/// per link end, so O(|E|) memory. A search expands a BFS level by OR-ing
/// whole words of these masks. Build it once per graph and share it
/// read-only between the searches and threads that use that graph.
///
/// ```
/// use tomo_graph::{shortest, Graph};
///
/// # fn main() -> Result<(), tomo_graph::GraphError> {
/// let mut g = Graph::new();
/// let a = g.add_node("a");
/// let b = g.add_node("b");
/// let c = g.add_node("c");
/// g.add_link(a, b)?;
/// g.add_link(b, c)?;
/// let index = shortest::NeighbourIndex::new(&g);
/// let paths = shortest::yen_k_shortest(&index, a, c, 3)?;
/// assert_eq!(paths.len(), 1);
/// assert_eq!(paths[0].nodes(), &[a, b, c]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct NeighbourIndex<'g> {
    graph: &'g Graph,
    /// Node `u`'s pairs are `masks[start[u]..start[u + 1]]`.
    start: Vec<usize>,
    masks: Vec<(usize, u64)>,
}

impl<'g> NeighbourIndex<'g> {
    /// Indexes the neighbour sets of `graph`'s nodes.
    #[must_use]
    pub fn new(graph: &'g Graph) -> Self {
        let mut start = Vec::with_capacity(graph.num_nodes() + 1);
        let mut masks = Vec::with_capacity(2 * graph.num_links());
        let mut ids = Vec::new();
        start.push(0);
        for u in graph.nodes() {
            ids.clear();
            let adjacent = graph.neighbors(u).expect("graph nodes are graph nodes");
            ids.extend(adjacent.iter().map(|&(v, _)| v.index()));
            ids.sort_unstable();
            let first = masks.len();
            for &v in &ids {
                let (word, bit) = (v / 64, 1 << (v % 64));
                match masks[first..].last_mut() {
                    Some((w, mask)) if *w == word => *mask |= bit,
                    _ => masks.push((word, bit)),
                }
            }
            start.push(masks.len());
        }
        NeighbourIndex {
            graph,
            start,
            masks,
        }
    }

    /// Node `u`'s neighbour set.
    fn row(&self, u: usize) -> &[(usize, u64)] {
        &self.masks[self.start[u]..self.start[u + 1]]
    }

    /// Words in a bitset over the graph's nodes.
    fn words(&self) -> usize {
        self.graph.num_nodes().div_ceil(64)
    }
}

/// State of one breadth-first search; a thread reuses it for every
/// search it runs (see [`with_scratch`]).
#[derive(Default)]
struct Search {
    /// Nodes banned or already reached, as a bitset over node ids.
    seen: Vec<u64>,
    /// The level being discovered, as a dense bitset; all zero between
    /// levels.
    next: Vec<u64>,
    /// The levels found, as sparse bitsets in ascending word order: level
    /// `d` is `levels[bounds[d]..bounds[d + 1]]`, and level 0 is the
    /// source. Each node is in at most one level, so they hold at most
    /// one entry per node.
    levels: Vec<(usize, u64)>,
    bounds: Vec<usize>,
    /// Node sequence of the last path found, source first.
    path: Vec<NodeId>,
}

impl Search {
    /// Breadth-first search from `source` to `target` for a path of at
    /// most `limit` links that avoids the `banned` nodes and the first
    /// hops `source → h` for each `h` in `hops`.
    ///
    /// Each level is the OR of the previous level's neighbour masks,
    /// less `seen`, which starts as the banned nodes. The path is then
    /// walked back from the target: a node's predecessor is the lowest
    /// set bit of (previous level ∩ its neighbour mask), the module's
    /// tie-break rule. Only the source's links can be banned, and the
    /// source is alone in its level, so every link between two deeper
    /// levels may be walked. On success the path is left in `self.path`;
    /// `source == target` or a banned endpoint has no path. A search
    /// capped at `limit` levels expands them as the uncapped one does, so
    /// it finds the same path when that path has at most `limit` links
    /// and none otherwise.
    fn run(
        &mut self,
        index: &NeighbourIndex<'_>,
        banned: &[NodeId],
        hops: &[NodeId],
        source: NodeId,
        target: NodeId,
        limit: usize,
    ) -> bool {
        let words = index.words();
        self.seen.clear();
        self.seen.resize(words, 0);
        self.next.clear();
        self.next.resize(words, 0);
        for &n in banned {
            self.seen[n.index() / 64] |= bit(n);
        }
        if source == target || has(&self.seen, source) || has(&self.seen, target) {
            return false;
        }
        self.seen[source.index() / 64] |= bit(source);
        self.levels.clear();
        self.levels.push((source.index() / 64, bit(source)));
        self.bounds.clear();
        self.bounds.extend([0, 1]);
        let (tw, tbit) = (target.index() / 64, bit(target));
        for depth in 0..limit {
            // Level `depth + 1` is the OR of level `depth`'s neighbour
            // masks (the source's, less the banned first hops), less
            // `seen`. Level `depth` is complete, so the search can stop
            // as soon as the target shows up.
            let (from, to) = (self.bounds[depth], self.bounds[depth + 1]);
            for &(word, mut bits) in &self.levels[from..to] {
                while bits != 0 {
                    let u = word * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    for &(w, mask) in index.row(u) {
                        self.next[w] |= mask;
                    }
                    if depth == 0 {
                        for &h in hops {
                            self.next[h.index() / 64] &= !bit(h);
                        }
                    }
                    if self.next[tw] & tbit != 0 {
                        self.walk_back(index, source, target);
                        return true;
                    }
                }
            }
            for (w, (next, seen)) in self.next.iter_mut().zip(&mut self.seen).enumerate() {
                let fresh = std::mem::take(next) & !*seen;
                if fresh != 0 {
                    *seen |= fresh;
                    self.levels.push((w, fresh));
                }
            }
            if self.levels.len() == to {
                return false;
            }
            self.bounds.push(self.levels.len());
        }
        false
    }

    /// Fills `self.path` from the levels, the target being one level past
    /// the last.
    fn walk_back(&mut self, index: &NeighbourIndex<'_>, source: NodeId, target: NodeId) {
        self.path.clear();
        self.path.push(target);
        let mut cur = target;
        // The predecessor levels from the last down to level 1; level 0 is
        // the source alone.
        for d in (1..self.bounds.len() - 1).rev() {
            let level = &self.levels[self.bounds[d]..self.bounds[d + 1]];
            cur = lowest_common(level, index.row(cur.index()))
                .expect("a node of level d + 1 has a neighbour in level d");
            self.path.push(cur);
        }
        self.path.push(source);
        self.path.reverse();
    }
}

/// `n`'s bit within its word of a bitset over node ids.
fn bit(n: NodeId) -> u64 {
    1 << (n.index() % 64)
}

/// Whether the dense bitset `set` holds `n`.
fn has(set: &[u64], n: NodeId) -> bool {
    set[n.index() / 64] & bit(n) != 0
}

/// The lowest node in both sparse bitsets, each in ascending word order.
fn lowest_common(a: &[(usize, u64)], b: &[(usize, u64)]) -> Option<NodeId> {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                let both = a[i].1 & b[j].1;
                if both != 0 {
                    return Some(NodeId(a[i].0 * 64 + both.trailing_zeros() as usize));
                }
                i += 1;
                j += 1;
            }
        }
    }
    None
}

/// A queued Yen candidate: its node sequence is
/// `arena[start..start + len]`, and it deviated from its parent path at
/// index `spur`.
struct Candidate {
    start: usize,
    len: usize,
    spur: usize,
}

/// All the mutable state of a search or a Yen call, kept by a thread
/// between calls and handed to the next call empty (see
/// [`with_scratch`]). It holds no graph identity: every call sizes it
/// from the index it is given.
#[derive(Default)]
struct Scratch {
    search: Search,
    /// The first hops banned at the current spur node.
    hops: Vec<NodeId>,
    /// The node sequences of a Yen call's candidates, back to back.
    arena: Vec<NodeId>,
    /// The queued candidates.
    candidates: Vec<Candidate>,
    /// The number of queued candidates at each link count, up to the
    /// longest queued.
    queued: Vec<usize>,
}

thread_local! {
    /// This thread's scratch between calls.
    static SCRATCH: Cell<Option<Scratch>> = const { Cell::new(None) };
}

/// Candidate-path nodes a thread keeps room for per graph node. A Yen
/// call with `k = 6` on the seed-42 Fig. 7 graphs queues at most 12.6 per
/// node (1,035 nodes on an 82-node ISP graph), so placement's calls never
/// regrow the arena.
const ARENA_NODES_PER_NODE: usize = 16;

/// Runs `f` on this thread's scratch and keeps the scratch for the
/// thread's next call, trimmed to what a call on `index`'s graph uses:
/// one word per 64 nodes for the dense bitsets, at most one entry per
/// node for the levels, the path, the bans and the queue counts, and
/// [`ARENA_NODES_PER_NODE`] nodes per node for the candidates. What a
/// thread keeps between calls is thus bounded by the last graph it
/// searched. If `f` panics the scratch is dropped.
fn with_scratch<T>(index: &NeighbourIndex<'_>, f: impl FnOnce(&mut Scratch) -> T) -> T {
    let mut scratch = SCRATCH
        .try_with(Cell::take)
        .ok()
        .flatten()
        .unwrap_or_default();
    let out = f(&mut scratch);
    let (n, words) = (index.graph.num_nodes(), index.words());
    let Scratch {
        search,
        hops,
        arena,
        candidates,
        queued,
    } = &mut scratch;
    fit(&mut search.seen, words);
    fit(&mut search.next, words);
    fit(&mut search.levels, n);
    fit(&mut search.bounds, n + 1);
    fit(&mut search.path, n);
    fit(hops, n);
    // Each candidate holds at least two nodes of the arena.
    fit(arena, ARENA_NODES_PER_NODE * n);
    fit(candidates, ARENA_NODES_PER_NODE * n / 2);
    fit(queued, n);
    let _ = SCRATCH.try_with(|slot| slot.set(Some(scratch)));
    out
}

/// Empties `v`, as the next call expects, and caps its capacity at `cap`
/// elements.
fn fit<T>(v: &mut Vec<T>, cap: usize) {
    v.clear();
    v.shrink_to(cap);
}

/// Shortest path by hop count, ties broken by the module's
/// lowest-id-predecessor rule. Builds a [`NeighbourIndex`] for the one
/// search.
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
    let index = NeighbourIndex::new(graph);
    Ok(with_scratch(&index, |scratch| {
        shortest_in(&index, &mut scratch.search, source, target)
    }))
}

/// The shortest path from `source` to `target` (known nodes) on `index`.
fn shortest_in(
    index: &NeighbourIndex<'_>,
    search: &mut Search,
    source: NodeId,
    target: NodeId,
) -> Option<Path> {
    search
        .run(index, &[], &[], source, target, usize::MAX)
        .then(|| Path::from_search(index.graph, &search.path))
}

/// Yen's algorithm: up to `k` shortest loopless paths from `source` to
/// `target` by hop count on `index`'s graph, in non-decreasing length
/// order (equal lengths by node sequence). Returns an empty `Vec` if
/// `k == 0`, `target` is unreachable, or `source == target`.
///
/// Every spur search runs on the thread's one scratch, and candidates
/// stay node sequences in one arena: only the returned paths are built as
/// [`Path`]s. A spur search bans the root's nodes before the spur node
/// and, as first hops from the spur node, the next node of every accepted
/// path sharing the root.
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
    index: &NeighbourIndex<'_>,
    source: NodeId,
    target: NodeId,
    k: usize,
) -> Result<Vec<Path>, GraphError> {
    let _ = index.graph.label(source)?;
    let _ = index.graph.label(target)?;
    Ok(with_scratch(index, |scratch| {
        scratch.yen(index, source, target, k)
    }))
}

impl Scratch {
    /// [`yen_k_shortest`] on known endpoints.
    fn yen(
        &mut self,
        index: &NeighbourIndex<'_>,
        source: NodeId,
        target: NodeId,
        k: usize,
    ) -> Vec<Path> {
        let graph = index.graph;
        let mut result: Vec<Path> = Vec::new();
        if k == 0 {
            return result;
        }
        let Some(first) = shortest_in(index, &mut self.search, source, target) else {
            return result;
        };
        result.push(first);
        let mut deviation = 0;
        while result.len() < k {
            let last = result.len() - 1;
            let need = k - result.len();
            let mut bound = nth_shortest(&self.queued, need);
            // Each node of the previous path from its deviation on (except
            // the final node) is a spur.
            for spur_idx in deviation..result[last].nodes().len() - 1 {
                let limit = match bound {
                    Some(links) if links <= spur_idx => break,
                    Some(links) => links - spur_idx,
                    None => usize::MAX,
                };
                let root = &result[last].nodes()[..=spur_idx];
                // Ban the next link of every accepted path sharing this
                // root, as a first hop from the spur node.
                self.hops.clear();
                for p in &result {
                    if p.nodes().len() > spur_idx + 1 && p.nodes()[..=spur_idx] == *root {
                        self.hops.push(p.nodes()[spur_idx + 1]);
                    }
                }
                // Root nodes before the spur node are banned (loopless
                // requirement).
                let prefix = &root[..spur_idx];
                if !self
                    .search
                    .run(index, prefix, &self.hops, root[spur_idx], target, limit)
                {
                    continue;
                }
                // Total path = root + spur; compared in place, stored only
                // when new.
                let spur = self.search.path.as_slice();
                // The spur part first: candidates of the same root differ
                // there.
                let is_total = |nodes: &[NodeId]| {
                    nodes.len() == spur_idx + spur.len()
                        && nodes[spur_idx..] == *spur
                        && nodes[..spur_idx] == *prefix
                };
                // An accepted path sharing the root has its next node
                // banned as a first hop, and one not sharing it differs
                // in the root, so root + spur is never an accepted path.
                debug_assert!(!result.iter().any(|p| is_total(p.nodes())));
                if !self
                    .candidates
                    .iter()
                    .any(|c| is_total(&self.arena[c.start..c.start + c.len]))
                {
                    let start = self.arena.len();
                    self.arena.extend_from_slice(prefix);
                    self.arena.extend_from_slice(spur);
                    self.candidates.push(Candidate {
                        start,
                        len: spur_idx + spur.len(),
                        spur: spur_idx,
                    });
                    let links = spur_idx + spur.len() - 1;
                    if self.queued.len() <= links {
                        self.queued.resize(links + 1, 0);
                    }
                    self.queued[links] += 1;
                    bound = nth_shortest(&self.queued, need);
                }
            }
            let nodes = |c: &Candidate| &self.arena[c.start..c.start + c.len];
            let Some(best) = (0..self.candidates.len()).min_by(|&a, &b| {
                let (a, b) = (nodes(&self.candidates[a]), nodes(&self.candidates[b]));
                a.len().cmp(&b.len()).then_with(|| a.cmp(b))
            }) else {
                break;
            };
            let chosen = self.candidates.swap_remove(best);
            self.queued[chosen.len - 1] -= 1;
            deviation = chosen.spur;
            result.push(Path::from_search(graph, nodes(&chosen)));
        }
        result
    }
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
/// `rng`, all searched on one [`NeighbourIndex`]. A guard bounds the
/// attempts at 20 per wanted path, so the count can fall short on tiny
/// graphs. A graph with fewer than two nodes has no pair to draw: it
/// yields no path and leaves `rng` untouched.
pub fn sample_extra_paths<R: Rng + ?Sized>(graph: &Graph, extra: usize, rng: &mut R) -> Vec<Path> {
    let n = graph.num_nodes();
    if extra == 0 || n < 2 {
        return Vec::new();
    }
    let index = NeighbourIndex::new(graph);
    with_scratch(&index, |scratch| {
        let mut out = Vec::with_capacity(extra);
        let mut guard = 0;
        while out.len() < extra && guard < extra * 20 {
            guard += 1;
            let u = NodeId(rng.gen_range(0..n));
            let v = NodeId(rng.gen_range(0..n));
            if u == v {
                continue;
            }
            if let Some(p) = shortest_in(&index, &mut scratch.search, u, v) {
                if p.num_links() > 1 {
                    out.push(p);
                }
            }
        }
        out
    })
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

    /// Yen on a fresh index of `g`.
    fn yen(g: &Graph, s: NodeId, t: NodeId, k: usize) -> Result<Vec<Path>, GraphError> {
        yen_k_shortest(&NeighbourIndex::new(g), s, t, k)
    }

    /// The search on `g` with `nodes` banned and the first hops `s → h`
    /// for `h` in `hops`, as Yen's spur searches run it.
    fn avoiding(
        g: &Graph,
        s: NodeId,
        t: NodeId,
        nodes: &[NodeId],
        hops: &[NodeId],
    ) -> Option<Vec<NodeId>> {
        let mut search = Search::default();
        let index = NeighbourIndex::new(g);
        search
            .run(&index, nodes, hops, s, t, usize::MAX)
            .then(|| search.path.clone())
    }

    #[test]
    fn shortest_is_direct_link() {
        let (g, ids) = diamond();
        let p = shortest_path(&g, ids[0], ids[3]).unwrap().unwrap();
        assert_eq!(p.num_links(), 1);
        assert_eq!(p.links(), &[crate::LinkId(4)]);
    }

    #[test]
    fn equal_length_ties_take_the_lowest_id_predecessor() {
        let (g, ids) = diamond();
        // Ban direct a-d: a-b-d and a-c-d tie, and b (id 1) beats c (id 2).
        let p = avoiding(&g, ids[0], ids[3], &[], &[ids[3]]);
        assert_eq!(p, Some(vec![ids[0], ids[1], ids[3]]));
    }

    #[test]
    fn a_predecessor_behind_a_banned_first_hop_is_skipped() {
        // s=0 with links to 1 and 2, both linked to t=3, and 1-2. With
        // s → 1 banned, 1 is reached only at t's level (through 2), so t's
        // predecessor is 2, although 1 is its lowest-id neighbour and one
        // hop from s in the graph.
        let mut g = Graph::with_nodes(4);
        for (u, v) in [(0, 1), (0, 2), (1, 3), (2, 3), (1, 2)] {
            g.add_link(NodeId(u), NodeId(v)).unwrap();
        }
        let (s, t) = (NodeId(0), NodeId(3));
        assert_eq!(avoiding(&g, s, t, &[], &[]), Some(vec![s, NodeId(1), t]));
        assert_eq!(
            avoiding(&g, s, t, &[], &[NodeId(1)]),
            Some(vec![s, NodeId(2), t])
        );
        // Yen's second path bans s → 1 at the spur s.
        let paths = yen(&g, s, t, 2).unwrap();
        assert_eq!(paths[1].nodes(), &[s, NodeId(2), t]);
    }

    #[test]
    fn same_endpoint_has_no_path() {
        let (g, ids) = diamond();
        assert!(shortest_path(&g, ids[0], ids[0]).unwrap().is_none());
        assert!(yen(&g, ids[2], ids[2], 4).unwrap().is_empty());
        // Unknown nodes are still an error, even when equal.
        assert!(shortest_path(&g, NodeId(99), NodeId(99)).is_err());
        assert!(yen(&g, NodeId(99), NodeId(99), 4).is_err());
    }

    #[test]
    fn banned_node_blocks_path() {
        let (g, ids) = diamond();
        // Ban b and the direct a-d link: must go a-c-d.
        let p = avoiding(&g, ids[0], ids[3], &[ids[1]], &[ids[3]]);
        assert_eq!(p, Some(vec![ids[0], ids[2], ids[3]]));
        // A banned endpoint has no path.
        assert_eq!(avoiding(&g, ids[0], ids[3], &[ids[0]], &[]), None);
        assert_eq!(avoiding(&g, ids[0], ids[3], &[ids[3]], &[]), None);
    }

    #[test]
    fn yen_returns_increasing_lengths_without_duplicates() {
        let (g, ids) = diamond();
        let paths = yen(&g, ids[0], ids[3], 5).unwrap();
        // Paths a→d: direct (1), a-b-d (2), a-c-d (2), a-c-e-d (3) = 4
        // total; asking for more returns the same 4.
        assert_eq!(paths.len(), 4);
        for w in paths.windows(2) {
            assert!(w[0].num_links() <= w[1].num_links());
            assert_ne!(w[0], w[1]);
        }
        assert_eq!(paths[0].num_links(), 1);
        assert_eq!(paths[3].num_links(), 3);
        assert_eq!(yen(&g, ids[0], ids[3], 100).unwrap(), paths);
        // Built without `Path::from_nodes`, yet the same paths.
        for p in &paths {
            assert_eq!(p, &Path::from_nodes(&g, p.nodes()).unwrap());
            assert_eq!(p.source(), ids[0]);
            assert_eq!(p.destination(), ids[3]);
        }
    }

    #[test]
    fn yen_k_zero_and_disconnected() {
        let (g, ids) = diamond();
        assert!(yen(&g, ids[0], ids[3], 0).unwrap().is_empty());
        let mut g2 = Graph::new();
        let a = g2.add_node("a");
        let b = g2.add_node("b");
        assert!(shortest_path(&g2, a, b).unwrap().is_none());
        assert!(yen(&g2, a, b, 3).unwrap().is_empty());
    }

    #[test]
    fn a_limited_search_finds_a_path_of_exactly_limit_links() {
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
        let index = NeighbourIndex::new(&g);
        let mut search = Search::default();
        let mut run = |target: NodeId, limit: usize| {
            search
                .run(&index, &[], &[], NodeId(0), target, limit)
                .then(|| search.path.clone())
        };
        for t in 1..150 {
            let target = NodeId(t);
            let path = run(target, usize::MAX).unwrap();
            let links = path.len() - 1;
            assert_eq!(run(target, links), Some(path), "t = {t}");
            assert_eq!(run(target, links - 1), None, "t = {t}");
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
        let paths = yen(&g, NodeId(0), NodeId(5), 2).unwrap();
        assert_eq!(
            paths.iter().map(nodes).collect::<Vec<_>>(),
            [vec![0, 1, 5], vec![0, 1, 4, 5]]
        );
        assert_eq!(paths, yen_unpruned(&g, NodeId(0), NodeId(5), 2));
        // The bound was the queued path's length: it comes third.
        let three = yen(&g, NodeId(0), NodeId(5), 3).unwrap();
        assert_eq!(nodes(&three[2]), [0, 2, 3, 5]);
        assert_eq!(three[1].num_links(), three[2].num_links());
    }

    /// A graph on `n` nodes with the edges of [`random_edges`].
    fn random_graph(rng: &mut ChaCha8Rng, n: usize, density: f64) -> Graph {
        let mut g = Graph::with_nodes(n);
        for (i, j) in random_edges(rng, n, density) {
            g.add_link(NodeId(i), NodeId(j)).unwrap();
        }
        g
    }

    #[test]
    fn a_reused_thread_finds_what_a_fresh_one_does() {
        // 300 nodes (five words), then 10 (one), then 150 (three): masks,
        // levels or candidates left over from a larger graph would show
        // on a smaller one.
        let mut rng = ChaCha8Rng::seed_from_u64(20261020);
        let cases: Vec<(Graph, Vec<(NodeId, NodeId)>)> = [(300, 4.0), (10, 4.0), (150, 4.0)]
            .into_iter()
            .map(|(n, degree)| {
                let g = random_graph(&mut rng, n, degree / (n - 1) as f64);
                let pairs = (0..6)
                    .map(|_| {
                        (
                            boundary_endpoint(&mut rng, n),
                            boundary_endpoint(&mut rng, n),
                        )
                    })
                    .collect();
                (g, pairs)
            })
            .collect();
        let on_one_thread: Vec<Vec<Vec<Path>>> = std::thread::spawn({
            let cases = cases.clone();
            move || {
                cases
                    .iter()
                    .map(|(g, pairs)| {
                        let index = NeighbourIndex::new(g);
                        pairs
                            .iter()
                            .map(|&(s, t)| yen_k_shortest(&index, s, t, 6).unwrap())
                            .collect()
                    })
                    .collect()
            }
        })
        .join()
        .unwrap();
        let mut found = 0;
        for ((g, pairs), reused) in cases.into_iter().zip(on_one_thread) {
            for (&(s, t), reused) in pairs.iter().zip(reused) {
                let g = g.clone();
                let fresh = std::thread::spawn(move || yen(&g, s, t, 6).unwrap())
                    .join()
                    .unwrap();
                assert_eq!(reused, fresh, "{s} → {t}");
                found += fresh.len();
            }
        }
        assert!(found > 36, "the pairs have paths to compare: {found}");
    }

    #[test]
    fn a_thread_keeps_at_most_what_the_last_graph_uses() {
        std::thread::spawn(|| {
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            let big = random_graph(&mut rng, 300, 4.0 / 299.0);
            let small = random_graph(&mut rng, 10, 4.0 / 9.0);
            assert!(!yen(&big, NodeId(0), NodeId(299), 6).unwrap().is_empty());
            let grown = SCRATCH.with(|slot| {
                let kept = slot.take().expect("a scratch is kept");
                let grown = kept.search.levels.capacity();
                slot.set(Some(kept));
                grown
            });
            assert!(grown > 10, "the big graph's levels: {grown}");
            let _ = yen(&small, NodeId(0), NodeId(9), 6).unwrap();
            let kept = SCRATCH.with(Cell::take).expect("a scratch is kept");
            assert!(kept.search.seen.capacity() <= 1);
            assert!(kept.search.next.capacity() <= 1);
            assert!(kept.search.levels.capacity() <= 10);
            assert!(kept.search.bounds.capacity() <= 11);
            assert!(kept.search.path.capacity() <= 10);
            assert!(kept.hops.capacity() <= 10);
            assert!(kept.arena.capacity() <= ARENA_NODES_PER_NODE * 10);
            assert!(kept.candidates.capacity() <= ARENA_NODES_PER_NODE * 5);
            assert!(kept.queued.capacity() <= 10);
        })
        .join()
        .unwrap();
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

    /// Yen's loop without Lawler's pruning or the spur bound — every node
    /// of each accepted path is a spur, searched without a limit — kept as
    /// the reference for [`yen_k_shortest`].
    fn yen_unpruned(graph: &Graph, source: NodeId, target: NodeId, k: usize) -> Vec<Path> {
        let index = NeighbourIndex::new(graph);
        let mut search = Search::default();
        let mut result: Vec<Path> = Vec::new();
        if k == 0 || !search.run(&index, &[], &[], source, target, usize::MAX) {
            return result;
        }
        result.push(Path::from_nodes(graph, &search.path).unwrap());
        let mut candidates: Vec<Vec<NodeId>> = Vec::new();
        while result.len() < k {
            let last = result.len() - 1;
            for spur_idx in 0..result[last].nodes().len() - 1 {
                let root = &result[last].nodes()[..=spur_idx];
                let hops: Vec<NodeId> = result
                    .iter()
                    .filter(|p| p.nodes().len() > spur_idx + 1 && p.nodes()[..=spur_idx] == *root)
                    .map(|p| p.nodes()[spur_idx + 1])
                    .collect();
                if !search.run(
                    &index,
                    &root[..spur_idx],
                    &hops,
                    root[spur_idx],
                    target,
                    usize::MAX,
                ) {
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

    /// The small size class: 2..=14 nodes at density 0.1 to 0.6.
    fn small_size(rng: &mut ChaCha8Rng) -> (usize, f64) {
        (rng.gen_range(2usize..=14), rng.gen_range(0.1..0.6))
    }

    /// The wide size class: 65..=200 nodes (two to four bitset words) at a
    /// mean degree of 1.5 to 6, sparse enough for paths of many levels.
    fn wide_size(rng: &mut ChaCha8Rng) -> (usize, f64) {
        let n = rng.gen_range(65usize..=200);
        (n, rng.gen_range(1.5..6.0) / (n - 1) as f64)
    }

    /// The large size class: 300..=700 nodes (five to eleven bitset
    /// words), as the ISP placements and the fixture have, at a mean
    /// degree of 1.5 to 6.
    fn large_size(rng: &mut ChaCha8Rng) -> (usize, f64) {
        let n = rng.gen_range(300usize..=700);
        (n, rng.gen_range(1.5..6.0) / (n - 1) as f64)
    }

    fn any_endpoint(rng: &mut ChaCha8Rng, n: usize) -> NodeId {
        NodeId(rng.gen_range(0..n))
    }

    /// An endpoint for the multi-word classes: half the time an id on
    /// either side of a word boundary (63/64, 127/128, …) or at an end,
    /// else any node.
    fn boundary_endpoint(rng: &mut ChaCha8Rng, n: usize) -> NodeId {
        if rng.gen_bool(0.5) {
            let edges: Vec<usize> = [0, n - 1]
                .into_iter()
                .chain((64..n).step_by(64).flat_map(|w| [w - 1, w]))
                .collect();
            NodeId(edges[rng.gen_range(0..edges.len())])
        } else {
            any_endpoint(rng, n)
        }
    }

    /// Pruned and bounded Yen against [`yen_unpruned`] on one random graph.
    fn yen_case(
        rng: &mut ChaCha8Rng,
        (n, density): (usize, f64),
        endpoint: fn(&mut ChaCha8Rng, usize) -> NodeId,
    ) -> TestCaseResult {
        let g = random_graph(rng, n, density);
        let s = endpoint(rng, n);
        let t = endpoint(rng, n);
        let k = rng.gen_range(1usize..=8);
        prop_assert_eq!(yen(&g, s, t, k).unwrap(), yen_unpruned(&g, s, t, k));
        Ok(())
    }

    /// `shortest_path` and the banned search against [`reference`] on one
    /// random graph: random banned nodes and random banned first hops of
    /// the source, the reference run on the graph without the banned
    /// nodes' links and the banned first hops.
    fn bfs_case(
        rng: &mut ChaCha8Rng,
        (n, density): (usize, f64),
        endpoint: fn(&mut ChaCha8Rng, usize) -> NodeId,
    ) -> TestCaseResult {
        let g = random_graph(rng, n, density);
        let s = endpoint(rng, n);
        let t = endpoint(rng, n);
        let banned: Vec<NodeId> = (0..n).filter(|_| rng.gen_bool(0.15)).map(NodeId).collect();
        let hops: Vec<NodeId> = g
            .neighbors(s)
            .unwrap()
            .iter()
            .map(|&(h, _)| h)
            .filter(|_| rng.gen_bool(0.3))
            .collect();
        let mut allowed = Graph::with_nodes(n);
        for l in g.links() {
            let (a, b) = g.endpoints(l).unwrap();
            let hop = (a == s && hops.contains(&b)) || (b == s && hops.contains(&a));
            if !hop && !banned.contains(&a) && !banned.contains(&b) {
                allowed.add_link(a, b).unwrap();
            }
        }
        let plain = shortest_path(&g, s, t).unwrap().map(|p| p.nodes().to_vec());
        prop_assert_eq!(plain, reference(&g, s, t));
        prop_assert_eq!(
            avoiding(&g, s, t, &banned, &hops),
            reference(&allowed, s, t)
        );
        Ok(())
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
            yen_case(&mut rng, size, boundary_endpoint)?;
        }

        /// [`bfs_matches_tie_break_reference`] on graphs of 65..=200 nodes.
        #[test]
        fn bfs_matches_tie_break_reference_past_one_word(seed in 0u64..100_000) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let size = wide_size(&mut rng);
            bfs_case(&mut rng, size, boundary_endpoint)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// [`pruned_yen_matches_unpruned`] on graphs of 300..=700 nodes,
        /// five to eleven bitset words.
        #[test]
        fn pruned_yen_matches_unpruned_past_four_words(seed in 0u64..100_000) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let size = large_size(&mut rng);
            yen_case(&mut rng, size, boundary_endpoint)?;
        }

        /// [`bfs_matches_tie_break_reference`] on graphs of 300..=700
        /// nodes.
        #[test]
        fn bfs_matches_tie_break_reference_past_four_words(seed in 0u64..100_000) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let size = large_size(&mut rng);
            bfs_case(&mut rng, size, boundary_endpoint)?;
        }
    }
}
