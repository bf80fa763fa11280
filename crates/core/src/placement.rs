//! Monitor placement with identifiability.
//!
//! The paper selects "monitors and measurement paths according to a random
//! selection algorithm based on the minimum monitor placement rule in
//! \[16\]". This module implements that contract without the full machinery
//! of \[16\] (see DESIGN.md's substitution table): monitors are added in
//! random order, candidate paths come from Yen's k-shortest paths per
//! monitor pair, and placement stops as soon as the selected path set has
//! full column rank.
//!
//! It also implements the paper's *Section VI proposal* as an extension:
//! [`security_aware_placement`] keeps adding monitors beyond
//! identifiability to minimize the worst single node's presence ratio on
//! measurement paths — the quantity Theorem 2 ties to attack success.

use std::ops::ControlFlow;

use rand::seq::SliceRandom;
use rand::Rng;

use tomo_graph::shortest::{self, NeighbourIndex};
use tomo_graph::{Graph, NodeId, Path};
use tomo_linalg::rank::SparseRank;
use tomo_obs::LazyCounter;
use tomo_par::Executor;

use crate::{CoreError, TomographySystem};

static PAIRS: LazyCounter = LazyCounter::new("core.placement.pairs");
static CANDIDATES: LazyCounter = LazyCounter::new("core.placement.candidates");
static RANK_RAISES: LazyCounter = LazyCounter::new("core.placement.rank_raises");

/// Candidate paths per monitor pair (Yen's k).
const PATHS_PER_PAIR: usize = 6;

/// Configuration for randomized monitor placement. Every placement pulls
/// Yen's six shortest paths per monitor pair and may make every node a
/// monitor; only the redundancy is set per caller.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementConfig {
    /// Redundant paths appended after identifiability is reached, as a
    /// fraction of the link count (rounded down). Redundancy is what makes
    /// detection possible at all — Theorem 3 says a square `R` hides
    /// every attack.
    pub redundancy_fraction: f64,
}

impl Default for PlacementConfig {
    fn default() -> Self {
        PlacementConfig {
            redundancy_fraction: 0.5,
        }
    }
}

/// Randomized identifiability-driven placement.
///
/// Adds monitors in a random order; after each addition, pulls Yen's six
/// shortest paths between the new monitor and every existing monitor,
/// keeping each path that increases the routing-matrix rank. Terminates
/// when rank = |L|, then appends redundant paths per
/// [`PlacementConfig::redundancy_fraction`].
///
/// Runs on [`Executor::from_env`]; [`random_placement_on`] takes the
/// executor explicitly.
///
/// # Errors
///
/// * [`CoreError::PlacementFailed`] for a graph with fewer than two
///   nodes or no links. Any other graph reaches full rank, disconnected
///   or not: once every node is a monitor, each link is the shortest
///   path between its two endpoints.
/// * Propagates graph/linalg errors.
pub fn random_placement<R: Rng + ?Sized>(
    graph: &Graph,
    config: &PlacementConfig,
    rng: &mut R,
) -> Result<TomographySystem, CoreError> {
    random_placement_on(graph, config, rng, &Executor::from_env())
}

/// [`random_placement`] with its Yen calls fanned out over `exec`.
///
/// Monitor `m` of the shuffled order is paired with monitors `0..m`, in
/// that order, and the pairs of all monitors form one stream through
/// [`Executor::try_stream`]. The calls do not depend on each other, and
/// their paths reach the rank tracker in pair order, one monitor at a
/// time, so the monitors and paths do not depend on the thread count;
/// Yen calls past full rank are dropped unseen, and one worker runs the
/// pairs inline and stops there.
///
/// Counts `core.placement.pairs` (Yen calls), `core.placement.candidates`
/// (paths Yen returned) and `core.placement.rank_raises` (paths that
/// raised the rank).
///
/// # Errors
///
/// As [`random_placement`]; a failing Yen call reports the error of the
/// lowest pair index, the one a serial loop would hit first, before its
/// monitor's pairs are counted.
pub fn random_placement_on<R: Rng + ?Sized>(
    graph: &Graph,
    config: &PlacementConfig,
    rng: &mut R,
    exec: &Executor,
) -> Result<TomographySystem, CoreError> {
    if graph.num_nodes() < 2 || graph.num_links() == 0 {
        return Err(CoreError::PlacementFailed {
            reason: format!(
                "graph with {} nodes / {} links cannot host tomography",
                graph.num_nodes(),
                graph.num_links()
            ),
        });
    }
    let num_links = graph.num_links();
    let mut order: Vec<NodeId> = graph.nodes().collect();
    order.shuffle(rng);
    // Only the first `extra` rejected paths become redundant rows.
    let extra = ((num_links as f64) * config.redundancy_fraction).floor() as usize;

    // The first monitor has no pairs, so it is placed before the stream.
    let mut monitors: Vec<NodeId> = order.iter().take(1).copied().collect();
    let mut tracker = SparseRank::new(num_links);
    let mut chosen: Vec<Path> = Vec::new();
    let mut skipped: Vec<Path> = Vec::new();
    // The pairs of the monitor being added, until its last one arrives.
    let mut pending: Vec<Vec<Path>> = Vec::new();
    let pairs = order.len() * order.len().saturating_sub(1) / 2;
    // One neighbour index serves every Yen call of the placement.
    let index = NeighbourIndex::new(graph);
    exec.try_stream(
        pairs,
        |pair| {
            let (m, i) = pair_monitors(pair);
            shortest::yen_k_shortest(&index, order[i], order[m], PATHS_PER_PAIR)
        },
        |_, paths| {
            pending.push(paths);
            let m = monitors.len();
            if pending.len() < m {
                return ControlFlow::Continue(());
            }
            PAIRS.add(m as u64);
            for p in pending.drain(..).flatten() {
                CANDIDATES.inc();
                if tracker.try_add(p.links().iter().map(|l| l.index())) {
                    RANK_RAISES.inc();
                    chosen.push(p);
                } else if skipped.len() < extra {
                    skipped.push(p);
                }
            }
            monitors.push(order[m]);
            if tracker.is_full() {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        },
    )?;

    // The rank is full here (see `random_placement`'s errors); were it
    // not, `TomographySystem::new` would refuse the paths.
    chosen.extend(skipped);
    TomographySystem::new(graph.clone(), monitors, chosen)
}

/// The monitors of placement's pair `pair`: `(m, i)` with `i < m`, where
/// monitor `m`'s pairs `(m, 0), …, (m, m − 1)` are `m(m − 1)/2 ..
/// m(m + 1)/2`.
fn pair_monitors(pair: usize) -> (usize, usize) {
    let m = (8 * pair + 1).isqrt().div_ceil(2);
    (m, pair - m * (m - 1) / 2)
}

/// Presence ratio of each node on the system's measurement paths:
/// `presence[v] = |{paths visiting v}| / |P|`.
///
/// Monitors trivially have high presence; the security-relevant quantity
/// is the maximum over *non-monitor* nodes, which
/// [`max_internal_presence_ratio`] reports.
#[must_use]
pub fn node_presence_ratios(system: &TomographySystem) -> Vec<f64> {
    let total = system.num_paths() as f64;
    system
        .graph()
        .nodes()
        .map(|v| system.paths_through_nodes(&[v]).len() as f64 / total)
        .collect()
}

/// The worst (largest) presence ratio among non-monitor nodes — the
/// exposure a single compromised internal node would gain.
#[must_use]
pub fn max_internal_presence_ratio(system: &TomographySystem) -> f64 {
    let ratios = node_presence_ratios(system);
    system
        .graph()
        .nodes()
        .filter(|v| !system.monitors().contains(v))
        .map(|v| ratios[v.index()])
        .fold(0.0, f64::max)
}

/// Security-aware placement (the paper's Section VI proposal): run
/// [`random_placement_on`] `trials` times (at least once) on `exec` and
/// keep the system whose worst internal presence ratio is smallest, the
/// first of equals.
///
/// # Errors
///
/// Returns the last placement failure if *no* trial succeeds.
pub fn security_aware_placement<R: Rng + ?Sized>(
    graph: &Graph,
    config: &PlacementConfig,
    trials: usize,
    rng: &mut R,
    exec: &Executor,
) -> Result<TomographySystem, CoreError> {
    let mut place = || {
        random_placement_on(graph, config, rng, exec)
            .map(|system| (max_internal_presence_ratio(&system), system))
    };
    // The best placement so far, or the last failure until one succeeds.
    let mut best = place();
    for _ in 1..trials {
        let trial = place();
        let better = match (&trial, &best) {
            (Ok((exposure, _)), Ok((lowest, _))) => exposure < lowest,
            (Err(_), Ok(_)) => false,
            (_, Err(_)) => true,
        };
        if better {
            best = trial;
        }
    }
    best.map(|(_, system)| system)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use tomo_graph::{isp, rgg, topology};

    #[test]
    fn places_on_fig1() {
        let f = topology::fig1();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let sys = random_placement(&f.graph, &PlacementConfig::default(), &mut rng)
            .expect("fig1 is identifiable");
        assert_eq!(sys.num_links(), 10);
        assert!(sys.num_paths() >= 10);
        // Redundancy: default fraction 0.5 ⇒ up to 5 extra rows.
        assert!(sys.num_paths() <= 10 + 5);
    }

    #[test]
    fn places_on_isp_topology() {
        let mut rng = ChaCha8Rng::seed_from_u64(1221);
        let g = isp::generate(&isp::IspConfig::default(), &mut rng).unwrap();
        let sys = random_placement(&g, &PlacementConfig::default(), &mut rng)
            .expect("connected ISP graph is identifiable with enough monitors");
        assert_eq!(sys.num_links(), g.num_links());
        assert!(sys.num_paths() > g.num_links(), "need redundant rows");
    }

    #[test]
    fn places_on_wireless_topology() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let topo = rgg::RggConfig {
            num_nodes: 50,
            ..rgg::RggConfig::default()
        }
        .generate(&mut rng)
        .unwrap();
        let sys = random_placement(&topo.graph, &PlacementConfig::default(), &mut rng)
            .expect("connected RGG is identifiable");
        assert_eq!(sys.num_links(), topo.graph.num_links());
    }

    #[test]
    fn disconnected_graph_places_at_any_thread_count() {
        // Fig. 1 plus a two-node island: no path joins the two parts, yet
        // placement makes every node a monitor if it must, and each link
        // is the shortest path between its endpoints, so the rank is
        // full. The placement must not depend on the thread count.
        let mut g = topology::fig1().graph;
        let (x, y) = (g.add_node("X"), g.add_node("Y"));
        g.add_link(x, y).unwrap();
        let place = |threads: usize| {
            let mut rng = ChaCha8Rng::seed_from_u64(2);
            random_placement_on(
                &g,
                &PlacementConfig::default(),
                &mut rng,
                &Executor::new(threads),
            )
            .expect("a disconnected graph is identifiable")
        };
        let serial = place(1);
        let parallel = place(3);
        assert_eq!(serial.num_links(), 11);
        assert!(serial.monitors().contains(&x) && serial.monitors().contains(&y));
        assert_eq!(serial.monitors(), parallel.monitors());
        assert_eq!(serial.paths(), parallel.paths());
    }

    #[test]
    fn placement_is_the_same_at_any_thread_count() {
        let mut rng = ChaCha8Rng::seed_from_u64(1221);
        let g = isp::generate(&isp::IspConfig::default(), &mut rng).unwrap();
        let place = |threads: usize| {
            let mut rng = ChaCha8Rng::seed_from_u64(77);
            random_placement_on(
                &g,
                &PlacementConfig::default(),
                &mut rng,
                &Executor::new(threads),
            )
            .unwrap()
        };
        let serial = place(1);
        let parallel = place(3);
        assert_eq!(serial.monitors(), parallel.monitors());
        assert_eq!(serial.paths(), parallel.paths());
    }

    #[test]
    fn pairs_enumerate_each_monitor_against_the_earlier_ones() {
        let nested: Vec<(usize, usize)> =
            (1..200).flat_map(|m| (0..m).map(move |i| (m, i))).collect();
        let streamed: Vec<(usize, usize)> = (0..nested.len()).map(pair_monitors).collect();
        assert_eq!(streamed, nested);
    }

    #[test]
    fn trivial_graphs_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = Graph::with_nodes(1);
        assert!(random_placement(&g, &PlacementConfig::default(), &mut rng).is_err());
        let g2 = Graph::with_nodes(3); // no links
        assert!(random_placement(&g2, &PlacementConfig::default(), &mut rng).is_err());
    }

    #[test]
    fn presence_ratios_are_probabilities() {
        let f = topology::fig1();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let sys = random_placement(&f.graph, &PlacementConfig::default(), &mut rng).unwrap();
        let ratios = node_presence_ratios(&sys);
        assert_eq!(ratios.len(), 7);
        assert!(ratios.iter().all(|&r| (0.0..=1.0).contains(&r)));
        let max_internal = max_internal_presence_ratio(&sys);
        assert!((0.0..=1.0).contains(&max_internal));
    }

    #[test]
    fn security_aware_is_no_worse_than_single_random() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let g = isp::generate(&isp::IspConfig::default(), &mut rng).unwrap();
        let cfg = PlacementConfig::default();

        let mut rng_a = ChaCha8Rng::seed_from_u64(100);
        let single = random_placement(&g, &cfg, &mut rng_a).unwrap();
        let single_exposure = max_internal_presence_ratio(&single);

        // Same RNG stream: the first security-aware trial IS the single
        // placement, so the minimum over 5 trials cannot be worse.
        let mut rng_b = ChaCha8Rng::seed_from_u64(100);
        let secure =
            security_aware_placement(&g, &cfg, 5, &mut rng_b, &Executor::from_env()).unwrap();
        let secure_exposure = max_internal_presence_ratio(&secure);
        assert!(secure_exposure <= single_exposure + 1e-12);
    }

    #[test]
    fn security_aware_returns_the_placement_failure() {
        let g = Graph::with_nodes(1);
        for trials in [0, 3] {
            let mut rng = ChaCha8Rng::seed_from_u64(6);
            let err = security_aware_placement(
                &g,
                &PlacementConfig::default(),
                trials,
                &mut rng,
                &Executor::single_threaded(),
            )
            .unwrap_err();
            assert!(err.to_string().contains("cannot host tomography"), "{err}");
        }
    }

    #[test]
    fn determinism_per_seed() {
        let f = topology::fig1();
        let a = random_placement(
            &f.graph,
            &PlacementConfig::default(),
            &mut ChaCha8Rng::seed_from_u64(9),
        )
        .unwrap();
        let b = random_placement(
            &f.graph,
            &PlacementConfig::default(),
            &mut ChaCha8Rng::seed_from_u64(9),
        )
        .unwrap();
        assert_eq!(a.monitors(), b.monitors());
        assert_eq!(a.paths(), b.paths());
    }
}
