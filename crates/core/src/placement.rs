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

use rand::seq::SliceRandom;
use rand::Rng;

use tomo_graph::{shortest, Graph, NodeId, Path};
use tomo_linalg::rank::SparseRank;

use crate::{CoreError, TomographySystem};

/// Configuration for randomized monitor placement.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementConfig {
    /// Candidate paths per monitor pair (Yen's k).
    pub paths_per_pair: usize,
    /// Redundant paths appended after identifiability is reached, as a
    /// fraction of the link count (rounded down). Redundancy is what makes
    /// detection possible at all — Theorem 3 says a square `R` hides
    /// every attack.
    pub redundancy_fraction: f64,
    /// Upper bound on the number of monitors (`None` = up to all nodes).
    pub max_monitors: Option<usize>,
}

impl Default for PlacementConfig {
    fn default() -> Self {
        PlacementConfig {
            paths_per_pair: 6,
            redundancy_fraction: 0.5,
            max_monitors: None,
        }
    }
}

/// Randomized identifiability-driven placement.
///
/// Adds monitors in a random order; after each addition, pulls Yen's
/// k-shortest paths between the new monitor and every existing monitor,
/// keeping each path that increases the routing-matrix rank. Terminates
/// when rank = |L|, then appends redundant paths per
/// [`PlacementConfig::redundancy_fraction`].
///
/// # Errors
///
/// * [`CoreError::PlacementFailed`] if the monitor budget is exhausted
///   before identifiability (with all nodes as monitors this can only
///   happen on disconnected graphs or graphs with < 2 nodes).
/// * Propagates graph/linalg errors.
pub fn random_placement<R: Rng + ?Sized>(
    graph: &Graph,
    config: &PlacementConfig,
    rng: &mut R,
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
    let budget = config.max_monitors.unwrap_or(graph.num_nodes());

    let mut monitors: Vec<NodeId> = Vec::new();
    let mut tracker = SparseRank::new(num_links);
    let mut chosen: Vec<Path> = Vec::new();
    let mut skipped: Vec<Path> = Vec::new();

    for &candidate in order.iter().take(budget) {
        // Pull candidate paths from the new monitor to each existing one.
        for &existing in &monitors {
            let paths =
                shortest::yen_k_shortest(graph, existing, candidate, config.paths_per_pair)?;
            for p in paths {
                if tracker.try_add(p.links().iter().map(|l| l.index())) {
                    chosen.push(p);
                } else {
                    skipped.push(p);
                }
            }
        }
        monitors.push(candidate);
        if tracker.is_full() {
            break;
        }
    }

    if !tracker.is_full() {
        return Err(CoreError::PlacementFailed {
            reason: format!(
                "rank {}/{} after {} monitors (budget {budget})",
                tracker.rank(),
                num_links,
                monitors.len()
            ),
        });
    }

    let extra = ((num_links as f64) * config.redundancy_fraction).floor() as usize;
    chosen.extend(skipped.into_iter().take(extra));
    TomographySystem::new(graph.clone(), monitors, chosen)
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
/// [`random_placement`] `trials` times and keep the system whose worst
/// internal presence ratio is smallest.
///
/// # Errors
///
/// Returns the last placement failure if *no* trial succeeds.
pub fn security_aware_placement<R: Rng + ?Sized>(
    graph: &Graph,
    config: &PlacementConfig,
    trials: usize,
    rng: &mut R,
) -> Result<TomographySystem, CoreError> {
    let mut best: Option<(f64, TomographySystem)> = None;
    let mut last_err = None;
    for _ in 0..trials.max(1) {
        match random_placement(graph, config, rng) {
            Ok(system) => {
                let exposure = max_internal_presence_ratio(&system);
                if best.as_ref().is_none_or(|(b, _)| exposure < *b) {
                    best = Some((exposure, system));
                }
            }
            Err(e) => last_err = Some(e),
        }
    }
    match best {
        Some((_, system)) => Ok(system),
        None => Err(last_err.unwrap_or(CoreError::PlacementFailed {
            reason: "no trials executed".into(),
        })),
    }
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
    fn budget_too_small_fails() {
        let f = topology::fig1();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let config = PlacementConfig {
            max_monitors: Some(2),
            ..PlacementConfig::default()
        };
        // 2 monitors cannot identify all 10 Fig. 1 links.
        assert!(matches!(
            random_placement(&f.graph, &config, &mut rng),
            Err(CoreError::PlacementFailed { .. })
        ));
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
        let secure = security_aware_placement(&g, &cfg, 5, &mut rng_b).unwrap();
        let secure_exposure = max_internal_presence_ratio(&secure);
        assert!(secure_exposure <= single_exposure + 1e-12);
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
