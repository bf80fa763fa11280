//! Seeded construction of the paper's two large topology families, with
//! monitor placement, ready for Monte-Carlo experiments.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use tomo_core::placement::{random_placement_on, PlacementConfig};
use tomo_core::TomographySystem;
use tomo_graph::{isp, rgg, rocketfuel};
use tomo_par::Executor;

use crate::SimError;

/// The two network families of Section V-C.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetworkKind {
    /// ISP backbone (paper: Rocketfuel AS1221; here the synthetic
    /// AS-scale generator, or a user-supplied Rocketfuel file).
    Wireline,
    /// 100-node random geometric graph, λ = 5 (paper Section V-C).
    Wireless,
}

impl std::fmt::Display for NetworkKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            NetworkKind::Wireline => "wireline",
            NetworkKind::Wireless => "wireless",
        })
    }
}

/// Builds a measurement system of the given family from a seed, with
/// placement's Yen calls fanned out over `exec`.
///
/// The same seed yields the same topology, monitors, and paths at any
/// thread count.
///
/// # Errors
///
/// Returns [`SimError`] if generation or placement fails for this seed
/// (rare; callers doing Monte Carlo should skip-and-reseed).
pub fn build_system(
    kind: NetworkKind,
    seed: u64,
    exec: &Executor,
) -> Result<TomographySystem, SimError> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let graph = match kind {
        NetworkKind::Wireline => isp::generate(&isp::IspConfig::default(), &mut rng)?,
        NetworkKind::Wireless => rgg::RggConfig::default().generate(&mut rng)?.graph,
    };
    Ok(random_placement_on(
        &graph,
        &PlacementConfig::default(),
        &mut rng,
        exec,
    )?)
}

/// Builds a wireline system from a Rocketfuel file (edge list or `.cch`,
/// chosen by extension) — for users who have the real AS1221 dataset.
///
/// # Errors
///
/// Returns [`SimError`] on parse or placement failure.
pub fn build_system_from_rocketfuel(
    path: &std::path::Path,
    seed: u64,
    exec: &Executor,
) -> Result<TomographySystem, SimError> {
    let graph = if path.extension().is_some_and(|e| e == "cch") {
        rocketfuel::from_cch_file(path)?
    } else {
        rocketfuel::from_edge_list_file(path)?
    };
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Ok(random_placement_on(
        &graph,
        &PlacementConfig::default(),
        &mut rng,
        exec,
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_both_families() {
        let exec = Executor::from_env();
        let wl = build_system(NetworkKind::Wireline, 1, &exec).unwrap();
        assert!(wl.num_links() > 50);
        assert!(wl.num_paths() > wl.num_links());
        let ws = build_system(NetworkKind::Wireless, 1, &exec).unwrap();
        assert!(ws.num_links() > 30);
    }

    #[test]
    fn seeded_determinism() {
        let exec = Executor::from_env();
        let a = build_system(NetworkKind::Wireline, 7, &exec).unwrap();
        let b = build_system(NetworkKind::Wireline, 7, &exec).unwrap();
        assert_eq!(a.monitors(), b.monitors());
        assert_eq!(a.num_paths(), b.num_paths());
    }

    #[test]
    fn display_names() {
        assert_eq!(NetworkKind::Wireline.to_string(), "wireline");
        assert_eq!(NetworkKind::Wireless.to_string(), "wireless");
    }

    #[test]
    fn rocketfuel_loader_accepts_edge_lists() {
        let dir = std::env::temp_dir().join("tomo_sim_rf_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("as.txt");
        // A complete graph on 5 nodes is identifiable with few monitors.
        let mut edges = String::new();
        for i in 0..5 {
            for j in (i + 1)..5 {
                edges.push_str(&format!("n{i} n{j}\n"));
            }
        }
        std::fs::write(&path, edges).unwrap();
        let sys = build_system_from_rocketfuel(&path, 3, &Executor::from_env()).unwrap();
        assert_eq!(sys.num_links(), 10);
        let _ = std::fs::remove_dir_all(dir);
    }
}
