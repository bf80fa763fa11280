//! Tests for the degraded (rank-deficient) estimation path.
//!
//! Probe loss leaves the solver a random subset of routing rows, often
//! without full column rank. The degradation ladder (DESIGN.md §5e)
//! promises that `TomographySystem::solve_degraded` then never panics:
//! it detects the rank collapse, falls back to a ridge-regularized
//! normal-equation solve, and reports exactly the links the surviving
//! rows cannot determine. The property tests pin each promise on random
//! row subsets of the paper's Fig. 1 system; the ISP cases repeat them
//! above `SPARSE_FACTOR_MIN_DIM` links, where the surviving rows are
//! factorized by `SparseCholesky`; a golden pin holds a chaos sweep's
//! artifact bytes and degraded-path totals.

use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use scapegoat_tomography::core::fig1::fig1_system;
use scapegoat_tomography::core::identifiability::analyze_paths;
use scapegoat_tomography::core::{params, TomographySystem};
use scapegoat_tomography::fault::FaultSpec;
use scapegoat_tomography::graph::isp::{self, IspConfig};
use scapegoat_tomography::graph::shortest::shortest_path;
use scapegoat_tomography::graph::{LinkId, NodeId, Path};
use scapegoat_tomography::linalg::lstsq::{self, SPARSE_FACTOR_MIN_DIM};
use scapegoat_tomography::linalg::rank::rank_with_tol;
use scapegoat_tomography::linalg::{Matrix, Vector};
use scapegoat_tomography::par::Executor;
use scapegoat_tomography::sim::chaos;

/// A random non-empty, strictly ascending row subset of the Fig. 1
/// routing matrix (23 paths).
fn random_rows(seed: u64, keep: usize) -> Vec<usize> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut all: Vec<usize> = (0..23).collect();
    let keep = keep.clamp(1, all.len());
    let (chosen, _) = all.partial_shuffle(&mut rng, keep);
    let mut rows = chosen.to_vec();
    rows.sort_unstable();
    rows
}

/// Brute-force identifiability check: link `j` is determined by the
/// surviving rows iff appending the probe row `eⱼ` does *not* increase
/// the rank of the surviving submatrix.
fn brute_force_unidentifiable(r_sub: &Matrix, tol: f64) -> Vec<usize> {
    let base_rank = rank_with_tol(r_sub, tol);
    let rows: Vec<Vec<f64>> = (0..r_sub.rows()).map(|i| r_sub.row(i).to_vec()).collect();
    (0..r_sub.cols())
        .filter(|&j| {
            let mut augmented = rows.clone();
            let mut probe = vec![0.0; r_sub.cols()];
            probe[j] = 1.0;
            augmented.push(probe);
            rank_with_tol(&Matrix::from_rows(&augmented).unwrap(), tol) > base_rank
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The degraded solve never panics and always returns finite
    /// numbers, whatever subset of probes survives.
    #[test]
    fn degraded_solve_is_total_and_finite(seed in 0u64..1000, keep in 1usize..=23) {
        let system = fig1_system().unwrap();
        let rows = random_rows(seed, keep);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xd15e_a5ed);
        let x = params::default_delay_model().sample(system.num_links(), &mut rng);
        let y = system.measure(&x).unwrap();
        let y_sub: Vector = rows.iter().map(|&i| y[i]).collect();

        let solve = system.solve_degraded(&rows, &y_sub).unwrap();
        prop_assert_eq!(solve.estimate.len(), system.num_links());
        for (j, v) in solve.estimate.iter().enumerate() {
            prop_assert!(v.is_finite(), "estimate[{}] = {} not finite", j, v);
        }
        prop_assert_eq!(solve.used_ridge, solve.rank < system.num_links());
        prop_assert_eq!(solve.unidentifiable.is_empty(), !solve.used_ridge);
    }

    /// The reported unidentifiable set matches a brute-force null-space
    /// check (rank augmentation per link) on the surviving submatrix.
    #[test]
    fn unidentifiable_set_matches_rank_augmentation(seed in 0u64..1000, keep in 1usize..=23) {
        let system = fig1_system().unwrap();
        let rows = random_rows(seed, keep);
        let y_sub = Vector::zeros(rows.len());

        let solve = system.solve_degraded(&rows, &y_sub).unwrap();
        let r_sub = system.routing_csr().to_dense().select_rows(&rows);
        let expected = brute_force_unidentifiable(&r_sub, 1e-9);
        let got: Vec<usize> = solve.unidentifiable.iter().map(|l| l.index()).collect();
        prop_assert_eq!(got, expected);
        prop_assert_eq!(solve.rank, rank_with_tol(&r_sub, 1e-9));
    }

    /// When the surviving rows still have full column rank, the degraded
    /// path is the exact estimator: it reproduces the true delays.
    #[test]
    fn full_rank_subsets_recover_exactly(seed in 0u64..1000) {
        let system = fig1_system().unwrap();
        let rows = random_rows(seed, 12 + (seed % 12) as usize);
        let r_sub = system.routing_csr().to_dense().select_rows(&rows);
        prop_assume!(rank_with_tol(&r_sub, 1e-9) == system.num_links());

        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x0bad_cafe);
        let x = params::default_delay_model().sample(system.num_links(), &mut rng);
        let y = system.measure(&x).unwrap();
        let y_sub: Vector = rows.iter().map(|&i| y[i]).collect();

        let solve = system.solve_degraded(&rows, &y_sub).unwrap();
        prop_assert!(!solve.used_ridge);
        prop_assert!(solve.unidentifiable.is_empty());
        prop_assert!(
            solve.estimate.approx_eq(&x, 1e-6),
            "exact path diverged: {:?} vs {:?}",
            solve.estimate,
            x
        );
    }
}

/// An ISP system above the sparse-factor gate: every node a monitor, one
/// one-hop path per link (row `l` covers link `l` alone), then `extras`
/// multi-hop shortest paths between seeded node pairs. Returns the
/// system and the true link delays.
fn isp_system(seed: u64, extras: usize) -> (TomographySystem, Vector) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let config = IspConfig {
        backbone_nodes: 20,
        backbone_chords: 10,
        access_nodes: 450,
        multihoming_prob: 0.3,
    };
    let graph = isp::generate(&config, &mut rng).unwrap();
    assert!(graph.num_links() >= SPARSE_FACTOR_MIN_DIM);
    let mut paths: Vec<Path> = graph
        .links()
        .map(|l| {
            let (a, b) = graph.endpoints(l).unwrap();
            Path::from_nodes(&graph, &[a, b]).unwrap()
        })
        .collect();
    let n = graph.num_nodes();
    while paths.len() < graph.num_links() + extras {
        let u = NodeId(rng.gen_range(0..n));
        let v = NodeId(rng.gen_range(0..n));
        if let Some(p) = shortest_path(&graph, u, v).unwrap() {
            if p.num_links() > 1 {
                paths.push(p);
            }
        }
    }
    let x = params::default_delay_model().sample(graph.num_links(), &mut rng);
    let monitors: Vec<NodeId> = graph.nodes().collect();
    (TomographySystem::new(graph, monitors, paths).unwrap(), x)
}

/// A rank-keeping subset at ISP scale takes the exact branch through
/// the sparse factor and agrees with the dense QR reference.
#[test]
fn sparse_factor_subset_matches_qr_reference() {
    let (system, x) = isp_system(0x15b, 80);
    let n = system.num_links();
    let y = system.measure(&x).unwrap();
    // Drop every other extra. Each kept extra whose links all still
    // have their one-hop row gives one of them up: that link stays
    // determined as the extra minus its other links.
    let mut dropped = vec![false; system.num_paths()];
    for (k, path) in system.paths().iter().enumerate().skip(n) {
        if (k - n) % 2 == 1 {
            dropped[k] = true;
        } else if path.links().iter().all(|l| !dropped[l.index()]) {
            dropped[path.links()[0].index()] = true;
        }
    }
    let rows: Vec<usize> = (0..system.num_paths()).filter(|&i| !dropped[i]).collect();
    assert!(
        rows.iter().filter(|&&i| i < n).count() < n,
        "one-hops dropped"
    );
    let y_sub: Vector = rows.iter().map(|&i| y[i]).collect();

    let solve = system.solve_degraded(&rows, &y_sub).unwrap();
    assert!(!solve.used_ridge);
    assert_eq!(solve.rank, n);
    assert!(solve.unidentifiable.is_empty());
    let reference =
        lstsq::solve(&system.routing_csr().to_dense().select_rows(&rows), &y_sub).unwrap();
    assert!(solve.estimate.approx_eq(&reference, 1e-6));
    assert!(solve.estimate.approx_eq(&x, 1e-6));
}

/// Rank collapse at ISP scale: dropping a link's only path takes the
/// ridge branch and reports exactly that link, and a random loss of
/// one-hop rows reports exactly `analyze_paths`' unidentifiable set.
#[test]
fn sparse_factor_collapse_reports_analyze_paths_set() {
    let (system, x) = isp_system(0x15c, 80);
    let n = system.num_links();
    let y = system.measure(&x).unwrap();
    let mut covered_by_extra = vec![false; n];
    for p in &system.paths()[n..] {
        for l in p.links() {
            covered_by_extra[l.index()] = true;
        }
    }
    let lonely = (0..n).find(|&l| !covered_by_extra[l]).unwrap();
    let rows: Vec<usize> = (0..system.num_paths()).filter(|&i| i != lonely).collect();
    let y_sub: Vector = rows.iter().map(|&i| y[i]).collect();
    let solve = system.solve_degraded(&rows, &y_sub).unwrap();
    assert!(solve.used_ridge);
    assert_eq!(solve.rank, n - 1);
    assert_eq!(solve.unidentifiable, vec![LinkId(lonely)]);
    for (j, (e, t)) in solve.estimate.iter().zip(x.iter()).enumerate() {
        assert!(e.is_finite());
        if j != lonely {
            assert!((e - t).abs() < 1e-3, "link {j}: ridge {e} vs true {t}");
        }
    }

    let mut rng = ChaCha8Rng::seed_from_u64(0x10_55);
    let rows: Vec<usize> = (0..system.num_paths())
        .filter(|&i| i >= n || !rng.gen_bool(0.1))
        .collect();
    let y_sub: Vector = rows.iter().map(|&i| y[i]).collect();
    let solve = system.solve_degraded(&rows, &y_sub).unwrap();
    let report = analyze_paths(rows.iter().map(|&i| &system.paths()[i]), n);
    assert!(solve.used_ridge);
    assert_eq!(solve.rank, report.rank);
    assert_eq!(solve.unidentifiable, report.unidentifiable_links());
    assert!(solve.estimate.iter().all(|v| v.is_finite()));
}

/// 64-bit FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A link-fail chaos sweep serializes to pinned bytes: every degraded
/// round's decisions (the artifact's counts and rates) must not move
/// when the degraded solve changes. The totals are pinned beside the
/// digest so a mismatch says which degraded-path count moved.
#[test]
fn chaos_sweep_artifact_is_pinned() {
    let spec = FaultSpec::parse(chaos::DEFAULT_FAULTS).unwrap();
    let config = chaos::ChaosConfig {
        trials_per_point: 12,
        scales: vec![0.0, 1.0],
        max_attackers: 2,
        solver_retries: 1,
    };
    let r = chaos::run(77, &spec, &config, &Executor::single_threaded()).unwrap();
    assert!(r.totals.is_balanced());
    let t = &r.totals;
    assert_eq!(
        (t.degraded_trials, t.ridge_solves, t.unidentifiable_links),
        (9, 0, 0)
    );
    let json = serde_json::to_string(&r).unwrap();
    assert_eq!(
        fnv1a(json.as_bytes()),
        0x4cd9_4313_c0f9_e347,
        "chaos artifact bytes moved"
    );
}
