//! `scale` — Rocketfuel-scale kernel sweep (ISP topologies from 1k to
//! 50k links).
//!
//! The paper's evaluation runs on ~100-node networks; the solve stack,
//! however, claims to survive real Rocketfuel maps (AS1221 and larger).
//! This experiment is the proof: it sweeps synthetic ISP topologies of
//! increasing link count and times the kernels that scale poorly when
//! dense — Gram assembly, system construction/identifiability, and the
//! attack-budget LP — against their dense baselines where the dense
//! kernels can still finish.
//!
//! Per sweep point the harness measures:
//!
//! * **path enumeration** — one-hop assembly plus seeded shortest-path
//!   sampling;
//! * **Gram assembly** — sparse [`CsrMatrix::gram_csr`] vs the dense
//!   `mul_transpose_self` accumulation (dense only at small sizes);
//! * **factorization** — the standalone sparse Cholesky of the
//!   assembled Gram, isolating the kernel that used to dominate the
//!   build when it ran dense (`O(L³)`, 256 s at 10k links);
//! * **system construction** — [`TomographySystem::new`]: the exact
//!   sparse rank check, then the Gram factorization (sparse above 512
//!   links);
//! * **estimation** — one measure/estimate round trip through the
//!   factorized solver;
//! * **the budget LP** — maximize total manipulation `Σ mₚ` under
//!   per-link budgets `Σ_{p∋l} mₚ ≤ 1`: a pure phase-2 LP whose row
//!   count is the link count, solved by the sparse revised simplex and
//!   (at small sizes) the dense tableau for the speedup ratio.
//!
//! The sweep is **nested**: one ISP topology is generated at the
//! largest configured target and every smaller point is the prefix of
//! its first `m` links (the generator emits ring → chords → access
//! uplinks, so every prefix is connected and link indices agree across
//! points). The extra paths nest too: the first point samples
//! `extra_paths` of them, and each later point keeps all but the most
//! recent 16, which it resamples on its own prefix. Every
//! point then builds its system cold.
//!
//! Every path set contains one one-hop path per link (all nodes are
//! monitors), so `R` contains a permuted identity and identifiability
//! holds by construction at every size; a capped number of extra
//! multi-hop shortest paths adds the redundancy that makes the Gram
//! matrix and the LP nontrivial. Timings land in the structured result
//! and, when tracing is on, in the per-trial provenance journal.

use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use tomo_core::TomographySystem;
use tomo_graph::isp::{self, IspConfig};
use tomo_graph::shortest::{one_hop_paths, sample_extra_paths};
use tomo_graph::{Graph, Path};
use tomo_linalg::sparse_chol::SparseCholesky;
use tomo_linalg::{CsrMatrix, Vector};
use tomo_lp::{LpProblem, Objective, Relation, SolverMode, VarId};
use tomo_par::derive_seed;

use crate::{report, SimError};

/// Seed stream tag for the shared nested topology (distinct from the
/// per-point streams `derive_seed(seed, point_index)`).
const GRAPH_STREAM: u64 = u64::MAX;

/// Extra paths resampled between sweep points: each point after the
/// first drops the most recent `CHAIN_CHURN` extras and samples that
/// many fresh ones on its own prefix.
const CHAIN_CHURN: usize = 16;

/// Build the full [`TomographySystem`] (Gram + Cholesky + a
/// measure/estimate round trip) only for sweep points whose target is at
/// or below this many links; larger points time the sparse kernels
/// standalone.
const FULL_SYSTEM_MAX_LINKS: usize = 10_000;

/// Sweep configuration (see [`ScaleConfig::default`] for the paper-run
/// values and [`ScaleConfig::quick`] for the CI smoke point). Two gates
/// are the same for every sweep: each point after the first resamples
/// the 16 most recent extra paths, and points up to 10,000 target links
/// build the full system.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleConfig {
    /// Target link counts to sweep (the largest executed target gets
    /// the generated topology verbatim, smaller points its link
    /// prefixes, so actual counts are exact except at the top).
    pub sweep: Vec<usize>,
    /// Skip sweep points whose target exceeds this (CLI `--max-links`).
    pub max_links: usize,
    /// Extra multi-hop shortest paths added on top of the per-link
    /// one-hop paths (capped, so path count stays `links + O(1)`).
    pub extra_paths: usize,
    /// Run the dense Gram/LP baselines only for sweep points whose
    /// *target* is at or below this many links — above it the dense
    /// kernels take minutes to hours and the point reports sparse
    /// timings only. (The target gates, not the generated count, so a
    /// generator overshoot of a few percent cannot flip a point's
    /// shape between runs.)
    pub dense_baseline_max_links: usize,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            sweep: vec![1_000, 2_000, 5_000, 10_000, 20_000, 50_000],
            max_links: 10_000,
            extra_paths: 2_000,
            dense_baseline_max_links: 2_000,
        }
    }
}

impl ScaleConfig {
    /// Single smallest point, no dense baselines: the CI smoke
    /// configuration (`--quick`). Still large enough to build its system
    /// through the sparse Gram factor and to trip the revised simplex.
    #[must_use]
    pub fn quick() -> Self {
        ScaleConfig {
            sweep: vec![1_000],
            max_links: 1_000,
            extra_paths: 200,
            dense_baseline_max_links: 0,
        }
    }
}

/// Timings and provenance of one sweep point. All durations are wall
/// seconds on the current machine; `None` means the kernel was skipped
/// at this size (see the [`ScaleConfig`] gates).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScalePoint {
    /// Link count the generator aimed for.
    pub target_links: usize,
    /// Actual links in the topology prefix at this point.
    pub links: usize,
    /// Nodes in the topology prefix.
    pub nodes: usize,
    /// Measurement paths (one-hop per link + extras).
    pub paths: usize,
    /// Nonzeros of the routing matrix `R`.
    pub routing_nnz: usize,
    /// Nonzeros of the Gram matrix `RᵀR` (sparse assembly).
    pub gram_nnz: usize,
    /// Routing matrix density `nnz / (paths·links)`.
    pub density: f64,
    /// One-hop enumeration + shortest-path sampling seconds.
    pub path_enum_seconds: f64,
    /// Sparse Gram assembly ([`CsrMatrix::gram_csr`]) seconds.
    pub gram_sparse_seconds: f64,
    /// Standalone sparse Cholesky factorization of the Gram, seconds —
    /// the kernel whose dense form used to dominate the build.
    pub factor_seconds: f64,
    /// Dense Gram baseline seconds (small points only).
    pub gram_dense_seconds: Option<f64>,
    /// Full system construction seconds (Gram + Cholesky + validation).
    pub system_build_seconds: Option<f64>,
    /// One measure + estimate round trip seconds.
    pub estimate_seconds: Option<f64>,
    /// Budget-LP revised-simplex solve seconds.
    pub lp_revised_seconds: f64,
    /// Simplex pivots the revised solve spent.
    pub lp_revised_pivots: u64,
    /// Budget-LP optimum from the revised backend.
    pub lp_objective: f64,
    /// Dense-tableau baseline solve seconds (small points only).
    pub lp_dense_seconds: Option<f64>,
    /// Budget-LP optimum from the dense backend, when it ran.
    pub lp_dense_objective: Option<f64>,
}

/// Structured result of the scale sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScaleResult {
    /// Seed the sweep derives all per-point streams from.
    pub seed: u64,
    /// One entry per executed sweep point, ascending by target size.
    pub points: Vec<ScalePoint>,
}

/// ISP generator configuration aimed at roughly `target_links` links:
/// ring + chords in the core, the rest as (multi-homed) access routers.
pub(crate) fn isp_config_for(target_links: usize) -> IspConfig {
    let backbone = (target_links / 100).clamp(12, 400);
    let chords = backbone / 2;
    let base = IspConfig::default();
    let remaining = target_links.saturating_sub(backbone + chords);
    let access = (remaining as f64 / (1.0 + base.multihoming_prob)).round() as usize;
    IspConfig {
        backbone_nodes: backbone,
        backbone_chords: chords,
        access_nodes: access,
        multihoming_prob: base.multihoming_prob,
    }
}

/// The subgraph spanned by the first `m` links of `full`, with nodes
/// renumbered in first-touch order. The ISP generator emits the
/// backbone ring, then chords, then access uplinks into the
/// already-connected core, so every link prefix is connected; link `i`
/// of the prefix is link `i` of `full`, which is what lets the extra
/// paths carry over between sweep points.
fn prefix_graph(full: &Graph, m: usize) -> Result<Graph, SimError> {
    let mut g = Graph::new();
    let mut map: Vec<Option<tomo_graph::NodeId>> = vec![None; full.num_nodes()];
    for l in full.links().take(m) {
        let (a, b) = full.endpoints(l)?;
        for n in [a, b] {
            if map[n.0].is_none() {
                map[n.0] = Some(g.add_node(full.label(n)?));
            }
        }
        g.add_link(map[a.0].expect("mapped"), map[b.0].expect("mapped"))?;
    }
    Ok(g)
}

/// The extra (multi-hop) paths carried between sweep points, oldest
/// first, and the link count of the point that last resampled them.
struct Extras {
    links: usize,
    paths: Vec<Path>,
}

/// The budget LP over a routing matrix: maximize total manipulation
/// `Σ mₚ` subject to a unit budget per link, `Σ_{p∋l} mₚ ≤ 1`, `m ⪰ 0`.
/// Pure phase 2 (all rows `Le`, rhs ≥ 0), `links` rows by
/// `paths + links` standard-form columns — the LP shape the attack
/// strategies produce, at topology scale.
fn budget_lp(routing: &CsrMatrix) -> Result<LpProblem, SimError> {
    let lp_err = |e: tomo_lp::LpError| SimError(format!("budget LP: {e}"));
    let mut lp = LpProblem::new(Objective::Maximize);
    let vars: Vec<VarId> = (0..routing.rows())
        .map(|_| lp.add_variable(0.0, None))
        .collect::<Result<_, _>>()
        .map_err(lp_err)?;
    for &v in &vars {
        lp.set_objective_coefficient(v, 1.0);
    }
    let rt = routing.transpose();
    for l in 0..rt.rows() {
        let idx = rt.row_indices(l);
        if idx.is_empty() {
            continue;
        }
        lp.add_sparse_row(&vars, idx, rt.row_values(l), Relation::Le, 1.0)
            .map_err(lp_err)?;
    }
    Ok(lp)
}

fn run_point(
    config: &ScaleConfig,
    target: usize,
    graph: &Graph,
    paths: &[Path],
    path_enum_seconds: f64,
) -> Result<ScalePoint, SimError> {
    let _span = tomo_obs::span("sim.scale.point");
    let links = graph.num_links();
    let nodes = graph.num_nodes();

    let routing = tomo_core::build_routing_csr(paths, links)?;
    let t = Instant::now();
    let gram = routing.gram_csr();
    let gram_sparse_seconds = t.elapsed().as_secs_f64();
    let gram_nnz = gram.nnz();

    // Standalone factorization of the assembled Gram: the kernel whose
    // dense O(L³) form used to account for essentially all of the
    // system build above ~5k links.
    let t = Instant::now();
    let factor =
        SparseCholesky::new(&gram).map_err(|e| SimError(format!("scale: Gram factor: {e}")))?;
    let factor_seconds = t.elapsed().as_secs_f64();
    debug_assert_eq!(factor.dim(), links);

    let gram_dense_seconds = (target <= config.dense_baseline_max_links).then(|| {
        let dense = routing.to_dense();
        let t = Instant::now();
        let g = dense.mul_transpose_self();
        let secs = t.elapsed().as_secs_f64();
        assert_eq!(g.shape(), (links, links));
        secs
    });

    // Full system: rank check, Gram and factorization.
    let mut system_build_seconds = None;
    let mut estimate_seconds = None;
    if target <= FULL_SYSTEM_MAX_LINKS {
        let monitors: Vec<_> = graph.nodes().collect();
        let t = Instant::now();
        let system = TomographySystem::new(graph.clone(), monitors, paths.to_vec())?;
        system_build_seconds = Some(t.elapsed().as_secs_f64());
        let x: Vector = (0..links).map(|i| 100.0 + (i % 7) as f64).collect();
        let t = Instant::now();
        let y = system.measure(&x)?;
        let x_hat = system.estimate(&y)?;
        estimate_seconds = Some(t.elapsed().as_secs_f64());
        if !x_hat.approx_eq(&x, 1e-4) {
            return Err(SimError(format!(
                "scale: estimate does not reproduce link metrics at {links} links"
            )));
        }
    }

    // Budget LP: revised simplex always, dense tableau at small sizes.
    let lp = budget_lp(&routing)?;
    let pivots_before = tomo_obs::snapshot()
        .counter("lp.simplex.pivots")
        .unwrap_or(0);
    let t = Instant::now();
    let revised = lp
        .solve_with(SolverMode::Revised)
        .map_err(|e| SimError(format!("budget LP (revised): {e}")))?;
    let lp_revised_seconds = t.elapsed().as_secs_f64();
    let lp_revised_pivots = tomo_obs::snapshot()
        .counter("lp.simplex.pivots")
        .unwrap_or(0)
        .saturating_sub(pivots_before);
    if !revised.is_optimal() {
        return Err(SimError(format!(
            "budget LP unexpectedly {:?} at {links} links",
            revised.status()
        )));
    }

    let mut lp_dense_seconds = None;
    let mut lp_dense_objective = None;
    if target <= config.dense_baseline_max_links {
        let t = Instant::now();
        let dense = lp
            .solve_with(SolverMode::Dense)
            .map_err(|e| SimError(format!("budget LP (dense): {e}")))?;
        lp_dense_seconds = Some(t.elapsed().as_secs_f64());
        lp_dense_objective = Some(dense.objective_value());
        let scale_tol = 1e-6 * (1.0 + revised.objective_value().abs());
        if (dense.objective_value() - revised.objective_value()).abs() > scale_tol {
            return Err(SimError(format!(
                "budget LP backends disagree at {links} links: dense {} vs revised {}",
                dense.objective_value(),
                revised.objective_value()
            )));
        }
    }

    Ok(ScalePoint {
        target_links: target,
        links,
        nodes,
        paths: paths.len(),
        routing_nnz: routing.nnz(),
        gram_nnz,
        density: routing.density(),
        path_enum_seconds,
        gram_sparse_seconds,
        factor_seconds,
        gram_dense_seconds,
        system_build_seconds,
        estimate_seconds,
        lp_revised_seconds,
        lp_revised_pivots,
        lp_objective: revised.objective_value(),
        lp_dense_seconds,
        lp_dense_objective,
    })
}

/// Runs the scale sweep: every configured point with `target ≤
/// max_links`, as nested prefixes of one topology generated at the
/// largest configured target, each point's fresh extras on its own
/// derived RNG stream. The extras carry through the points in sweep
/// order (see the module docs); a point smaller than its predecessor
/// resamples all of them.
///
/// # Errors
///
/// Returns [`SimError`] on generation failure, a non-optimal budget LP,
/// a dense/sparse disagreement, or an estimate that does not reproduce
/// the link metrics (all of which indicate a kernel bug, not an unlucky
/// seed).
pub fn run(seed: u64, config: &ScaleConfig) -> Result<ScaleResult, SimError> {
    let _span = tomo_obs::span("sim.scale");
    let executed: Vec<(usize, usize)> = config
        .sweep
        .iter()
        .copied()
        .enumerate()
        .filter(|&(_, t)| t <= config.max_links)
        .collect();
    if executed.is_empty() {
        return Err(SimError(format!(
            "scale: no sweep point within --max-links {}",
            config.max_links
        )));
    }
    // The topology stream is a property of the *configured* sweep, not
    // of the `--max-links` cap: a capped run (CI smoke, the tomo-bench
    // regression gate) sees byte-identical prefix points to the full
    // sweep because both slice the same full graph.
    let max_target = config.sweep.iter().copied().max().expect("non-empty");
    let mut graph_rng = ChaCha8Rng::seed_from_u64(derive_seed(seed, GRAPH_STREAM));
    let full_graph = isp::generate(&isp_config_for(max_target), &mut graph_rng)?;

    let mut carried: Option<Extras> = None;
    let mut points = Vec::new();
    for (i, target) in executed {
        let point_seed = derive_seed(seed, i as u64);
        tomo_obs::info!(
            "sim.scale",
            "sweep point {target} links (seed {point_seed})"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(point_seed);
        let m = if target >= full_graph.num_links() {
            full_graph.num_links()
        } else {
            target
        };
        if carried.as_ref().is_some_and(|e| m < e.links) {
            carried = None; // non-ascending sweep: resample every extra
        }
        let graph = prefix_graph(&full_graph, m)?;
        let t = Instant::now();
        let one_hops = one_hop_paths(&graph)?;
        let fresh_count = match &carried {
            None => config.extra_paths,
            Some(e) => CHAIN_CHURN.min(e.paths.len()),
        };
        let fresh = sample_extra_paths(&graph, fresh_count, &mut rng);
        let path_enum_seconds = t.elapsed().as_secs_f64();

        let extras = match carried.take() {
            None => Extras {
                links: m,
                paths: fresh,
            },
            Some(mut e) => {
                e.paths.truncate(e.paths.len() - fresh.len());
                e.paths.extend(fresh);
                e.links = m;
                e
            }
        };
        let mut paths = one_hops;
        paths.extend(extras.paths.iter().cloned());
        carried = Some(extras);
        let point = run_point(config, target, &graph, &paths, path_enum_seconds)?;
        if tomo_obs::tracing_enabled() {
            tomo_obs::record_trial(tomo_obs::TrialProvenance {
                experiment: format!("scale.L{target}"),
                trial: i as u64,
                seed: point_seed,
                ..tomo_obs::TrialProvenance::default()
            });
        }
        points.push(point);
    }
    Ok(ScaleResult { seed, points })
}

fn fmt_opt_secs(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_string(), |s| format!("{s:.3}"))
}

/// Renders the sweep as a fixed-width table plus dense-vs-sparse
/// speedup and build-breakdown lines.
#[must_use]
pub fn render(result: &ScaleResult) -> String {
    let mut out = String::from(
        "scale — Rocketfuel-scale kernel sweep (seconds, this machine)\n\
         links   paths   nnz       gram_nnz  gram_s   gram_d   build    lp_rev   lp_dense  pivots\n",
    );
    for p in &result.points {
        out.push_str(&format!(
            "{:<7} {:<7} {:<9} {:<9} {:<8.3} {:<8} {:<8} {:<8.3} {:<9} {}\n",
            p.links,
            p.paths,
            p.routing_nnz,
            p.gram_nnz,
            p.gram_sparse_seconds,
            fmt_opt_secs(p.gram_dense_seconds),
            fmt_opt_secs(p.system_build_seconds),
            p.lp_revised_seconds,
            fmt_opt_secs(p.lp_dense_seconds),
            p.lp_revised_pivots,
        ));
    }
    for p in &result.points {
        out.push_str(&format!(
            "{} links: build breakdown — paths {:.3}s, gram {:.3}s, factor {:.3}s\n",
            p.links, p.path_enum_seconds, p.gram_sparse_seconds, p.factor_seconds
        ));
    }
    for p in &result.points {
        let (Some(gd), Some(ld)) = (p.gram_dense_seconds, p.lp_dense_seconds) else {
            continue;
        };
        let dense_total = gd + ld;
        let sparse_total = p.gram_sparse_seconds + p.lp_revised_seconds;
        if sparse_total > 0.0 {
            out.push_str(&format!(
                "{} links: dense gram+LP {:.3}s vs sparse {:.3}s — {:.1}x\n",
                p.links,
                dense_total,
                sparse_total,
                dense_total / sparse_total
            ));
        }
    }
    out
}

/// Writes the result as the `scale.json` artifact.
///
/// # Errors
///
/// Returns [`SimError`] on serialization or I/O failure.
pub fn write_artifact(result: &ScaleResult, path: &std::path::Path) -> Result<(), SimError> {
    report::write_json(result, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature sweep that exercises both Gram factors, both LP
    /// backends, and an extras resample in test time.
    fn tiny_config() -> ScaleConfig {
        ScaleConfig {
            sweep: vec![150, 400],
            max_links: 400,
            extra_paths: 60,
            dense_baseline_max_links: 200,
        }
    }

    #[test]
    fn tiny_sweep_runs_and_agrees_across_backends() {
        let r = run(11, &tiny_config()).unwrap();
        assert_eq!(r.points.len(), 2);
        for p in &r.points {
            assert!(p.links > 0 && p.paths >= p.links);
            assert!(p.gram_nnz >= p.links, "Gram has at least its diagonal");
            assert!(p.lp_objective > 0.0, "budget LP optimum is positive");
            assert!(p.system_build_seconds.is_some());
            assert!(p.factor_seconds >= 0.0);
        }
        // First point is small enough for the dense baselines and the
        // dense Gram factor; run_point itself asserts the dense and
        // revised optima agree.
        let small = &r.points[0];
        assert!(small.gram_dense_seconds.is_some());
        let dense_obj = small.lp_dense_objective.expect("dense baseline ran");
        assert!((dense_obj - small.lp_objective).abs() <= 1e-6 * (1.0 + dense_obj.abs()));
        // Second point exceeds the dense baseline gate; its extras are
        // the first point's with the churned ones resampled, not added.
        let big = &r.points[1];
        assert!(big.gram_dense_seconds.is_none());
        assert!(big.lp_dense_seconds.is_none());
        assert_eq!(big.paths - big.links, small.paths - small.links);
    }

    #[test]
    fn sweep_points_are_nested_prefixes() {
        let r = run(13, &tiny_config()).unwrap();
        // Point links are exact at prefix points (the top point keeps
        // whatever the generator produced).
        assert_eq!(r.points[0].links, 150);
        assert!(r.points[1].links >= r.points[0].links);
    }

    #[test]
    fn sweep_is_deterministic_in_structure() {
        let a = run(7, &tiny_config()).unwrap();
        let b = run(7, &tiny_config()).unwrap();
        assert_eq!(a.points.len(), b.points.len());
        for (pa, pb) in a.points.iter().zip(&b.points) {
            assert_eq!(pa.links, pb.links);
            assert_eq!(pa.paths, pb.paths);
            assert_eq!(pa.routing_nnz, pb.routing_nnz);
            assert_eq!(pa.gram_nnz, pb.gram_nnz);
            assert_eq!(pa.lp_objective.to_bits(), pb.lp_objective.to_bits());
        }
    }

    #[test]
    fn max_links_filters_the_sweep() {
        let mut cfg = tiny_config();
        cfg.max_links = 200;
        let r = run(3, &cfg).unwrap();
        assert_eq!(r.points.len(), 1);
        assert_eq!(r.points[0].target_links, 150);
        cfg.max_links = 10;
        assert!(run(3, &cfg).is_err(), "empty sweep is an error");
    }

    #[test]
    fn render_mentions_key_facts() {
        let r = run(5, &tiny_config()).unwrap();
        let s = render(&r);
        assert!(s.contains("scale"));
        assert!(s.contains("gram_nnz"));
        assert!(s.contains("dense"), "speedup line for the small point");
        assert!(s.contains("build breakdown"));
    }

    #[test]
    fn isp_config_scales_roughly_with_target() {
        for target in [1_000usize, 10_000, 50_000] {
            let cfg = isp_config_for(target);
            let mut rng = ChaCha8Rng::seed_from_u64(1);
            let g = isp::generate(&cfg, &mut rng).unwrap();
            let links = g.num_links();
            assert!(
                (links as f64) > 0.8 * target as f64 && (links as f64) < 1.2 * target as f64,
                "target {target}: got {links} links"
            );
        }
    }
}
