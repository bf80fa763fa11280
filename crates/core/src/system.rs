use std::sync::OnceLock;

use tomo_graph::{Graph, LinkId, NodeId, Path};
use tomo_linalg::cholesky::Cholesky;
use tomo_linalg::incremental::pseudo_inverse_drop_row;
use tomo_linalg::lstsq::NormalEquationsSolver;
use tomo_linalg::{CsrMatrix, LinalgError, Matrix, Vector};
use tomo_obs::LazyCounter;

use crate::{CoreError, LinkState, StateThresholds};

static ESTIMATOR_HITS: LazyCounter = LazyCounter::new("core.estimator_cache.hits");
static ESTIMATOR_BUILDS: LazyCounter = LazyCounter::new("core.estimator_cache.builds");
static DEGRADED_SOLVES: LazyCounter = LazyCounter::new("core.degraded.solves");
static DEGRADED_RIDGE: LazyCounter = LazyCounter::new("core.degraded.ridge");
static KERNEL_DENSE: LazyCounter = LazyCounter::new("core.kernel.dense");
static KERNEL_SPARSE: LazyCounter = LazyCounter::new("core.kernel.sparse");
static DELTA_SOLVES: LazyCounter = LazyCounter::new("core.estimator_cache.delta_solves");
static DELTA_COLLAPSES: LazyCounter = LazyCounter::new("core.estimator_cache.delta_collapses");

/// Routing matrices with at most this many cells (`|P|·|L|`) take the
/// dense construction path: materialize the dense `R` eagerly and
/// certify identifiability with an exact sparse rank computation
/// (`tomo_linalg::rank::SparseRank`). Above the gate the rank pre-check
/// (whose elimination fill-in grows with the system) and the dense copy
/// of `R` are skipped; the Cholesky factorization of the Gram matrix —
/// which construction performs anyway — becomes the identifiability
/// certificate instead.
pub const DENSE_KERNEL_MAX_CELLS: usize = 1 << 20;

/// Which construction/validation kernel a [`TomographySystem`] selected
/// (see [`TomographySystem::kernel`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Dense routing matrix materialized eagerly; identifiability
    /// certified by an explicit rank computation.
    Dense,
    /// Routing kept in CSR only (the dense view materializes lazily on
    /// first request); identifiability certified by the Gram Cholesky.
    Sparse,
}

/// Regularization strength for the ridge fallback of
/// [`TomographySystem::solve_degraded`]: small enough to leave
/// identifiable links essentially unbiased, large enough to keep the
/// shifted Gram matrix positive definite under rank deficiency.
pub const DEFAULT_RIDGE_LAMBDA: f64 = 1e-6;

/// Lazily materialized derived operators of a fixed measurement system.
///
/// The pseudo-inverse `A = (RᵀR)⁻¹Rᵀ` and the consistency projector
/// `P = R·A` are pure functions of `R`; Monte-Carlo trials need them on
/// every LP build, so they are computed once per system and shared by
/// `&`-reference across worker threads ([`OnceLock`] makes a concurrent
/// first touch safe — every thread observes the same matrix).
#[derive(Debug, Clone, Default)]
struct EstimatorCache {
    pseudo_inverse: OnceLock<Matrix>,
    projector: OnceLock<Matrix>,
}

impl EstimatorCache {
    /// Derives the estimator for the system *minus* the routing rows in
    /// `dropped` (ascending) from the cached operators, by rank-1
    /// downdates of the Gram factor and Sherman–Morrison updates of the
    /// pseudo-inverse (when one is materialized) — never by
    /// refactorizing. One factor clone per delta batch; each dropped row
    /// then costs O(n²) rotations instead of a fresh factorization.
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotPositiveDefinite`] when removing some row
    /// collapses the Gram rank — the incremental engine's *rank
    /// certificate*; callers fall back to the ridge rebuild path.
    fn apply_path_delta(
        &self,
        solver: &NormalEquationsSolver,
        routing: &CsrMatrix,
        dropped: &[usize],
    ) -> Result<DeltaEstimator, LinalgError> {
        let chol0 = solver.dense_factor().ok_or(LinalgError::InvalidShape {
            reason: "apply_path_delta requires the dense Gram factor".to_string(),
        })?;
        let n = routing.cols();
        let mut chol = chol0.clone();
        let mut pinv = self.pseudo_inverse.get().cloned();
        // Pseudo-inverse columns correspond to surviving original rows;
        // track which original row each current column is.
        let mut col_map: Vec<usize> = (0..routing.rows()).collect();
        let mut w = Vector::zeros(n);
        for &row in dropped {
            let entries: Vec<(usize, f64)> = routing.row_iter(row).collect();
            if let Some(p) = pinv.take() {
                let col = col_map
                    .binary_search(&row)
                    .expect("dropped rows are ascending and unique");
                pinv = Some(pseudo_inverse_drop_row(&p, &chol, col, &entries)?);
                col_map.remove(col);
            }
            for &(j, v) in &entries {
                w[j] = v;
            }
            let downdated = chol.rank1_downdate(&w);
            for &(j, _) in &entries {
                w[j] = 0.0;
            }
            downdated?;
        }
        Ok(DeltaEstimator {
            chol,
            pinv,
            dropped: dropped.to_vec(),
        })
    }
}

/// The estimator of a system with routing rows removed, derived from the
/// cached full-system operators by rank-1 downdates (see
/// [`TomographySystem::apply_path_delta`]). Its existence certifies that
/// the surviving rows still span every link.
#[derive(Debug, Clone)]
pub struct DeltaEstimator {
    chol: Cholesky,
    pinv: Option<Matrix>,
    dropped: Vec<usize>,
}

impl DeltaEstimator {
    /// The downdated Gram factor.
    #[must_use]
    pub fn factor(&self) -> &Cholesky {
        &self.chol
    }

    /// The Sherman–Morrison-updated pseudo-inverse, present iff the full
    /// system's pseudo-inverse was already materialized when the delta
    /// was applied. Columns follow the surviving rows in ascending
    /// order.
    #[must_use]
    pub fn pseudo_inverse(&self) -> Option<&Matrix> {
        self.pinv.as_ref()
    }

    /// The rows this estimator excludes (ascending).
    #[must_use]
    pub fn dropped_rows(&self) -> &[usize] {
        &self.dropped
    }

    /// Least-squares estimate from the surviving measurements:
    /// `x̂ = (R′ᵀR′)⁻¹ R′ᵀ y′`, computed against the *full* routing CSR
    /// by zero-padding the dropped rows (their coefficients multiply
    /// zeros, so the product equals the restricted `R′ᵀy′` exactly).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] on shape mismatches.
    pub fn solve(
        &self,
        routing: &CsrMatrix,
        surviving_rows: &[usize],
        y_sub: &Vector,
    ) -> Result<Vector, CoreError> {
        if y_sub.len() != surviving_rows.len() {
            return Err(CoreError::DimensionMismatch {
                context: "delta_estimator: surviving measurement vector",
                expected: surviving_rows.len(),
                got: y_sub.len(),
            });
        }
        let mut y_full = Vector::zeros(routing.rows());
        for (k, &row) in surviving_rows.iter().enumerate() {
            y_full[row] = y_sub[k];
        }
        let atb = routing.mul_transpose_vec(&y_full)?;
        Ok(self.chol.solve(&atb)?)
    }
}

/// How [`TomographySystem::solve_degraded_with`] derives the degraded
/// estimator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradedMode {
    /// Incremental when available (dense Gram factor cached, rank
    /// plausibly survives, `TOMO_INCREMENTAL` not `0`), rebuild
    /// otherwise. The default.
    #[default]
    Auto,
    /// Force the rank-1 downdate path (falls back to rebuild only when
    /// no dense factor exists or the downdate certifies rank collapse).
    Incremental,
    /// Force the historical rebuild path (row-subset rank check, QR or
    /// ridge) — the `TOMO_INCREMENTAL=0` behavior.
    Rebuild,
}

/// `false` when the `TOMO_INCREMENTAL` environment variable is `0` —
/// the escape hatch that pins every degraded solve to the rebuild path.
#[must_use]
pub fn incremental_enabled() -> bool {
    std::env::var("TOMO_INCREMENTAL").map_or(true, |v| v != "0")
}

/// A complete network-tomography measurement system: topology, monitors,
/// measurement paths, and the (identifiable) routing matrix with its
/// factorized estimator.
///
/// This is the object the paper calls "network tomography": it owns the
/// linear model `y = R x` (Eq. 1) and computes `x̂ = (RᵀR)⁻¹Rᵀy` (Eq. 2).
///
/// Construction validates the assumptions of Section II:
/// * every path runs between two distinct monitors,
/// * `R` has full column rank (every link metric is identifiable).
#[derive(Debug, Clone)]
pub struct TomographySystem {
    graph: Graph,
    monitors: Vec<NodeId>,
    paths: Vec<Path>,
    routing: OnceLock<Matrix>,
    routing_csr: CsrMatrix,
    solver: NormalEquationsSolver,
    cache: EstimatorCache,
    kernel: KernelKind,
}

impl TomographySystem {
    /// Builds and validates a measurement system.
    ///
    /// # Errors
    ///
    /// * [`CoreError::TooFewMonitors`] with fewer than 2 monitors,
    /// * [`CoreError::NoPaths`] with an empty path set,
    /// * [`CoreError::PathNotBetweenMonitors`] if some path's endpoints
    ///   are not two distinct monitors,
    /// * [`CoreError::NotIdentifiable`] if `R` lacks full column rank.
    pub fn new(graph: Graph, monitors: Vec<NodeId>, paths: Vec<Path>) -> Result<Self, CoreError> {
        Self::new_gated(graph, monitors, paths, DENSE_KERNEL_MAX_CELLS)
    }

    /// [`Self::new`] with an explicit dense-kernel gate, the testing
    /// seam for exercising the sparse construction path on small
    /// systems (`dense_gate_cells = 0` forces it).
    fn new_gated(
        graph: Graph,
        monitors: Vec<NodeId>,
        paths: Vec<Path>,
        dense_gate_cells: usize,
    ) -> Result<Self, CoreError> {
        let mut unique = monitors.clone();
        unique.sort();
        unique.dedup();
        if unique.len() < 2 {
            return Err(CoreError::TooFewMonitors { got: unique.len() });
        }
        if paths.is_empty() {
            return Err(CoreError::NoPaths);
        }
        for (i, p) in paths.iter().enumerate() {
            let s = p.source();
            let d = p.destination();
            // `unique` is sorted: binary search keeps validation
            // O(|P| log |M|) instead of the linear scan that showed up
            // in the Rocketfuel-scale build profile.
            if s == d || unique.binary_search(&s).is_err() || unique.binary_search(&d).is_err() {
                return Err(CoreError::PathNotBetweenMonitors { path_index: i });
            }
        }
        let num_links = graph.num_links();
        let routing_csr = build_routing_csr(&paths, num_links)?;
        let cells = paths.len().saturating_mul(num_links);
        let routing = OnceLock::new();
        let kernel = if cells <= dense_gate_cells {
            KernelKind::Dense
        } else {
            KernelKind::Sparse
        };
        if kernel == KernelKind::Dense {
            KERNEL_DENSE.inc();
            let rank = crate::identifiability::path_rank(&paths, num_links).rank();
            if rank < num_links {
                return Err(CoreError::NotIdentifiable {
                    rank,
                    links: num_links,
                });
            }
            let _ = routing.set(routing_csr.to_dense());
        } else {
            KERNEL_SPARSE.inc();
        }
        // The Gram Cholesky below doubles as the identifiability
        // certificate on the sparse path: it succeeds iff RᵀR is
        // positive definite, i.e. iff R has full column rank. The
        // failing pivot index is a lower bound on the achieved rank.
        let solver = match NormalEquationsSolver::from_sparse(routing_csr.clone()) {
            Ok(s) => s,
            Err(tomo_linalg::LinalgError::NotPositiveDefinite { index })
                if kernel == KernelKind::Sparse =>
            {
                return Err(CoreError::NotIdentifiable {
                    rank: index,
                    links: num_links,
                });
            }
            Err(e) => return Err(e.into()),
        };
        Ok(TomographySystem {
            graph,
            monitors: unique,
            paths,
            routing,
            routing_csr,
            solver,
            cache: EstimatorCache::default(),
            kernel,
        })
    }

    /// Which construction/validation kernel the size gauge selected:
    /// [`KernelKind::Dense`] at or below [`DENSE_KERNEL_MAX_CELLS`]
    /// routing cells, [`KernelKind::Sparse`] above.
    #[must_use]
    pub fn kernel(&self) -> KernelKind {
        self.kernel
    }

    /// The network topology.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The monitor set (sorted, deduplicated).
    #[must_use]
    pub fn monitors(&self) -> &[NodeId] {
        &self.monitors
    }

    /// The measurement paths (row order of `R`).
    #[must_use]
    pub fn paths(&self) -> &[Path] {
        &self.paths
    }

    /// The routing matrix `R` (|paths| × |links|), dense view.
    ///
    /// Under the dense kernel this was materialized at construction;
    /// under the sparse kernel ([`Self::kernel`]) the first call expands
    /// the CSR form and caches it for the system's lifetime, so the hot
    /// sparse paths never pay for a matrix nobody asks for.
    #[must_use]
    pub fn routing_matrix(&self) -> &Matrix {
        self.routing.get_or_init(|| self.routing_csr.to_dense())
    }

    /// The routing matrix `R` in CSR form — the representation the hot
    /// kernels (measurement, Gram, consistency check) actually run on.
    #[must_use]
    pub fn routing_csr(&self) -> &CsrMatrix {
        &self.routing_csr
    }

    /// Sparsity statistics of the routing matrix.
    #[must_use]
    pub fn sparsity_stats(&self) -> SparsityStats {
        SparsityStats {
            nnz: self.routing_csr.nnz(),
            density: self.routing_csr.density(),
        }
    }

    /// Number of measurement paths `|P|`.
    #[must_use]
    pub fn num_paths(&self) -> usize {
        self.paths.len()
    }

    /// Number of links `|L|`.
    #[must_use]
    pub fn num_links(&self) -> usize {
        self.graph.num_links()
    }

    /// Simulates clean end-to-end measurement: `y = R x` (Eq. 1).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] if `x.len() ≠ |L|`.
    pub fn measure(&self, link_metrics: &Vector) -> Result<Vector, CoreError> {
        if link_metrics.len() != self.num_links() {
            return Err(CoreError::DimensionMismatch {
                context: "measure: link metric vector",
                expected: self.num_links(),
                got: link_metrics.len(),
            });
        }
        Ok(self.routing_csr.mul_vec(link_metrics)?)
    }

    /// The tomography inversion: `x̂ = (RᵀR)⁻¹Rᵀy` (Eq. 2).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] if `y.len() ≠ |P|`.
    pub fn estimate(&self, measurements: &Vector) -> Result<Vector, CoreError> {
        if measurements.len() != self.num_paths() {
            return Err(CoreError::DimensionMismatch {
                context: "estimate: measurement vector",
                expected: self.num_paths(),
                got: measurements.len(),
            });
        }
        Ok(self.solver.solve(measurements)?)
    }

    /// The estimator matrix `A = (RᵀR)⁻¹Rᵀ` (|links| × |paths|), i.e. the
    /// linear response of `x̂` to measurements. The attack LPs are built
    /// directly on this matrix: `x̂(m) = x̂₀ + A m`.
    ///
    /// Materialized on first use and cached for the system's lifetime;
    /// later calls (from any thread) return the same `&`-reference.
    ///
    /// # Errors
    ///
    /// Propagates linear-algebra failures (cannot occur after successful
    /// construction).
    pub fn estimator_matrix(&self) -> Result<&Matrix, CoreError> {
        if let Some(a) = self.cache.pseudo_inverse.get() {
            ESTIMATOR_HITS.inc();
            return Ok(a);
        }
        let a = self.solver.pseudo_inverse()?;
        ESTIMATOR_BUILDS.inc();
        Ok(self.cache.pseudo_inverse.get_or_init(|| a))
    }

    /// The consistency projector `P = R·A` (|paths| × |paths|), mapping
    /// measurements onto the model-consistent subspace; `(I − P) y` is
    /// the residual the detector inspects, and the stealth constraints of
    /// the attack LPs are written against it.
    ///
    /// Cached like [`estimator_matrix`](Self::estimator_matrix).
    ///
    /// # Errors
    ///
    /// Propagates linear-algebra failures (cannot occur after successful
    /// construction).
    pub fn projector(&self) -> Result<&Matrix, CoreError> {
        if let Some(p) = self.cache.projector.get() {
            ESTIMATOR_HITS.inc();
            return Ok(p);
        }
        let p = self.routing_csr.mul_mat(self.estimator_matrix()?)?;
        ESTIMATOR_BUILDS.inc();
        Ok(self.cache.projector.get_or_init(|| p))
    }

    /// Eagerly materializes the cached operators ([`estimator_matrix`]
    /// (Self::estimator_matrix) and [`projector`](Self::projector)).
    /// Call before fanning trials out across workers so no thread races
    /// to build them redundantly.
    ///
    /// # Errors
    ///
    /// Propagates linear-algebra failures (cannot occur after successful
    /// construction).
    pub fn warm_estimator_cache(&self) -> Result<(), CoreError> {
        self.projector()?;
        Ok(())
    }

    /// Estimates link metrics from a *surviving subset* of measurements —
    /// the graceful-degradation path after probe loss.
    ///
    /// `surviving_rows` are the path indices whose measurements arrived
    /// (ascending, duplicate-free) and `y_sub` their readings, in the same
    /// order. When the surviving rows still span all links, this is the
    /// exact least-squares inversion restricted to those rows. When rank
    /// collapsed below `|L|`, the exact estimator no longer exists: the
    /// solve falls back to ridge regularization
    /// ([`tomo_linalg::lstsq::solve_ridge`] with [`DEFAULT_RIDGE_LAMBDA`])
    /// and reports which links became unidentifiable so downstream
    /// detection can ignore their coordinates. Never panics on rank
    /// deficiency.
    ///
    /// # Errors
    ///
    /// * [`CoreError::DimensionMismatch`] if `y_sub.len()` differs from
    ///   `surviving_rows.len()`, a row index is out of range, rows are
    ///   not strictly ascending, or no rows survive,
    /// * [`CoreError::NonFiniteMeasurement`] if a surviving reading is
    ///   NaN or infinite (corrupted rows must be dropped, not ingested).
    pub fn solve_degraded(
        &self,
        surviving_rows: &[usize],
        y_sub: &Vector,
    ) -> Result<DegradedSolve, CoreError> {
        self.solve_degraded_with(surviving_rows, y_sub, DegradedMode::Auto)
    }

    /// [`Self::solve_degraded`] with an explicit engine choice — the
    /// seam parity tests use to pin the incremental path against the
    /// rebuild path without racing on `TOMO_INCREMENTAL`.
    ///
    /// # Errors
    ///
    /// See [`Self::solve_degraded`].
    pub fn solve_degraded_with(
        &self,
        surviving_rows: &[usize],
        y_sub: &Vector,
        mode: DegradedMode,
    ) -> Result<DegradedSolve, CoreError> {
        if y_sub.len() != surviving_rows.len() || surviving_rows.is_empty() {
            return Err(CoreError::DimensionMismatch {
                context: "solve_degraded: surviving measurement vector",
                expected: surviving_rows.len(),
                got: y_sub.len(),
            });
        }
        for (k, &row) in surviving_rows.iter().enumerate() {
            if row >= self.num_paths() || (k > 0 && surviving_rows[k - 1] >= row) {
                return Err(CoreError::DimensionMismatch {
                    context:
                        "solve_degraded: surviving rows must be strictly ascending path indices",
                    expected: self.num_paths(),
                    got: row,
                });
            }
        }
        for (k, &v) in y_sub.iter().enumerate() {
            if !v.is_finite() {
                return Err(CoreError::NonFiniteMeasurement { row: k });
            }
        }
        DEGRADED_SOLVES.inc();
        let try_incremental = match mode {
            DegradedMode::Rebuild => false,
            DegradedMode::Incremental => true,
            DegradedMode::Auto => incremental_enabled(),
        } && surviving_rows.len() < self.num_paths()
            && surviving_rows.len() >= self.num_links()
            && self.solver.dense_factor().is_some();
        if try_incremental {
            let dropped = complement_rows(surviving_rows, self.num_paths());
            match self
                .cache
                .apply_path_delta(&self.solver, &self.routing_csr, &dropped)
            {
                Ok(delta) => {
                    DELTA_SOLVES.inc();
                    let estimate = delta.solve(&self.routing_csr, surviving_rows, y_sub)?;
                    return Ok(DegradedSolve {
                        estimate,
                        surviving_rows: surviving_rows.to_vec(),
                        rank: self.num_links(),
                        unidentifiable: Vec::new(),
                        used_ridge: false,
                    });
                }
                Err(LinalgError::NotPositiveDefinite { .. }) => {
                    // Rank collapsed: the downdate is the certificate.
                    // Fall through to the rebuild path, which quantifies
                    // the collapse (rank, unidentifiable links) and
                    // ridge-regularizes.
                    DELTA_COLLAPSES.inc();
                }
                Err(e) => return Err(e.into()),
            }
        }
        let r_sub = self.routing_matrix().select_rows(surviving_rows);
        let rank = tomo_linalg::rank::rank(&r_sub);
        if rank == self.num_links() {
            let estimate = tomo_linalg::lstsq::solve(&r_sub, y_sub)?;
            return Ok(DegradedSolve {
                estimate,
                surviving_rows: surviving_rows.to_vec(),
                rank,
                unidentifiable: Vec::new(),
                used_ridge: false,
            });
        }
        DEGRADED_RIDGE.inc();
        let estimate = tomo_linalg::lstsq::solve_ridge(&r_sub, y_sub, DEFAULT_RIDGE_LAMBDA)?;
        let unidentifiable = tomo_linalg::lstsq::unidentifiable_columns(&r_sub)
            .into_iter()
            .map(LinkId)
            .collect();
        Ok(DegradedSolve {
            estimate,
            surviving_rows: surviving_rows.to_vec(),
            rank,
            unidentifiable,
            used_ridge: true,
        })
    }

    /// Derives the estimator for this system minus the routing rows in
    /// `dropped` (ascending, duplicate-free) by rank-1 downdates of the
    /// cached Gram factor — and Sherman–Morrison updates of the cached
    /// pseudo-inverse when one is materialized — instead of a fresh
    /// (ridge-)refactorization. This is the seam `tomo-fault` link-fail
    /// and stale-row faults ride through [`Self::solve_degraded`].
    ///
    /// # Errors
    ///
    /// * [`CoreError::DimensionMismatch`] if `dropped` is not strictly
    ///   ascending in range.
    /// * [`CoreError::Linalg`] with `NotPositiveDefinite` when removing
    ///   the rows collapses the Gram rank (the caller's cue to use the
    ///   ridge path), or `InvalidShape` when no dense factor is cached
    ///   (sparse-factor systems rebuild instead).
    pub fn apply_path_delta(&self, dropped: &[usize]) -> Result<DeltaEstimator, CoreError> {
        for (k, &row) in dropped.iter().enumerate() {
            if row >= self.num_paths() || (k > 0 && dropped[k - 1] >= row) {
                return Err(CoreError::DimensionMismatch {
                    context: "apply_path_delta: dropped rows must be strictly ascending",
                    expected: self.num_paths(),
                    got: row,
                });
            }
        }
        Ok(self
            .cache
            .apply_path_delta(&self.solver, &self.routing_csr, dropped)?)
    }

    /// Classifies the estimate per Definition 1.
    #[must_use]
    pub fn classify(&self, estimate: &Vector, thresholds: &StateThresholds) -> Vec<LinkState> {
        thresholds.classify_all(estimate)
    }

    /// Indices (as [`LinkId`]) whose state matches `state` under
    /// `thresholds`.
    #[must_use]
    pub fn links_in_state(
        &self,
        estimate: &Vector,
        thresholds: &StateThresholds,
        state: LinkState,
    ) -> Vec<LinkId> {
        estimate
            .iter()
            .enumerate()
            .filter(|(_, &m)| thresholds.classify(m) == state)
            .map(|(i, _)| LinkId(i))
            .collect()
    }

    /// Numerical health diagnostics of the measurement design.
    ///
    /// * `redundancy` — `|P| − |L|`, the number of consistency checks the
    ///   detector has to work with (0 ⇒ Theorem 3 makes every attack
    ///   invisible),
    /// * `normal_equations_condition` — `κ₁(RᵀR)`; large values mean
    ///   estimates amplify measurement noise,
    /// * `mean_path_length` — average links per path (longer paths blur
    ///   more links together).
    ///
    /// # Errors
    ///
    /// Propagates linear-algebra failures (cannot occur after successful
    /// construction).
    pub fn diagnostics(&self) -> Result<SystemDiagnostics, CoreError> {
        let gram = self.routing_csr.gram();
        let condition = tomo_linalg::lu::condition_number_1(&gram)?;
        let mean_path_length =
            self.paths.iter().map(|p| p.num_links() as f64).sum::<f64>() / self.num_paths() as f64;
        Ok(SystemDiagnostics {
            redundancy: self.num_paths() - self.num_links(),
            normal_equations_condition: condition,
            mean_path_length,
        })
    }

    /// Paths (row indices) traversing any of `links`.
    #[must_use]
    pub fn paths_crossing_links(&self, links: &[LinkId]) -> Vec<usize> {
        self.paths
            .iter()
            .enumerate()
            .filter(|(_, p)| p.contains_any_link(links))
            .map(|(i, _)| i)
            .collect()
    }

    /// Paths (row indices) visiting any of `nodes`.
    #[must_use]
    pub fn paths_through_nodes(&self, nodes: &[NodeId]) -> Vec<usize> {
        self.paths
            .iter()
            .enumerate()
            .filter(|(_, p)| p.contains_any_node(nodes))
            .map(|(i, _)| i)
            .collect()
    }
}

/// Result of a degraded estimation
/// (see [`TomographySystem::solve_degraded`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedSolve {
    /// The link-metric estimate (exact when `used_ridge` is false, ridge
    /// regularized otherwise). Coordinates listed in `unidentifiable`
    /// carry no information and must not be interpreted.
    pub estimate: Vector,
    /// The path indices the estimate was computed from.
    pub surviving_rows: Vec<usize>,
    /// Rank of the surviving routing submatrix.
    pub rank: usize,
    /// Links whose metric is not determined by the surviving rows
    /// (empty iff the solve stayed exact). Ascending.
    pub unidentifiable: Vec<LinkId>,
    /// Whether the ridge fallback was required.
    pub used_ridge: bool,
}

/// Sparsity statistics of a routing matrix
/// (see [`TomographySystem::sparsity_stats`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparsityStats {
    /// Stored (nonzero) entries — total links crossed over all paths.
    pub nnz: usize,
    /// `nnz / (|P| · |L|)`, the fraction of nonzero entries.
    pub density: f64,
}

/// Numerical health summary of a measurement design
/// (see [`TomographySystem::diagnostics`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemDiagnostics {
    /// Consistency checks available to the detector: `|P| − |L|`.
    pub redundancy: usize,
    /// 1-norm condition number of the normal-equations matrix `RᵀR`.
    pub normal_equations_condition: f64,
    /// Average number of links per measurement path.
    pub mean_path_length: f64,
}

/// Ascending complement of `surviving` (strictly ascending) in
/// `0..total`.
fn complement_rows(surviving: &[usize], total: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(total - surviving.len());
    let mut it = surviving.iter().copied().peekable();
    for row in 0..total {
        if it.peek() == Some(&row) {
            it.next();
        } else {
            out.push(row);
        }
    }
    out
}

/// Builds the 0/1 routing matrix `R` (Eq. 1: `R[i][j] = 1` iff link `j`
/// lies on path `i`) in CSR form straight from the paths' link lists,
/// without a dense intermediate.
///
/// # Errors
///
/// Returns [`CoreError`] if a path crosses a link index `>= num_links`
/// (impossible for paths built against the same graph).
pub fn build_routing_csr(paths: &[Path], num_links: usize) -> Result<CsrMatrix, CoreError> {
    let link_lists: Vec<Vec<usize>> = paths
        .iter()
        .map(|p| p.links().iter().map(|l| l.index()).collect())
        .collect();
    Ok(CsrMatrix::from_paths(&link_lists, num_links)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tomo_graph::Path;

    /// Triangle m0 - v - m1 (plus direct m0 - m1) where every node is a
    /// monitor: 4 paths over 3 links, rank 3, one redundant row.
    fn tiny_system() -> TomographySystem {
        let mut g = Graph::new();
        let m0 = g.add_node("m0");
        let v = g.add_node("v");
        let m1 = g.add_node("m1");
        g.add_link(m0, v).unwrap(); // l0
        g.add_link(v, m1).unwrap(); // l1
        g.add_link(m0, m1).unwrap(); // l2
        let paths = vec![
            Path::from_nodes(&g, &[m0, v]).unwrap(),
            Path::from_nodes(&g, &[v, m1]).unwrap(),
            Path::from_nodes(&g, &[m0, m1]).unwrap(),
            Path::from_nodes(&g, &[m0, v, m1]).unwrap(),
        ];
        TomographySystem::new(g, vec![m0, m1, v], paths).unwrap()
    }

    #[test]
    fn routing_matrix_structure() {
        let sys = tiny_system();
        let r = sys.routing_matrix();
        assert_eq!(r.shape(), (4, 3));
        // Path 3 (m0-v-m1) covers links 0 and 1.
        assert_eq!(r.row(3), &[1.0, 1.0, 0.0]);
        assert_eq!(sys.num_paths(), 4);
        assert_eq!(sys.num_links(), 3);
        assert_eq!(sys.monitors().len(), 3);
    }

    #[test]
    fn measure_then_estimate_roundtrips() {
        let sys = tiny_system();
        let x = Vector::from(vec![5.0, 7.0, 11.0]);
        let y = sys.measure(&x).unwrap();
        assert_eq!(y.len(), 4);
        assert_eq!(y[3], 12.0);
        let x_hat = sys.estimate(&y).unwrap();
        assert!(x_hat.approx_eq(&x, 1e-9));
    }

    #[test]
    fn estimator_matrix_matches_estimate() {
        let sys = tiny_system();
        let a = sys.estimator_matrix().unwrap();
        assert_eq!(a.shape(), (3, 4));
        let y = Vector::from(vec![1.0, 2.0, 3.0, 4.0]);
        let via_matrix = a.mul_vec(&y).unwrap();
        let via_solver = sys.estimate(&y).unwrap();
        assert!(via_matrix.approx_eq(&via_solver, 1e-9));
    }

    #[test]
    fn estimator_cache_shares_one_materialization() {
        let sys = tiny_system();
        let a1: *const Matrix = sys.estimator_matrix().unwrap();
        let a2: *const Matrix = sys.estimator_matrix().unwrap();
        assert!(std::ptr::eq(a1, a2), "second call must hit the cache");
        let p = sys.projector().unwrap();
        assert_eq!(p.shape(), (4, 4));
        // A projector is idempotent: P² = P.
        let pp = p.mul_mat(p).unwrap();
        assert!(pp.approx_eq(p, 1e-9));
        sys.warm_estimator_cache().unwrap();
        // Clones keep their own (already warmed) cache and still work.
        let cloned = sys.clone();
        assert!(cloned
            .estimator_matrix()
            .unwrap()
            .approx_eq(sys.estimator_matrix().unwrap(), 0.0));
    }

    #[test]
    fn degraded_solve_exact_when_rank_survives() {
        let sys = tiny_system();
        let x = Vector::from(vec![5.0, 7.0, 11.0]);
        let y = sys.measure(&x).unwrap();
        // Drop the redundant row 3; rows {0,1,2} are the identity on links.
        let rows = [0usize, 1, 2];
        let y_sub = Vector::from(vec![y[0], y[1], y[2]]);
        let d = sys.solve_degraded(&rows, &y_sub).unwrap();
        assert!(!d.used_ridge);
        assert_eq!(d.rank, 3);
        assert!(d.unidentifiable.is_empty());
        assert!(d.estimate.approx_eq(&x, 1e-9));
        assert_eq!(d.surviving_rows, rows);
    }

    #[test]
    fn degraded_solve_ridge_flags_unidentifiable_links() {
        let sys = tiny_system();
        let x = Vector::from(vec![5.0, 7.0, 11.0]);
        let y = sys.measure(&x).unwrap();
        // Keep only rows 2 (link 2 alone) and 3 (links 0+1): link 2 stays
        // identifiable, links 0 and 1 alias each other.
        let rows = [2usize, 3];
        let y_sub = Vector::from(vec![y[2], y[3]]);
        let d = sys.solve_degraded(&rows, &y_sub).unwrap();
        assert!(d.used_ridge);
        assert_eq!(d.rank, 2);
        assert_eq!(d.unidentifiable, vec![LinkId(0), LinkId(1)]);
        assert!(d.estimate.iter().all(|v| v.is_finite()));
        // The identifiable coordinate is still recovered (ridge bias is
        // O(lambda)).
        assert!((d.estimate[2] - 11.0).abs() < 1e-3);
    }

    #[test]
    fn degraded_solve_validates_input() {
        let sys = tiny_system();
        // Length mismatch.
        assert!(sys.solve_degraded(&[0, 1], &Vector::zeros(3)).is_err());
        // Empty subset.
        assert!(sys.solve_degraded(&[], &Vector::zeros(0)).is_err());
        // Out-of-range row.
        assert!(sys.solve_degraded(&[0, 9], &Vector::zeros(2)).is_err());
        // Not strictly ascending.
        assert!(sys.solve_degraded(&[1, 1], &Vector::zeros(2)).is_err());
        // Non-finite reading.
        let err = sys
            .solve_degraded(&[0, 1], &Vector::from(vec![1.0, f64::NAN]))
            .unwrap_err();
        assert!(matches!(err, CoreError::NonFiniteMeasurement { row: 1 }));
    }

    #[test]
    fn dimension_checks() {
        let sys = tiny_system();
        assert!(matches!(
            sys.measure(&Vector::zeros(2)),
            Err(CoreError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            sys.estimate(&Vector::zeros(3)),
            Err(CoreError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn classification_helpers() {
        let sys = tiny_system();
        let t = StateThresholds::new(100.0, 800.0).unwrap();
        let est = Vector::from(vec![50.0, 400.0, 900.0]);
        assert_eq!(
            sys.classify(&est, &t),
            vec![LinkState::Normal, LinkState::Uncertain, LinkState::Abnormal]
        );
        assert_eq!(
            sys.links_in_state(&est, &t, LinkState::Abnormal),
            vec![LinkId(2)]
        );
        assert_eq!(
            sys.links_in_state(&est, &t, LinkState::Normal),
            vec![LinkId(0)]
        );
    }

    #[test]
    fn path_queries() {
        let sys = tiny_system();
        // Paths crossing link 0 (m0-v): path 0 and path 3.
        assert_eq!(sys.paths_crossing_links(&[LinkId(0)]), vec![0, 3]);
        // Paths through node v: 0, 1, 3.
        let v = sys.graph().node_by_label("v").unwrap();
        assert_eq!(sys.paths_through_nodes(&[v]), vec![0, 1, 3]);
        assert!(sys.paths_crossing_links(&[]).is_empty());
    }

    #[test]
    fn rejects_rank_deficient_path_sets() {
        let mut g = Graph::new();
        let m0 = g.add_node("m0");
        let v = g.add_node("v");
        let m1 = g.add_node("m1");
        g.add_link(m0, v).unwrap();
        g.add_link(v, m1).unwrap();
        let p = Path::from_nodes(&g, &[m0, v, m1]).unwrap();
        let err = TomographySystem::new(g, vec![m0, m1], vec![p]).unwrap_err();
        assert!(matches!(
            err,
            CoreError::NotIdentifiable { rank: 1, links: 2 }
        ));
    }

    #[test]
    fn rejects_path_not_between_monitors() {
        let mut g = Graph::new();
        let m0 = g.add_node("m0");
        let v = g.add_node("v");
        let m1 = g.add_node("m1");
        g.add_link(m0, v).unwrap();
        g.add_link(v, m1).unwrap();
        let p_bad = Path::from_nodes(&g, &[m0, v]).unwrap(); // v not monitor
        let err = TomographySystem::new(g, vec![m0, m1], vec![p_bad]).unwrap_err();
        assert!(matches!(
            err,
            CoreError::PathNotBetweenMonitors { path_index: 0 }
        ));
    }

    #[test]
    fn rejects_too_few_monitors_and_no_paths() {
        let mut g = Graph::new();
        let m0 = g.add_node("m0");
        let v = g.add_node("v");
        g.add_link(m0, v).unwrap();
        assert!(matches!(
            TomographySystem::new(g.clone(), vec![m0, m0], vec![]),
            Err(CoreError::TooFewMonitors { got: 1 })
        ));
        assert!(matches!(
            TomographySystem::new(g, vec![m0, v], vec![]),
            Err(CoreError::NoPaths)
        ));
    }

    #[test]
    fn diagnostics_report_redundancy_and_conditioning() {
        let sys = tiny_system();
        let d = sys.diagnostics().unwrap();
        assert_eq!(d.redundancy, 1); // 4 paths − 3 links
        assert!(d.normal_equations_condition >= 1.0);
        assert!(
            d.normal_equations_condition < 1e6,
            "tiny system is well-conditioned"
        );
        // Paths: 1 + 1 + 1 + 2 links = 5/4.
        assert!((d.mean_path_length - 1.25).abs() < 1e-12);
    }

    #[test]
    fn build_routing_csr_empty() {
        assert_eq!(build_routing_csr(&[], 5).unwrap().shape(), (0, 5));
    }

    #[test]
    fn sparse_kernel_matches_dense_kernel() {
        // Rebuild the tiny system with the dense gate forced shut: the
        // sparse construction path must accept it, defer the dense
        // routing view, and produce identical estimates.
        let dense_sys = tiny_system();
        let g = dense_sys.graph().clone();
        let monitors = dense_sys.monitors().to_vec();
        let paths = dense_sys.paths().to_vec();
        let sparse_sys = TomographySystem::new_gated(g, monitors, paths, 0).unwrap();
        assert_eq!(dense_sys.kernel(), KernelKind::Dense);
        assert_eq!(sparse_sys.kernel(), KernelKind::Sparse);

        let x = Vector::from(vec![5.0, 7.0, 11.0]);
        let y_d = dense_sys.measure(&x).unwrap();
        let y_s = sparse_sys.measure(&x).unwrap();
        for (a, b) in y_d.iter().zip(y_s.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let e_d = dense_sys.estimate(&y_d).unwrap();
        let e_s = sparse_sys.estimate(&y_s).unwrap();
        for (a, b) in e_d.iter().zip(e_s.iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "same solver, same bits");
        }
        // The lazy dense view expands to the same matrix.
        assert_eq!(sparse_sys.routing_matrix(), dense_sys.routing_matrix());
        // Degraded solves (which need the dense view) still work.
        let rows = [0usize, 1, 2];
        let y_sub = Vector::from(vec![y_s[0], y_s[1], y_s[2]]);
        let d = sparse_sys.solve_degraded(&rows, &y_sub).unwrap();
        assert!(d.estimate.approx_eq(&x, 1e-9));
    }

    #[test]
    fn sparse_kernel_rejects_rank_deficiency_via_cholesky() {
        // One path over two links: not identifiable. The sparse path
        // must report NotIdentifiable (from the Gram Cholesky), not a
        // raw linalg error.
        let mut g = Graph::new();
        let m0 = g.add_node("m0");
        let v = g.add_node("v");
        let m1 = g.add_node("m1");
        g.add_link(m0, v).unwrap();
        g.add_link(v, m1).unwrap();
        let p = Path::from_nodes(&g, &[m0, v, m1]).unwrap();
        let err = TomographySystem::new_gated(g, vec![m0, m1], vec![p], 0).unwrap_err();
        match err {
            CoreError::NotIdentifiable { rank, links } => {
                assert!(rank < links, "rank bound {rank} must be below {links}");
                assert_eq!(links, 2);
            }
            other => panic!("expected NotIdentifiable, got {other:?}"),
        }
    }

    #[test]
    fn incremental_and_rebuild_degraded_solves_agree() {
        let sys = tiny_system();
        let x = Vector::from(vec![5.0, 7.0, 11.0]);
        let y = sys.measure(&x).unwrap();
        let rows = [0usize, 1, 2];
        let y_sub = Vector::from(vec![y[0], y[1], y[2]]);
        let inc = sys
            .solve_degraded_with(&rows, &y_sub, DegradedMode::Incremental)
            .unwrap();
        let reb = sys
            .solve_degraded_with(&rows, &y_sub, DegradedMode::Rebuild)
            .unwrap();
        assert!(!inc.used_ridge);
        assert_eq!(inc.rank, reb.rank);
        assert_eq!(inc.unidentifiable, reb.unidentifiable);
        assert!(inc.estimate.approx_eq(&reb.estimate, 1e-9));
        assert!(inc.estimate.approx_eq(&x, 1e-9));
    }

    #[test]
    fn incremental_mode_falls_back_on_rank_collapse() {
        let sys = tiny_system();
        let x = Vector::from(vec![5.0, 7.0, 11.0]);
        let y = sys.measure(&x).unwrap();
        // Rows {2, 3} leave links 0 and 1 aliased: the downdate chain
        // must certify the collapse and the ridge rebuild must take
        // over, identically to the forced-rebuild result.
        let rows = [2usize, 3];
        let y_sub = Vector::from(vec![y[2], y[3]]);
        let inc = sys
            .solve_degraded_with(&rows, &y_sub, DegradedMode::Incremental)
            .unwrap();
        let reb = sys
            .solve_degraded_with(&rows, &y_sub, DegradedMode::Rebuild)
            .unwrap();
        assert!(inc.used_ridge && reb.used_ridge);
        assert_eq!(inc.rank, 2);
        assert_eq!(inc.unidentifiable, vec![LinkId(0), LinkId(1)]);
        for (a, b) in inc.estimate.iter().zip(reb.estimate.iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "identical ridge fallback");
        }
    }

    #[test]
    fn apply_path_delta_updates_factor_and_pinv() {
        let sys = tiny_system();
        // Materialize the pseudo-inverse first so the delta path has to
        // Sherman–Morrison it.
        sys.warm_estimator_cache().unwrap();
        let delta = sys.apply_path_delta(&[3]).unwrap();
        assert_eq!(delta.dropped_rows(), &[3]);
        let pinv = delta.pseudo_inverse().expect("cache was warm");
        assert_eq!(pinv.shape(), (3, 3));
        // Against a cold rebuild of the 3-row system.
        let g = sys.graph().clone();
        let monitors = sys.monitors().to_vec();
        let paths = sys.paths()[..3].to_vec();
        let small = TomographySystem::new(g, monitors, paths).unwrap();
        let cold_pinv = small.estimator_matrix().unwrap();
        assert!(pinv.approx_eq(cold_pinv, 1e-9));
        // Validation and the rank certificate.
        assert!(sys.apply_path_delta(&[3, 3]).is_err());
        assert!(sys.apply_path_delta(&[9]).is_err());
        let err = sys.apply_path_delta(&[0, 3]).unwrap_err();
        assert!(matches!(err, CoreError::Linalg(_)));
    }

    #[test]
    fn csr_matches_dense_routing() {
        let sys = tiny_system();
        assert_eq!(&sys.routing_csr().to_dense(), sys.routing_matrix());
        let stats = sys.sparsity_stats();
        assert_eq!(stats.nnz, 5); // paths cover 1 + 1 + 1 + 2 links
        assert!((stats.density - 5.0 / 12.0).abs() < 1e-15);
        // The sparse measurement path is bit-identical to the dense one.
        let x = Vector::from(vec![0.3, -1.7, 2.5]);
        let sparse = sys.measure(&x).unwrap();
        let dense = sys.routing_matrix().mul_vec(&x).unwrap();
        for (a, b) in sparse.iter().zip(dense.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
