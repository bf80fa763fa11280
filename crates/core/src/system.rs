use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use tomo_graph::{Graph, LinkId, NodeId, Path};
use tomo_linalg::lstsq::NormalEquationsSolver;
use tomo_linalg::{CsrBuilder, CsrMatrix, LinalgError, Vector};
use tomo_obs::LazyCounter;

use crate::{CoreError, LinkState, StateThresholds};

static ESTIMATOR_HITS: LazyCounter = LazyCounter::new("core.estimator_cache.hits");
static ESTIMATOR_BUILDS: LazyCounter = LazyCounter::new("core.estimator_cache.builds");
static DEGRADED_SOLVES: LazyCounter = LazyCounter::new("core.degraded.solves");
static DEGRADED_RIDGE: LazyCounter = LazyCounter::new("core.degraded.ridge");
static ESTIMATE_SOLVES: LazyCounter = LazyCounter::new("core.estimate.solves");
static ESTIMATE_REUSED: LazyCounter = LazyCounter::new("core.estimate.reused");

/// The id the next [`TomographySystem::new`] hands out.
static NEXT_SYSTEM_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's last [`TomographySystem::estimate`] solve.
    static LAST_ESTIMATE: RefCell<EstimateMemo> = const { RefCell::new(EstimateMemo::EMPTY) };
}

/// Regularization strength for the ridge fallback of
/// [`TomographySystem::solve_degraded`]: small enough to leave
/// identifiable links essentially unbiased, large enough to keep the
/// shifted Gram matrix positive definite under rank deficiency.
pub const DEFAULT_RIDGE_LAMBDA: f64 = 1e-6;

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
    /// Process-unique identity ([`Self::id`]); clones keep it.
    id: u64,
    graph: Graph,
    monitors: Vec<NodeId>,
    paths: Vec<Path>,
    routing_csr: CsrMatrix,
    solver: NormalEquationsSolver,
    /// Column `i` of the estimator `A = (RᵀR)⁻¹Rᵀ`, one slot per path,
    /// filled on first use ([`Self::estimator_column`]).
    estimator_columns: Vec<OnceLock<Vector>>,
    /// Column `i` of the projector `P = R·A`, filled on first use
    /// ([`Self::projector_column`]).
    projector_columns: Vec<OnceLock<Vector>>,
    /// `Rᵀ` in CSR form: row `j` lists the paths crossing link `j`,
    /// ascending. Built on the first path query
    /// ([`Self::paths_through_link`]).
    paths_by_link: OnceLock<CsrMatrix>,
}

impl TomographySystem {
    /// Builds and validates a measurement system.
    ///
    /// Identifiability is decided exactly, at every size, before the Gram
    /// matrix is factored: the path rows go through the sparse rank
    /// tracker `tomo_linalg::rank::SparseRank`, the same check
    /// [`crate::identifiability::analyze_paths`] runs.
    ///
    /// # Errors
    ///
    /// * [`CoreError::TooFewMonitors`] with fewer than 2 monitors,
    /// * [`CoreError::NoPaths`] with an empty path set,
    /// * [`CoreError::PathNotBetweenMonitors`] if some path's endpoints
    ///   are not two distinct monitors,
    /// * [`CoreError::NotIdentifiable`] with the exact rank if `R` lacks
    ///   full column rank.
    pub fn new(graph: Graph, monitors: Vec<NodeId>, paths: Vec<Path>) -> Result<Self, CoreError> {
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
        let rank = crate::identifiability::path_rank(&paths, num_links).rank();
        if rank < num_links {
            return Err(CoreError::NotIdentifiable {
                rank,
                links: num_links,
            });
        }
        let solver = NormalEquationsSolver::from_sparse(routing_csr.clone())?;
        let columns = || (0..paths.len()).map(|_| OnceLock::new()).collect();
        Ok(TomographySystem {
            id: NEXT_SYSTEM_ID.fetch_add(1, Ordering::Relaxed),
            graph,
            monitors: unique,
            estimator_columns: columns(),
            projector_columns: columns(),
            paths_by_link: OnceLock::new(),
            paths,
            routing_csr,
            solver,
        })
    }

    /// A process-unique identity, taken once in [`Self::new`]. No two
    /// systems built in one process share it, even when one is dropped
    /// and the next lands at its address; a clone keeps it, since a
    /// system never changes after construction. Caches of values derived
    /// from a system key on it.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
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

    /// The routing matrix `R` (|paths| × |links|) in CSR form, the only
    /// form the system keeps; `to_dense()` expands it where a caller
    /// needs a dense [`tomo_linalg::Matrix`].
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
    /// Each thread keeps its last solve: the system's [`Self::id`], the
    /// bits of `y` and `x̂`. A call on the same thread with the same id
    /// and bit-identical `y` returns a copy of that `x̂`
    /// (`core.estimate.reused`); any other call solves
    /// (`core.estimate.solves`) and replaces it. The result is the same
    /// either way, since a system never changes after construction.
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
        let kept = LAST_ESTIMATE.try_with(|memo| memo.borrow().get(self.id, measurements));
        if let Ok(Some(estimate)) = kept {
            ESTIMATE_REUSED.inc();
            return Ok(estimate);
        }
        let estimate = self.solver.solve(measurements)?;
        ESTIMATE_SOLVES.inc();
        // During thread teardown the slot is gone and nothing is kept.
        let _ =
            LAST_ESTIMATE.try_with(|memo| memo.borrow_mut().set(self.id, measurements, &estimate));
        Ok(estimate)
    }

    /// Column `path` of the estimator matrix `A = (RᵀR)⁻¹Rᵀ`
    /// (|links| × |paths|): the response of `x̂` to a unit manipulation on
    /// that path, i.e. [`Self::estimate`] (Eq. 2) of the unit vector. The
    /// attack LPs are built on these columns: `x̂(m) = x̂₀ + A m`, with `m`
    /// zero off the attacked paths.
    ///
    /// Computed on first use and cached for the system's lifetime; later
    /// calls (from any thread) return the same `&`-reference. The column
    /// is solved directly, so it neither uses nor replaces the thread's
    /// last [`Self::estimate`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] if `path ≥ |P|`.
    pub fn estimator_column(&self, path: usize) -> Result<&Vector, CoreError> {
        let slot = self.column_slot(&self.estimator_columns, path, "estimator_column")?;
        cached_column(slot, || {
            let mut unit = Vector::zeros(self.num_paths());
            unit[path] = 1.0;
            Ok(self.solver.solve(&unit)?)
        })
    }

    /// Column `path` of the consistency projector `P = R·A`
    /// (|paths| × |paths|): [`Self::measure`] (Eq. 1) of the estimator
    /// column. `(I − P) y` is the residual the detector inspects. `P` is
    /// symmetric, so this column is also row `path`: the stealth
    /// constraints of the attack LPs read the attacked rows of the
    /// attacked columns, the block `(P − I)[S, S]`.
    ///
    /// Cached like [`Self::estimator_column`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] if `path ≥ |P|`.
    pub fn projector_column(&self, path: usize) -> Result<&Vector, CoreError> {
        let slot = self.column_slot(&self.projector_columns, path, "projector_column")?;
        cached_column(slot, || self.measure(self.estimator_column(path)?))
    }

    /// The cache slot of `path`, or a typed error when it is out of range.
    fn column_slot<'s>(
        &self,
        slots: &'s [OnceLock<Vector>],
        path: usize,
        context: &'static str,
    ) -> Result<&'s OnceLock<Vector>, CoreError> {
        slots.get(path).ok_or(CoreError::DimensionMismatch {
            context,
            expected: self.num_paths(),
            got: path,
        })
    }

    /// Does nothing and always succeeds. Estimator and projector columns
    /// are computed on first use, so there is nothing left to warm; the
    /// method stays only because the frozen benchmark under `perfbench/`
    /// still calls it.
    ///
    /// # Errors
    ///
    /// Never.
    pub fn warm_estimator_cache(&self) -> Result<(), CoreError> {
        Ok(())
    }

    /// Estimates link metrics from a *surviving subset* of measurements —
    /// the graceful-degradation path after probe loss.
    ///
    /// `surviving_rows` are the path indices whose measurements arrived
    /// (ascending, duplicate-free) and `y_sub` their readings, in the same
    /// order. The surviving routing rows `R′` go through the same
    /// [`NormalEquationsSolver`] as the full system: Eq. 2 on a row
    /// subset. When they still span all links, this is the exact
    /// least-squares inversion restricted to those rows. When the Gram
    /// factorization reports a rank collapse, the exact estimator no
    /// longer exists: the rank and the links the surviving paths cannot
    /// determine come from the exact sparse rank tracker (as in
    /// [`crate::identifiability::analyze_paths`]), so downstream detection
    /// can ignore their coordinates, and the estimate is the ridge
    /// solution of `min ‖R′x − y′‖² + λ′‖x‖²` with
    /// `λ′ = DEFAULT_RIDGE_LAMBDA · (1 + mean diag R′ᵀR′)`, solved as least
    /// squares on `R′` stacked over `√λ′·I`. Never panics on rank
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
        let n = self.num_links();
        match NormalEquationsSolver::from_sparse(self.surviving_csr(surviving_rows, None)?) {
            Ok(solver) => {
                return Ok(DegradedSolve {
                    estimate: solver.solve(y_sub)?,
                    surviving_rows: surviving_rows.to_vec(),
                    rank: n,
                    unidentifiable: Vec::new(),
                    used_ridge: false,
                });
            }
            Err(LinalgError::NotPositiveDefinite { .. }) => {}
            Err(e) => return Err(e.into()),
        }
        DEGRADED_RIDGE.inc();
        let report = crate::identifiability::analyze_paths(
            surviving_rows.iter().map(|&row| &self.paths[row]),
            n,
        );
        // The trace of R′ᵀR′ is the sum of the squared entries of R′.
        let trace: f64 = surviving_rows
            .iter()
            .flat_map(|&row| self.routing_csr.row_iter(row))
            .map(|(_, v)| v * v)
            .sum();
        let shift = DEFAULT_RIDGE_LAMBDA * (1.0 + trace / n as f64);
        // The Gram of R′ stacked over √λ′·I is R′ᵀR′ + λ′I, positive
        // definite for any λ′ > 0; the stacked rows measure zero.
        let stacked = self.surviving_csr(surviving_rows, Some(shift.sqrt()))?;
        let y_stacked: Vector = y_sub
            .iter()
            .copied()
            .chain(std::iter::repeat_n(0.0, n))
            .collect();
        let estimate = NormalEquationsSolver::from_sparse(stacked)?.solve(&y_stacked)?;
        Ok(DegradedSolve {
            estimate,
            surviving_rows: surviving_rows.to_vec(),
            rank: report.rank,
            unidentifiable: report.unidentifiable_links(),
            used_ridge: true,
        })
    }

    /// The routing rows `surviving_rows` (path indices, in the order
    /// given) in CSR form, stacked over `scale · I` (one extra row per
    /// link) when `identity_scale` is set. [`Self::solve_degraded`]
    /// factors these rows, stacked for its ridge fallback.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::DimensionMismatch`] if a row index is `≥ |P|`.
    pub fn surviving_csr(
        &self,
        surviving_rows: &[usize],
        identity_scale: Option<f64>,
    ) -> Result<CsrMatrix, CoreError> {
        let n = self.num_links();
        let mut b = CsrBuilder::new(n);
        for &row in surviving_rows {
            if row >= self.num_paths() {
                return Err(CoreError::DimensionMismatch {
                    context: "surviving_csr: row index",
                    expected: self.num_paths(),
                    got: row,
                });
            }
            b.push_row(self.routing_csr.row_iter(row))?;
        }
        if let Some(scale) = identity_scale {
            for j in 0..n {
                b.push_row([(j, scale)])?;
            }
        }
        Ok(b.finish())
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

    /// Paths (row indices, ascending) traversing `link`: its row of `Rᵀ`,
    /// which is built on the first path query and kept. An id beyond
    /// `|L|` crosses no path.
    #[must_use]
    pub fn paths_through_link(&self, link: LinkId) -> &[usize] {
        let by_link = self
            .paths_by_link
            .get_or_init(|| self.routing_csr.transpose());
        if link.index() < by_link.rows() {
            by_link.row_indices(link.index())
        } else {
            &[]
        }
    }

    /// Paths (row indices, ascending, each once) traversing any of
    /// `links`: the union of their [`Self::paths_through_link`] rows.
    #[must_use]
    pub fn paths_crossing_links(&self, links: &[LinkId]) -> Vec<usize> {
        let mut rows: Vec<usize> = links
            .iter()
            .flat_map(|&l| self.paths_through_link(l))
            .copied()
            .collect();
        rows.sort_unstable();
        rows.dedup();
        rows
    }

    /// Paths (row indices, ascending, each once) visiting any of `nodes`.
    /// A path has at least one link, so it visits a node exactly when it
    /// crosses one of the node's links: this is
    /// [`Self::paths_crossing_links`] over the nodes' incident links.
    /// Ids beyond the graph's nodes are visited by no path.
    #[must_use]
    pub fn paths_through_nodes(&self, nodes: &[NodeId]) -> Vec<usize> {
        let links: Vec<LinkId> = nodes
            .iter()
            .filter_map(|&n| self.graph.neighbors(n).ok())
            .flatten()
            .map(|&(_, link)| link)
            .collect();
        self.paths_crossing_links(&links)
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

/// One thread's last [`TomographySystem::estimate`] solve. Its buffers
/// are overwritten in place, so it holds one `y` and one `x̂` of the
/// largest system the thread estimated.
struct EstimateMemo {
    /// [`TomographySystem::id`] of the system solved; `None` before the
    /// thread's first solve.
    system_id: Option<u64>,
    /// The measurements `y`, bit for bit.
    y_bits: Vec<u64>,
    /// The estimate `x̂` solved from them.
    estimate: Vec<f64>,
}

impl EstimateMemo {
    const EMPTY: EstimateMemo = EstimateMemo {
        system_id: None,
        y_bits: Vec::new(),
        estimate: Vec::new(),
    };

    /// A copy of the kept estimate if it was solved on system `id` from
    /// exactly these bits of `y`. Bits, not values: bit-identical inputs
    /// give a bit-identical solve whatever the kernel does with the sign
    /// of a zero, while `==` would take `-0.0` for `0.0`.
    fn get(&self, id: u64, y: &Vector) -> Option<Vector> {
        let same = self.system_id == Some(id)
            && self.y_bits.len() == y.len()
            && self.y_bits.iter().zip(y).all(|(&b, v)| b == v.to_bits());
        same.then(|| Vector::from(self.estimate.clone()))
    }

    /// Keeps `estimate`, solved on system `id` from `y`.
    fn set(&mut self, id: u64, y: &Vector, estimate: &Vector) {
        self.system_id = Some(id);
        self.y_bits.clear();
        self.y_bits.extend(y.iter().map(|v| v.to_bits()));
        self.estimate.clear();
        self.estimate.extend_from_slice(estimate.as_slice());
    }
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

/// Returns the column cached in `slot`, building it first if the slot is
/// empty. Racing threads may each build the column; only the one whose
/// `set` wins counts as a build, so `core.estimator_cache.builds` is the
/// number of distinct columns materialized at any thread count.
fn cached_column(
    slot: &OnceLock<Vector>,
    build: impl FnOnce() -> Result<Vector, CoreError>,
) -> Result<&Vector, CoreError> {
    if let Some(col) = slot.get() {
        ESTIMATOR_HITS.inc();
        return Ok(col);
    }
    if slot.set(build()?).is_ok() {
        ESTIMATOR_BUILDS.inc();
    }
    Ok(slot.get().expect("the slot was filled above"))
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
    fn routing_csr_structure() {
        let sys = tiny_system();
        let r = sys.routing_csr().to_dense();
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
    fn column_cache_shares_one_materialization() {
        let sys = tiny_system();
        let a1: *const Vector = sys.estimator_column(2).unwrap();
        let a2: *const Vector = sys.estimator_column(2).unwrap();
        assert!(std::ptr::eq(a1, a2), "second call must hit the cache");
        let p1: *const Vector = sys.projector_column(3).unwrap();
        let p2: *const Vector = sys.projector_column(3).unwrap();
        assert!(std::ptr::eq(p1, p2), "second call must hit the cache");
        // Clones carry their own (already filled) slots and agree.
        let cloned = sys.clone();
        for i in 0..sys.num_paths() {
            assert_eq!(
                cloned.estimator_column(i).unwrap(),
                sys.estimator_column(i).unwrap()
            );
            assert_eq!(
                cloned.projector_column(i).unwrap(),
                sys.projector_column(i).unwrap()
            );
        }
        sys.warm_estimator_cache().unwrap();
    }

    #[test]
    fn ids_are_unique_per_build_and_kept_by_clones() {
        let first = tiny_system();
        let first_id = first.id();
        assert_eq!(first.clone().id(), first_id);
        drop(first);
        // An identical system built after the first is dropped (it may
        // land at the same address) still gets a new id.
        let second = tiny_system();
        assert_ne!(second.id(), first_id);
    }

    #[test]
    fn out_of_range_paths_are_typed_errors() {
        let sys = tiny_system();
        for err in [
            sys.estimator_column(4).unwrap_err(),
            sys.projector_column(4).unwrap_err(),
            sys.surviving_csr(&[0, 4], None).unwrap_err(),
        ] {
            assert!(matches!(
                err,
                CoreError::DimensionMismatch {
                    expected: 4,
                    got: 4,
                    ..
                }
            ));
        }
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
    fn degraded_ridge_flags_unidentifiable_links() {
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

    /// This thread's kept solve: system id, bits of `y`, bits of `x̂`.
    fn memo() -> (Option<u64>, Vec<u64>, Vec<u64>) {
        LAST_ESTIMATE.with(|m| {
            let m = m.borrow();
            (m.system_id, m.y_bits.clone(), bits(&m.estimate))
        })
    }

    /// Overwrites this thread's kept `x̂` with `marker`, so that a call
    /// answered from the slot shows.
    fn plant(marker: f64) {
        LAST_ESTIMATE.with(|m| m.borrow_mut().estimate.fill(marker));
    }

    fn bits<'v>(v: impl IntoIterator<Item = &'v f64>) -> Vec<u64> {
        v.into_iter().map(|e| e.to_bits()).collect()
    }

    fn tiny_measurements(sys: &TomographySystem) -> Vector {
        sys.measure(&Vector::from(vec![0.3, -1.7, 2.5])).unwrap()
    }

    #[test]
    fn a_slot_hit_is_a_fresh_solve_bit_for_bit() {
        let sys = tiny_system();
        let y = tiny_measurements(&sys);
        let fresh = bits(&sys.solver.solve(&y).unwrap());
        assert_eq!(bits(&sys.estimate(&y).unwrap()), fresh);
        assert_eq!(memo(), (Some(sys.id()), bits(&y), fresh.clone()));
        assert_eq!(bits(&sys.estimate(&y).unwrap()), fresh);
        // The repeat is answered from the slot.
        plant(42.0);
        assert_eq!(sys.estimate(&y).unwrap(), Vector::filled(3, 42.0));
    }

    #[test]
    fn the_slot_is_keyed_by_system_id() {
        let first = tiny_system();
        let y = tiny_measurements(&first);
        let fresh = bits(&first.estimate(&y).unwrap());
        plant(42.0);
        // A clone keeps the id, so the slot may answer it.
        assert_eq!(first.clone().estimate(&y).unwrap(), Vector::filled(3, 42.0));
        // An identically built system has a new id and solves y itself.
        let second = tiny_system();
        assert_eq!(bits(&second.estimate(&y).unwrap()), fresh);
        assert_eq!(memo(), (Some(second.id()), bits(&y), fresh));
    }

    #[test]
    fn the_slot_compares_bits_not_values() {
        let sys = tiny_system();
        let y = Vector::from(vec![0.0, 1.0, 2.0, 3.0]);
        let mut signed = y.clone();
        signed[0] = -0.0;
        sys.estimate(&y).unwrap();
        plant(42.0);
        let solved = sys.estimate(&signed).unwrap();
        assert_eq!(bits(&solved), bits(&sys.solver.solve(&signed).unwrap()));
        assert_eq!(memo().1, bits(&signed));
    }

    #[test]
    fn a_new_thread_starts_with_an_empty_slot() {
        let sys = tiny_system();
        let y = tiny_measurements(&sys);
        let here = bits(&sys.estimate(&y).unwrap());
        plant(42.0);
        let there = std::thread::scope(|s| {
            s.spawn(|| {
                assert_eq!(memo(), (None, Vec::new(), Vec::new()));
                bits(&sys.estimate(&y).unwrap())
            })
            .join()
            .unwrap()
        });
        assert_eq!(there, here);
        // That thread's solve left this thread's slot alone.
        assert_eq!(memo().2, bits(&[42.0; 3]));
    }

    #[test]
    fn errors_and_column_builds_leave_the_slot_alone() {
        let sys = tiny_system();
        sys.estimate(&tiny_measurements(&sys)).unwrap();
        let kept = memo();
        assert!(matches!(
            sys.estimate(&Vector::zeros(3)),
            Err(CoreError::DimensionMismatch { .. })
        ));
        assert_eq!(memo(), kept);
        for i in 0..sys.num_paths() {
            sys.estimator_column(i).unwrap();
            sys.projector_column(i).unwrap();
        }
        assert_eq!(memo(), kept);
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
    fn build_routing_csr_empty() {
        assert_eq!(build_routing_csr(&[], 5).unwrap().shape(), (0, 5));
    }

    #[test]
    fn rank_deficiency_reports_the_exact_rank_above_a_million_cells() {
        // A line m0 - v - m1 - n3 - … - n1100 where only v is not a
        // monitor: links 0 and 1 appear only together, on m0 - v - m1,
        // and every other link has its own one-hop path. R is 1,099 ×
        // 1,100 (over 2²⁰ cells) with rank 1,099; the Gram's first
        // failing pivot would be index 1.
        let mut g = Graph::new();
        let nodes: Vec<NodeId> = (0..=1100).map(|i| g.add_node(format!("n{i}"))).collect();
        for w in nodes.windows(2) {
            g.add_link(w[0], w[1]).unwrap();
        }
        let mut paths = vec![Path::from_nodes(&g, &nodes[..3]).unwrap()];
        for w in nodes[2..].windows(2) {
            paths.push(Path::from_nodes(&g, w).unwrap());
        }
        let monitors: Vec<NodeId> = nodes.iter().copied().filter(|&n| n != nodes[1]).collect();
        assert!(paths.len() * g.num_links() > 1 << 20);
        let err = TomographySystem::new(g, monitors, paths).unwrap_err();
        assert!(matches!(
            err,
            CoreError::NotIdentifiable {
                rank: 1099,
                links: 1100
            }
        ));
    }

    #[test]
    fn csr_matches_dense_routing() {
        let sys = tiny_system();
        let stats = sys.sparsity_stats();
        assert_eq!(stats.nnz, 5); // paths cover 1 + 1 + 1 + 2 links
        assert!((stats.density - 5.0 / 12.0).abs() < 1e-15);
        // The sparse measurement path is bit-identical to the dense one.
        let x = Vector::from(vec![0.3, -1.7, 2.5]);
        let sparse = sys.measure(&x).unwrap();
        let dense = sys.routing_csr().to_dense().mul_vec(&x).unwrap();
        for (a, b) in sparse.iter().zip(dense.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
