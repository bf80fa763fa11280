//! Seed-derived fault plans and per-trial fault decisions.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use tomo_obs::LazyCounter;

use crate::report::FaultKindCounts;
use crate::spec::FaultSpec;

static INJECTED: LazyCounter = LazyCounter::new("fault.injected");
static LOSS: LazyCounter = LazyCounter::new("fault.loss");
static CORRUPT: LazyCounter = LazyCounter::new("fault.corrupt");
static STALE: LazyCounter = LazyCounter::new("fault.stale");
static LINK_FAIL: LazyCounter = LazyCounter::new("fault.link_fail");
static LP_ITERATION: LazyCounter = LazyCounter::new("fault.lp.iteration");
static LP_SINGULAR: LazyCounter = LazyCounter::new("fault.lp.singular");
static FRAME_TRUNCATE: LazyCounter = LazyCounter::new("fault.frame.truncate");
static FRAME_GARBLE: LazyCounter = LazyCounter::new("fault.frame.garble");
static FRAME_DUPLICATE: LazyCounter = LazyCounter::new("fault.frame.duplicate");
static FRAME_REORDER: LazyCounter = LazyCounter::new("fault.frame.reorder");

/// Extra delay (ms) a failed link adds to every path crossing it —
/// far outside the paper's exponential delay model, as a hard failure
/// should be.
pub const LINK_FAILURE_DELAY_MS: f64 = 5000.0;

/// A solver-layer fault to arm before an LP solve.
///
/// Deliberately decoupled from `tomo-lp`: the caller maps these onto
/// `tomo_lp::chaos::SolveFault` so this crate stays dependency-free of
/// the solver stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverFaultKind {
    /// Force the simplex to report iteration exhaustion.
    IterationExhaustion,
    /// Make the attack LP report a singular basis.
    SingularBasis,
}

/// A wire-stream fault to apply to one outgoing frame.
///
/// Drawn by [`TrialFaults::frame_fault`]; the sender applies the fault
/// and the receiver's recovery path (quarantine, dedup, reassembly)
/// accounts for it, keeping `injected == handled + quarantined`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFaultKind {
    /// Cut the connection mid-frame: send all but the final byte, then
    /// close. The receiver sees an unexpected EOF inside a frame.
    Truncate,
    /// Flip the frame's type byte, producing an undecodable frame the
    /// receiver must quarantine.
    Garble,
    /// Send the frame twice; the receiver must deduplicate by batch id.
    Duplicate,
    /// Hold the frame and send it after its successor (swap with the
    /// next frame in the stream).
    Reorder,
}

/// A deterministic fault plan for one run (or one sweep point).
///
/// `plan.trial(i)` hands out an independent ChaCha8 stream seeded with
/// `derive_seed(plan_seed, i)` — the same discipline `tomo-par` uses for
/// trial randomness, so fault draws are identical no matter which worker
/// thread executes the trial or how trials are interleaved. The fault
/// stream is separate from the trial's own RNG stream: enabling the
/// fault layer at rate 0 perturbs nothing.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    spec: FaultSpec,
    seed: u64,
}

impl FaultPlan {
    /// Creates a plan drawing from `spec`'s rates, seeded by `seed`.
    #[must_use]
    pub fn new(spec: FaultSpec, seed: u64) -> Self {
        FaultPlan { spec, seed }
    }

    /// The spec this plan draws from.
    #[must_use]
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// A 64-bit digest identifying the fault stream of trial `index`:
    /// every spec rate, the plan seed, and the trial index, FNV-folded.
    ///
    /// Two trials share a digest exactly when [`FaultPlan::trial`] would
    /// hand them identical fault streams, so a digest recorded in a
    /// trace journal suffices to replay the trial's faults.
    #[must_use]
    pub fn trial_digest(&self, index: u64) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for v in [
            self.spec.loss,
            self.spec.corrupt,
            self.spec.stale,
            self.spec.link_fail,
            self.spec.lp_iter,
            self.spec.lp_singular,
            self.spec.frame,
        ] {
            h = (h ^ v.to_bits()).wrapping_mul(PRIME);
        }
        h = (h ^ self.seed).wrapping_mul(PRIME);
        (h ^ index).wrapping_mul(PRIME)
    }

    /// The fault decisions for trial `index`.
    #[must_use]
    pub fn trial(&self, index: u64) -> TrialFaults {
        TrialFaults {
            spec: self.spec,
            rng: ChaCha8Rng::seed_from_u64(tomo_par::derive_seed(self.seed, index)),
            injected: 0,
            by_kind: FaultKindCounts::default(),
        }
    }
}

/// Which rows of a measurement vector were touched by injection.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MeasurementFaults {
    /// Rows whose probes were lost — the caller must drop them from
    /// `R`/`y` before estimating.
    pub dropped: Vec<usize>,
    /// Rows overwritten with NaN / +∞ / an outlier spike.
    pub corrupted: Vec<usize>,
    /// Rows replaced with their pre-attack (stale) value.
    pub stale: Vec<usize>,
}

impl MeasurementFaults {
    /// `true` when no row was touched.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.dropped.is_empty() && self.corrupted.is_empty() && self.stale.is_empty()
    }
}

/// One trial's fault stream.
///
/// Draw methods must be called in the fixed, documented order —
/// [`solver_fault`](TrialFaults::solver_fault), then
/// [`link_failure`](TrialFaults::link_failure), then
/// [`inject_measurement`](TrialFaults::inject_measurement) — so the
/// stream positions (and therefore the injected faults) are reproducible
/// across reruns and thread counts.
#[derive(Debug, Clone)]
pub struct TrialFaults {
    spec: FaultSpec,
    rng: ChaCha8Rng,
    injected: u64,
    by_kind: FaultKindCounts,
}

impl TrialFaults {
    /// Draw 1: should this trial's LP solve be sabotaged?
    ///
    /// A single uniform draw splits `[0, lp_iter)` → iteration
    /// exhaustion, `[lp_iter, lp_iter + lp_singular)` → singular basis.
    pub fn solver_fault(&mut self) -> Option<SolverFaultKind> {
        if self.spec.lp_iter == 0.0 && self.spec.lp_singular == 0.0 {
            return None;
        }
        let u: f64 = self.rng.gen_range(0.0..1.0);
        if u < self.spec.lp_iter {
            self.record(InjectedKind::LpIteration);
            Some(SolverFaultKind::IterationExhaustion)
        } else if u < self.spec.lp_iter + self.spec.lp_singular {
            self.record(InjectedKind::LpSingular);
            Some(SolverFaultKind::SingularBasis)
        } else {
            None
        }
    }

    /// Draw 2: does a link fail mid-experiment?
    ///
    /// Returns the failed link's index; the caller adds
    /// [`LINK_FAILURE_DELAY_MS`] to that link's true delay *after* the
    /// attack was planned, so the attacker's manipulation was computed
    /// against a world that no longer exists.
    pub fn link_failure(&mut self, num_links: usize) -> Option<usize> {
        if self.spec.link_fail == 0.0 || num_links == 0 {
            return None;
        }
        let u: f64 = self.rng.gen_range(0.0..1.0);
        if u < self.spec.link_fail {
            let link = self.rng.gen_range(0..num_links);
            self.record(InjectedKind::LinkFail);
            Some(link)
        } else {
            None
        }
    }

    /// Draw 3: injects measurement-layer faults into `y` in place.
    ///
    /// Per row, one uniform draw picks at most one fault: probe loss
    /// (row recorded in `dropped`; the caller excises it), corruption
    /// (style sub-draw: NaN, +∞, or a spike `y·1000 + 10_000`), or a
    /// stale reading (`y[i] = y_clean[i]`, the pre-attack value).
    ///
    /// # Panics
    ///
    /// Panics if `y` and `y_clean` differ in length.
    pub fn inject_measurement(&mut self, y: &mut [f64], y_clean: &[f64]) -> MeasurementFaults {
        assert_eq!(
            y.len(),
            y_clean.len(),
            "inject_measurement: y and y_clean must have the same length"
        );
        let mut faults = MeasurementFaults::default();
        if self.spec.loss == 0.0 && self.spec.corrupt == 0.0 && self.spec.stale == 0.0 {
            return faults;
        }
        let (loss, corrupt, stale) = (self.spec.loss, self.spec.corrupt, self.spec.stale);
        for i in 0..y.len() {
            let u: f64 = self.rng.gen_range(0.0..1.0);
            if u < loss {
                faults.dropped.push(i);
                self.record(InjectedKind::Loss);
            } else if u < loss + corrupt {
                let style: u32 = self.rng.gen_range(0..3);
                y[i] = match style {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    _ => y[i] * 1000.0 + 10_000.0,
                };
                faults.corrupted.push(i);
                self.record(InjectedKind::Corrupt);
            } else if u < loss + corrupt + stale {
                y[i] = y_clean[i];
                faults.stale.push(i);
                self.record(InjectedKind::Stale);
            }
        }
        faults
    }

    /// Draw 4 (streaming only): should this outgoing wire frame be
    /// faulted, and how?
    ///
    /// One uniform draw decides *whether* (`u < frame` rate); a second
    /// sub-draw picks the kind uniformly. `can_reorder` is `false` when
    /// the frame is the last of its stream (nothing to swap with) — the
    /// reorder arm then degrades to a duplicate, so every recorded fault
    /// is actually exercised on the wire and the ledger stays balanced.
    ///
    /// Callers that never stream (batch solves) simply never call this,
    /// so existing draw sequences are unchanged.
    pub fn frame_fault(&mut self, can_reorder: bool) -> Option<FrameFaultKind> {
        if self.spec.frame == 0.0 {
            return None;
        }
        let u: f64 = self.rng.gen_range(0.0..1.0);
        if u >= self.spec.frame {
            return None;
        }
        let kind = match self.rng.gen_range(0..4u32) {
            0 => FrameFaultKind::Truncate,
            1 => FrameFaultKind::Garble,
            2 => FrameFaultKind::Duplicate,
            _ if can_reorder => FrameFaultKind::Reorder,
            _ => FrameFaultKind::Duplicate,
        };
        self.record(match kind {
            FrameFaultKind::Truncate => InjectedKind::FrameTruncate,
            FrameFaultKind::Garble => InjectedKind::FrameGarble,
            FrameFaultKind::Duplicate => InjectedKind::FrameDuplicate,
            FrameFaultKind::Reorder => InjectedKind::FrameReorder,
        });
        Some(kind)
    }

    /// Faults fired so far by this trial.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Per-kind breakdown of the faults fired so far.
    #[must_use]
    pub fn by_kind(&self) -> &FaultKindCounts {
        &self.by_kind
    }

    fn record(&mut self, kind: InjectedKind) {
        self.injected += 1;
        INJECTED.inc();
        match kind {
            InjectedKind::Loss => {
                self.by_kind.loss += 1;
                LOSS.inc();
            }
            InjectedKind::Corrupt => {
                self.by_kind.corrupt += 1;
                CORRUPT.inc();
            }
            InjectedKind::Stale => {
                self.by_kind.stale += 1;
                STALE.inc();
            }
            InjectedKind::LinkFail => {
                self.by_kind.link_fail += 1;
                LINK_FAIL.inc();
            }
            InjectedKind::LpIteration => {
                self.by_kind.lp_iteration += 1;
                LP_ITERATION.inc();
            }
            InjectedKind::LpSingular => {
                self.by_kind.lp_singular += 1;
                LP_SINGULAR.inc();
            }
            InjectedKind::FrameTruncate => {
                self.by_kind.frame_truncate += 1;
                FRAME_TRUNCATE.inc();
            }
            InjectedKind::FrameGarble => {
                self.by_kind.frame_garble += 1;
                FRAME_GARBLE.inc();
            }
            InjectedKind::FrameDuplicate => {
                self.by_kind.frame_duplicate += 1;
                FRAME_DUPLICATE.inc();
            }
            InjectedKind::FrameReorder => {
                self.by_kind.frame_reorder += 1;
                FRAME_REORDER.inc();
            }
        }
    }
}

#[derive(Clone, Copy)]
enum InjectedKind {
    Loss,
    Corrupt,
    Stale,
    LinkFail,
    LpIteration,
    LpSingular,
    FrameTruncate,
    FrameGarble,
    FrameDuplicate,
    FrameReorder,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_spec() -> FaultSpec {
        FaultSpec::parse("loss=0.3,corrupt=0.2,stale=0.2,link_fail=0.5,lp_iter=0.2,lp_singular=0.2")
            .unwrap()
    }

    // y is captured as raw bits so NaN corruption still compares equal
    // to itself across reruns.
    fn run_trial(
        plan: &FaultPlan,
        index: u64,
        rows: usize,
    ) -> (
        Option<SolverFaultKind>,
        Option<usize>,
        MeasurementFaults,
        Vec<u64>,
        u64,
    ) {
        let mut t = plan.trial(index);
        let solver = t.solver_fault();
        let link = t.link_failure(12);
        let clean: Vec<f64> = (0..rows).map(|i| 10.0 + i as f64).collect();
        let mut y: Vec<f64> = clean.iter().map(|v| v + 1.0).collect();
        let faults = t.inject_measurement(&mut y, &clean);
        let bits = y.iter().map(|v| v.to_bits()).collect();
        (solver, link, faults, bits, t.injected())
    }

    #[test]
    fn trial_digest_separates_plans_and_trials() {
        let plan = FaultPlan::new(busy_spec(), 42);
        // Stable per (plan, index)…
        assert_eq!(plan.trial_digest(3), plan.trial_digest(3));
        // …distinct across indices, seeds, and specs.
        assert_ne!(plan.trial_digest(3), plan.trial_digest(4));
        assert_ne!(
            plan.trial_digest(3),
            FaultPlan::new(busy_spec(), 43).trial_digest(3)
        );
        assert_ne!(
            plan.trial_digest(3),
            FaultPlan::new(FaultSpec::default(), 42).trial_digest(3)
        );
    }

    #[test]
    fn same_seed_same_decisions() {
        let plan = FaultPlan::new(busy_spec(), 42);
        for index in 0..32 {
            assert_eq!(run_trial(&plan, index, 40), run_trial(&plan, index, 40));
        }
    }

    #[test]
    fn trials_are_independent_streams() {
        let plan = FaultPlan::new(busy_spec(), 42);
        let a: Vec<_> = (0..16).map(|i| run_trial(&plan, i, 40)).collect();
        // Re-running trial 7 alone reproduces exactly trial 7's decisions.
        assert_eq!(run_trial(&plan, 7, 40), a[7].clone());
        // Different seeds diverge somewhere across the batch.
        let other = FaultPlan::new(busy_spec(), 43);
        let b: Vec<_> = (0..16).map(|i| run_trial(&other, i, 40)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn zero_rates_never_fire_and_never_draw() {
        let plan = FaultPlan::new(FaultSpec::default(), 42);
        let mut t = plan.trial(0);
        assert_eq!(t.solver_fault(), None);
        assert_eq!(t.link_failure(10), None);
        let clean = vec![1.0; 64];
        let mut y = vec![2.0; 64];
        let faults = t.inject_measurement(&mut y, &clean);
        assert!(faults.is_empty());
        assert_eq!(y, vec![2.0; 64]);
        assert_eq!(t.injected(), 0);
        assert_eq!(t.by_kind().total(), 0);
        // No draws were consumed: the stream is still at its origin.
        use rand::RngCore;
        let mut used = t.rng;
        let mut fresh = plan.trial(0).rng;
        assert_eq!(used.next_u64(), fresh.next_u64());
    }

    #[test]
    fn accounting_matches_observed_faults() {
        let plan = FaultPlan::new(busy_spec(), 7);
        let mut total = 0u64;
        let mut by = FaultKindCounts::default();
        for index in 0..64 {
            let (solver, link, faults, _, injected) = run_trial(&plan, index, 30);
            let expected = u64::from(solver.is_some())
                + u64::from(link.is_some())
                + (faults.dropped.len() + faults.corrupted.len() + faults.stale.len()) as u64;
            assert_eq!(injected, expected);
            total += injected;
            let mut t = plan.trial(index);
            let _ = t.solver_fault();
            let _ = t.link_failure(12);
            let clean: Vec<f64> = (0..30).map(|i| 10.0 + i as f64).collect();
            let mut y: Vec<f64> = clean.iter().map(|v| v + 1.0).collect();
            let _ = t.inject_measurement(&mut y, &clean);
            by.merge(t.by_kind());
        }
        assert!(total > 0, "busy spec over 64 trials should fire something");
        assert_eq!(by.total(), total);
        // Every kind at these rates should have fired at least once.
        assert!(by.loss > 0 && by.corrupt > 0 && by.stale > 0);
        assert!(by.link_fail > 0);
        assert!(by.lp_iteration > 0 && by.lp_singular > 0);
    }

    #[test]
    fn corruption_styles_all_appear() {
        let spec = FaultSpec::parse("corrupt=1").unwrap();
        let plan = FaultPlan::new(spec, 3);
        let (mut nan, mut inf, mut spike) = (0, 0, 0);
        for index in 0..8 {
            let mut t = plan.trial(index);
            let clean = vec![5.0; 16];
            let mut y = vec![7.0; 16];
            let faults = t.inject_measurement(&mut y, &clean);
            assert_eq!(faults.corrupted.len(), 16);
            for &i in &faults.corrupted {
                if y[i].is_nan() {
                    nan += 1;
                } else if y[i].is_infinite() {
                    inf += 1;
                } else {
                    assert_eq!(y[i], 7.0 * 1000.0 + 10_000.0);
                    spike += 1;
                }
            }
        }
        assert!(nan > 0 && inf > 0 && spike > 0);
    }

    #[test]
    fn stale_restores_clean_value() {
        let spec = FaultSpec::parse("stale=1").unwrap();
        let plan = FaultPlan::new(spec, 9);
        let mut t = plan.trial(0);
        let clean = vec![1.0, 2.0, 3.0];
        let mut y = vec![10.0, 20.0, 30.0];
        let faults = t.inject_measurement(&mut y, &clean);
        assert_eq!(faults.stale, vec![0, 1, 2]);
        assert_eq!(y, clean);
    }

    #[test]
    fn frame_faults_cover_all_kinds_and_account() {
        let spec = FaultSpec::parse("frame=1").unwrap();
        let plan = FaultPlan::new(spec, 21);
        let mut by = FaultKindCounts::default();
        let (mut tr, mut ga, mut du, mut re) = (0u64, 0u64, 0u64, 0u64);
        for index in 0..16 {
            let mut t = plan.trial(index);
            for frame in 0..8 {
                let kind = t.frame_fault(frame < 7).expect("rate 1 always fires");
                match kind {
                    FrameFaultKind::Truncate => tr += 1,
                    FrameFaultKind::Garble => ga += 1,
                    FrameFaultKind::Duplicate => du += 1,
                    FrameFaultKind::Reorder => re += 1,
                }
            }
            assert_eq!(t.injected(), 8);
            by.merge(t.by_kind());
        }
        assert!(tr > 0 && ga > 0 && du > 0 && re > 0);
        assert_eq!(by.frame_total(), 16 * 8);
        assert_eq!(by.frame_truncate, tr);
        assert_eq!(by.frame_garble, ga);
        assert_eq!(by.frame_duplicate, du);
        assert_eq!(by.frame_reorder, re);
    }

    #[test]
    fn last_frame_never_reorders() {
        let spec = FaultSpec::parse("frame=1").unwrap();
        let plan = FaultPlan::new(spec, 5);
        for index in 0..64 {
            let mut t = plan.trial(index);
            let kind = t.frame_fault(false).expect("rate 1 always fires");
            assert_ne!(kind, FrameFaultKind::Reorder);
        }
    }

    #[test]
    fn frame_zero_rate_never_draws() {
        let plan = FaultPlan::new(FaultSpec::default(), 42);
        let mut t = plan.trial(0);
        assert_eq!(t.frame_fault(true), None);
        assert_eq!(t.injected(), 0);
        use rand::RngCore;
        let mut used = t.rng;
        let mut fresh = plan.trial(0).rng;
        assert_eq!(used.next_u64(), fresh.next_u64());
    }

    #[test]
    fn link_failure_index_in_range() {
        let spec = FaultSpec::parse("link_fail=1").unwrap();
        let plan = FaultPlan::new(spec, 11);
        for index in 0..32 {
            let mut t = plan.trial(index);
            let _ = t.solver_fault();
            let link = t.link_failure(5).expect("rate 1 always fires");
            assert!(link < 5);
        }
        let mut t = plan.trial(0);
        let _ = t.solver_fault();
        assert_eq!(t.link_failure(0), None, "no links, no failure");
    }
}
