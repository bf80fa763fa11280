//! Per-run fault accounting.

use serde::{Deserialize, Serialize};

/// Injected-fault counts broken down by kind.
///
/// Every field counts individual fault *events* (rows for the measurement
/// kinds, trials for `link_fail` and the solver kinds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultKindCounts {
    /// Probe-loss rows dropped from `R`/`y`.
    pub loss: u64,
    /// Corrupted measurement rows (NaN / +∞ / outlier spike).
    pub corrupt: u64,
    /// Stale measurement rows (pre-attack value replayed).
    pub stale: u64,
    /// Mid-experiment link failures.
    pub link_fail: u64,
    /// Forced simplex iteration exhaustions.
    pub lp_iteration: u64,
    /// Singular-basis injections.
    pub lp_singular: u64,
    /// Wire frames truncated mid-write (connection cut inside a frame).
    pub frame_truncate: u64,
    /// Wire frames garbled (frame type byte flipped).
    pub frame_garble: u64,
    /// Wire frames sent twice (receiver must deduplicate).
    pub frame_duplicate: u64,
    /// Wire frames delivered out of order (swapped with a successor).
    pub frame_reorder: u64,
}

impl FaultKindCounts {
    /// Sum over all kinds.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.loss
            + self.corrupt
            + self.stale
            + self.link_fail
            + self.lp_iteration
            + self.lp_singular
            + self.frame_truncate
            + self.frame_garble
            + self.frame_duplicate
            + self.frame_reorder
    }

    /// Sum over the wire-frame kinds only.
    #[must_use]
    pub fn frame_total(&self) -> u64 {
        self.frame_truncate + self.frame_garble + self.frame_duplicate + self.frame_reorder
    }

    /// Adds `other`'s counts into `self`.
    pub fn merge(&mut self, other: &FaultKindCounts) {
        self.loss += other.loss;
        self.corrupt += other.corrupt;
        self.stale += other.stale;
        self.link_fail += other.link_fail;
        self.lp_iteration += other.lp_iteration;
        self.lp_singular += other.lp_singular;
        self.frame_truncate += other.frame_truncate;
        self.frame_garble += other.frame_garble;
        self.frame_duplicate += other.frame_duplicate;
        self.frame_reorder += other.frame_reorder;
    }
}

/// The per-run fault ledger.
///
/// The accounting invariant is `injected == handled + quarantined`
/// ([`FaultReport::is_balanced`]): every fault the plan fired was either
/// absorbed by a degradation path (retry, ridge fallback, recorded trial
/// failure) or charged to a quarantined trial. Nothing leaks.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultReport {
    /// Total faults fired by the plan.
    pub injected: u64,
    /// Faults absorbed by a degradation path.
    pub handled: u64,
    /// Faults charged to trials that were quarantined.
    pub quarantined: u64,
    /// Trials abandoned after exhausting the retry budget.
    pub quarantined_trials: u64,
    /// Trials that needed at least one retry before completing.
    pub retried_trials: u64,
    /// Trials estimated through the degraded (row-loss) path.
    pub degraded_trials: u64,
    /// Degraded solves that fell back to ridge regularization.
    pub ridge_solves: u64,
    /// Links flagged unidentifiable across all degraded solves.
    pub unidentifiable_links: u64,
    /// Injected faults by kind.
    pub by_kind: FaultKindCounts,
}

impl FaultReport {
    /// `injected == handled + quarantined` — no fault unaccounted for.
    #[must_use]
    pub fn is_balanced(&self) -> bool {
        self.injected == self.handled + self.quarantined
    }

    /// Adds `other`'s ledger into `self`.
    pub fn merge(&mut self, other: &FaultReport) {
        self.injected += other.injected;
        self.handled += other.handled;
        self.quarantined += other.quarantined;
        self.quarantined_trials += other.quarantined_trials;
        self.retried_trials += other.retried_trials;
        self.degraded_trials += other.degraded_trials;
        self.ridge_solves += other.ridge_solves;
        self.unidentifiable_links += other.unidentifiable_links;
        self.by_kind.merge(&other.by_kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_accounting() {
        let mut r = FaultReport::default();
        assert!(r.is_balanced());
        r.injected = 5;
        r.handled = 3;
        assert!(!r.is_balanced());
        r.quarantined = 2;
        assert!(r.is_balanced());
    }

    #[test]
    fn merge_adds_everything() {
        let a = FaultReport {
            injected: 4,
            handled: 3,
            quarantined: 1,
            quarantined_trials: 1,
            retried_trials: 2,
            degraded_trials: 3,
            ridge_solves: 1,
            unidentifiable_links: 7,
            by_kind: FaultKindCounts {
                loss: 2,
                corrupt: 1,
                lp_iteration: 1,
                ..FaultKindCounts::default()
            },
        };
        let mut b = a.clone();
        b.merge(&a);
        assert_eq!(b.injected, 8);
        assert_eq!(b.handled, 6);
        assert_eq!(b.quarantined, 2);
        assert_eq!(b.by_kind.loss, 4);
        assert_eq!(b.by_kind.total(), 8);
        assert!(b.is_balanced());
    }

    #[test]
    fn frame_counts_feed_totals() {
        let mut a = FaultKindCounts {
            frame_truncate: 1,
            frame_garble: 2,
            frame_duplicate: 3,
            frame_reorder: 4,
            loss: 5,
            ..FaultKindCounts::default()
        };
        assert_eq!(a.frame_total(), 10);
        assert_eq!(a.total(), 15);
        let b = a;
        a.merge(&b);
        assert_eq!(a.frame_total(), 20);
        assert_eq!(a.frame_reorder, 8);
    }

    #[test]
    fn serde_round_trip() {
        let r = FaultReport {
            injected: 2,
            handled: 2,
            by_kind: FaultKindCounts {
                stale: 2,
                ..FaultKindCounts::default()
            },
            ..FaultReport::default()
        };
        let json = serde_json::to_string(&r).unwrap();
        let back: FaultReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
