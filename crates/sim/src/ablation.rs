//! Ablation: the **price of stealth**.
//!
//! Under a perfect cut an attacker can choose between the plain
//! damage-maximal LP (Eq. 4-7) and the stealthy variant that additionally
//! preserves measurement consistency (Theorem 3's undetectable branch).
//! Consistency constraints can only shrink the feasible region, so
//! stealth costs damage. This experiment quantifies that cost — a design
//! trade-off the paper implies but never measures.

use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use tomo_attack::attacker::AttackerSet;
use tomo_attack::cut::{analyze_cut, CutKind};
use tomo_attack::scenario::AttackScenario;
use tomo_attack::strategy;
use tomo_core::params;
use tomo_graph::LinkId;
use tomo_par::Executor;

use crate::topologies::{build_system, NetworkKind};
use crate::{report, SimError};

/// One perfect-cut instance's damage pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StealthTaxSample {
    /// Damage of the plain (detectable) attack.
    pub plain_damage: f64,
    /// Damage of the stealthy (undetectable) attack.
    pub stealthy_damage: f64,
}

impl StealthTaxSample {
    /// Relative damage given up for stealth, in `[0, 1]`.
    #[must_use]
    pub fn tax(&self) -> f64 {
        if self.plain_damage <= 0.0 {
            0.0
        } else {
            1.0 - self.stealthy_damage / self.plain_damage
        }
    }
}

/// Aggregated stealth-tax results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StealthTaxResult {
    /// Master seed.
    pub seed: u64,
    /// Per-instance samples.
    pub samples: Vec<StealthTaxSample>,
    /// Perfect-cut instances where even the stealthy LP failed
    /// (should be 0 — Theorem 1 guarantees feasibility).
    pub stealth_infeasible: usize,
}

impl StealthTaxResult {
    /// Mean relative tax over all samples (`None` if empty).
    #[must_use]
    pub fn mean_tax(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(
                self.samples.iter().map(StealthTaxSample::tax).sum::<f64>()
                    / self.samples.len() as f64,
            )
        }
    }
}

/// Runs the stealth-tax ablation: samples random (attackers, victim)
/// pairs on a wireline system until `target_samples` perfect-cut
/// instances have been measured with both LP variants. Only the system
/// build's placement runs on `exec`; the draws share one RNG stream.
///
/// # Errors
///
/// Returns [`SimError`] on substrate failure.
pub fn run_stealth_tax(
    seed: u64,
    target_samples: usize,
    exec: &Executor,
) -> Result<StealthTaxResult, SimError> {
    let _span = tomo_obs::span("sim.stealth-tax");
    let system = build_system(NetworkKind::Wireline, seed, exec)?;
    let delay_model = params::default_delay_model();
    let plain = AttackScenario::paper_defaults();
    let stealthy = AttackScenario::paper_defaults_stealthy();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x57ea17);

    let nodes: Vec<_> = system.graph().nodes().collect();
    let mut samples = Vec::new();
    let mut stealth_infeasible = 0usize;
    let mut budget = target_samples * 400; // draw budget

    while samples.len() < target_samples && budget > 0 {
        budget -= 1;
        let mut attackers_nodes = nodes.clone();
        attackers_nodes.shuffle(&mut rng);
        attackers_nodes.truncate(rng.gen_range(1..=3));
        let attackers = AttackerSet::new(&system, attackers_nodes)?;
        let candidates: Vec<LinkId> = (0..system.num_links())
            .map(LinkId)
            .filter(|&l| !attackers.controls_link(l))
            .collect();
        let Some(&victim) = candidates.as_slice().choose(&mut rng) else {
            continue;
        };
        if analyze_cut(&system, &attackers, &[victim]).kind != CutKind::Perfect {
            continue;
        }
        let x = delay_model.sample(system.num_links(), &mut rng);
        let plain_outcome = strategy::chosen_victim(&system, &attackers, &plain, &x, &[victim])?;
        let stealthy_outcome =
            strategy::chosen_victim(&system, &attackers, &stealthy, &x, &[victim])?;
        match (plain_outcome.success(), stealthy_outcome.success()) {
            (Some(p), Some(s)) => samples.push(StealthTaxSample {
                plain_damage: p.damage,
                stealthy_damage: s.damage,
            }),
            (Some(_), None) => stealth_infeasible += 1,
            _ => {}
        }
    }
    Ok(StealthTaxResult {
        seed,
        samples,
        stealth_infeasible,
    })
}

/// Renders the ablation summary.
#[must_use]
pub fn render_stealth_tax(result: &StealthTaxResult) -> String {
    let rows: Vec<(String, String)> = result
        .samples
        .iter()
        .enumerate()
        .map(|(i, s)| {
            (
                format!("instance {i}"),
                format!(
                    "{:>10.0} ms   {:>10.0} ms   {:>5.1}%",
                    s.plain_damage,
                    s.stealthy_damage,
                    s.tax() * 100.0
                ),
            )
        })
        .collect();
    let mut out = report::two_column_table(
        "Ablation — the price of stealth on perfect-cut victims",
        ("instance", "plain          stealthy       tax"),
        &rows,
    );
    if let Some(mean) = result.mean_tax() {
        out.push_str(&format!(
            "mean damage given up for undetectability: {:.1}% \
             (stealth infeasible: {})\n",
            mean * 100.0,
            result.stealth_infeasible
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stealth_never_exceeds_plain_damage() {
        let r = run_stealth_tax(3, 4, &Executor::from_env()).unwrap();
        assert!(!r.samples.is_empty(), "found no perfect-cut instances");
        for s in &r.samples {
            assert!(
                s.stealthy_damage <= s.plain_damage + 1e-6,
                "stealth {} > plain {}",
                s.stealthy_damage,
                s.plain_damage
            );
            assert!((0.0..=1.0 + 1e-9).contains(&s.tax()));
            assert!(s.stealthy_damage > 0.0);
        }
        // Theorem 1: stealth is feasible on every perfect cut.
        assert_eq!(r.stealth_infeasible, 0);
        assert!(r.mean_tax().is_some());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_stealth_tax(5, 2, &Executor::single_threaded()).unwrap();
        let b = run_stealth_tax(5, 2, &Executor::new(4)).unwrap();
        assert_eq!(a.samples, b.samples);
    }

    #[test]
    fn render_contains_summary() {
        let r = run_stealth_tax(3, 2, &Executor::from_env()).unwrap();
        let s = render_stealth_tax(&r);
        assert!(s.contains("price of stealth"));
        assert!(s.contains("mean damage"));
    }

    #[test]
    fn sample_tax_edge_cases() {
        let s = StealthTaxSample {
            plain_damage: 0.0,
            stealthy_damage: 0.0,
        };
        assert_eq!(s.tax(), 0.0);
        let s = StealthTaxSample {
            plain_damage: 100.0,
            stealthy_damage: 75.0,
        };
        assert!((s.tax() - 0.25).abs() < 1e-12);
        let empty = StealthTaxResult {
            seed: 0,
            samples: vec![],
            stealth_infeasible: 0,
        };
        assert_eq!(empty.mean_tax(), None);
    }
}
