//! Golden digests of both simplex backends on a seeded LP family.
//!
//! The attack LPs the figures solve all have lower bound 0 and all run
//! on the dense tableau, so the artifact and counter pins never see the
//! lower-bound shift, the `Ge`/`Eq` rhs-sign flips or the revised
//! backend's phase 1. This test solves a seeded family that does — 2–12
//! variables with shifted lower bounds and optional upper bounds, 1–10
//! rows of every relation with rhs of both signs, duplicated `Eq` rows,
//! both objective directions, half of it on a half-integer lattice where
//! ratio-test ties are common — under `SolverMode::Dense` and under
//! `SolverMode::Revised`, and folds each backend's results into one
//! FNV-1a digest: the status, the objective's bits, every value's bits,
//! and the `lp.simplex.{pivots, iterations, rows}` deltas of the solve.
//! A change to the standard form, a decision rule or either backend's
//! arithmetic that moves one bit or one pivot fails here.
//!
//! The counters are process-wide, so this binary must hold this one test.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use tomo_lp::{LpProblem, LpStatus, Objective, Relation, SolverMode, VarId};

/// Number of seeded LPs in the family.
const FAMILY: u64 = 400;
/// Digest of the family under `SolverMode::Dense`.
const DENSE_DIGEST: u64 = 0xa116_238b_15b3_9255;
/// Digest of the family under `SolverMode::Revised`.
const REVISED_DIGEST: u64 = 0x99ea_21d2_f16e_8735;

/// 64-bit FNV-1a over a stream of `u64` words (little-endian bytes).
fn fnv1a(h: &mut u64, words: impl IntoIterator<Item = u64>) {
    for w in words {
        for b in w.to_le_bytes() {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Draws a bound or an rhs from `U(lo, hi)`, or, on a lattice LP,
/// uniformly from the half-integers in `[lo, hi]`.
fn draw(rng: &mut ChaCha8Rng, lattice: bool, lo: f64, hi: f64) -> f64 {
    if lattice {
        f64::from(rng.gen_range((2.0 * lo) as i32..=(2.0 * hi) as i32)) / 2.0
    } else {
        rng.gen_range(lo..hi)
    }
}

/// One seeded LP of the family. Half the family sits on a half-integer
/// lattice, where degenerate vertices, and so ratio-test ties, are
/// common; the other half draws its bounds and rhs from continuous
/// ranges, where the lower-bound shift rounds.
fn random_lp(seed: u64) -> LpProblem {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let lattice = seed.is_multiple_of(2);
    let nvars = rng.gen_range(2..=12usize);
    let nrows = rng.gen_range(1..=10usize);
    let mut lp = LpProblem::new(if rng.gen_bool(0.5) {
        Objective::Maximize
    } else {
        Objective::Minimize
    });
    let vars: Vec<VarId> = (0..nvars)
        .map(|_| {
            let lower = if rng.gen_bool(0.5) {
                0.0
            } else {
                draw(&mut rng, lattice, -3.0, 2.0)
            };
            let upper = rng
                .gen_bool(0.6)
                .then(|| lower + draw(&mut rng, lattice, 0.0, 6.0));
            lp.add_variable(lower, upper).unwrap()
        })
        .collect();
    for &v in &vars {
        if rng.gen_bool(0.8) {
            lp.set_objective_coefficient(v, rng.gen_range(-3.0..3.0));
        }
    }
    for _ in 0..nrows {
        let mut terms: Vec<(VarId, f64)> = Vec::new();
        for &v in &vars {
            if rng.gen_bool(0.5) {
                terms.push((v, f64::from(rng.gen_range(-3i32..=3))));
            }
        }
        let relation = match rng.gen_range(0..10) {
            0..=4 => Relation::Le,
            5..=7 => Relation::Ge,
            _ => Relation::Eq,
        };
        let rhs = draw(&mut rng, lattice, -6.0, 6.0);
        lp.add_constraint(&terms, relation, rhs).unwrap();
        if relation == Relation::Eq && rng.gen_bool(0.3) {
            let scale = f64::from(rng.gen_range(1i32..=2));
            let doubled: Vec<(VarId, f64)> = terms.iter().map(|&(v, a)| (v, scale * a)).collect();
            lp.add_constraint(&doubled, Relation::Eq, scale * rhs)
                .unwrap();
        }
    }
    lp
}

/// Outcome tallies of one backend's pass over the family.
#[derive(Debug, Default)]
struct Tally {
    optimal: usize,
    infeasible: usize,
    unbounded: usize,
    phase1: usize,
}

/// Solves the whole family with `mode` and returns its digest.
fn family_digest(mode: SolverMode) -> (u64, Tally) {
    let pivots = tomo_obs::counter("lp.simplex.pivots");
    let iterations = tomo_obs::counter("lp.simplex.iterations");
    let rows = tomo_obs::counter("lp.simplex.rows");
    let phase1 = [
        tomo_obs::histogram("lp.simplex.phase1_objective.feasible"),
        tomo_obs::histogram("lp.simplex.phase1_objective.infeasible"),
    ];
    let phase1_count = || phase1.iter().map(|h| h.summary().count).sum::<u64>();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut tally = Tally::default();
    for seed in 0..FAMILY {
        let lp = random_lp(seed);
        let before = (pivots.get(), iterations.get(), rows.get(), phase1_count());
        let sol = lp
            .solve_with(mode)
            .unwrap_or_else(|e| panic!("{mode:?}, seed {seed}: {e}"));
        let status = match sol.status() {
            LpStatus::Optimal => {
                tally.optimal += 1;
                0
            }
            LpStatus::Infeasible => {
                tally.infeasible += 1;
                1
            }
            LpStatus::Unbounded => {
                tally.unbounded += 1;
                2
            }
        };
        if phase1_count() > before.3 {
            tally.phase1 += 1;
        }
        fnv1a(&mut h, [status, sol.objective_value().to_bits()]);
        fnv1a(&mut h, sol.values().iter().map(|v| v.to_bits()));
        fnv1a(
            &mut h,
            [
                pivots.get() - before.0,
                iterations.get() - before.1,
                rows.get() - before.2,
            ],
        );
    }
    (h, tally)
}

#[test]
fn both_backends_match_their_golden_digests() {
    for (mode, want) in [
        (SolverMode::Dense, DENSE_DIGEST),
        (SolverMode::Revised, REVISED_DIGEST),
    ] {
        let (got, tally) = family_digest(mode);
        assert!(
            tally.optimal >= 1 && tally.infeasible >= 1 && tally.unbounded >= 1,
            "{mode:?}: the family must hold every outcome, got {tally:?}"
        );
        assert!(
            tally.phase1 >= 1,
            "{mode:?}: no LP in the family ran phase 1"
        );
        assert_eq!(got, want, "{mode:?}: digest {got:#018x}, tally {tally:?}");
    }
}
