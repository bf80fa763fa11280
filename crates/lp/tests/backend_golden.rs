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
//! That family's dense tableaux hold at most a few hundred cells, so a
//! second, capped family interleaved with the first under
//! `SolverMode::Dense` covers the large ones: 60–80 variables, all capped,
//! and 90–120 rows, so every standard form has at least 150 rows and its
//! tableau spans several storage blocks. A solve that reads one block's
//! cells from another, or a reused buffer that leaks one solve's cells
//! into the next, moves its digest.
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
/// Number of seeded LPs in the capped family.
const CAPPED_FAMILY: u64 = 40;
/// Digest of the capped family under `SolverMode::Dense`.
const CAPPED_DENSE_DIGEST: u64 = 0x15e9_6bed_a0d3_8980;

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

/// One seeded LP of the capped family, shaped like an attack LP: every
/// variable in `[lower, lower + cap]` with `lower` mostly 0, a unit
/// objective, and 90–120 sparse rows, mostly `Le`, whose coefficients
/// are estimator-like fractions or, on the half-integer lattice, small
/// half-integers. Each row's rhs is its value at a seeded point plus a
/// slack (zero on `Eq` rows and often on the others, so vertices are
/// degenerate). The point lies in the box for about 60% of the family
/// and partly outside it otherwise, so both verdicts occur. With the
/// upper-bound rows the standard form has at least 150 rows and 210
/// columns.
fn capped_lp(seed: u64) -> LpProblem {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5ca9_e60a_7000 + seed);
    let lattice = seed.is_multiple_of(2);
    let nvars = rng.gen_range(60..=80usize);
    let nrows = rng.gen_range(90..=120usize);
    let inside = rng.gen_bool(0.6);
    let mut lp = LpProblem::new(if rng.gen_bool(0.5) {
        Objective::Maximize
    } else {
        Objective::Minimize
    });
    let cap = draw(&mut rng, lattice, 1.0, 8.0);
    let mut point = Vec::with_capacity(nvars);
    let vars: Vec<VarId> = (0..nvars)
        .map(|_| {
            let lower = if rng.gen_bool(0.7) {
                0.0
            } else {
                draw(&mut rng, lattice, -2.0, 2.0)
            };
            let (lo, hi) = if inside {
                (lower, lower + cap)
            } else {
                (lower - cap, lower + 2.0 * cap)
            };
            point.push(draw(&mut rng, lattice, lo, hi));
            lp.add_variable(lower, Some(lower + cap)).unwrap()
        })
        .collect();
    for &v in &vars {
        if rng.gen_bool(0.9) {
            lp.set_objective_coefficient(v, 1.0);
        }
    }
    for _ in 0..nrows {
        let mut terms: Vec<(VarId, f64)> = Vec::new();
        let mut lhs = 0.0;
        for (&v, &x) in vars.iter().zip(&point) {
            if rng.gen_bool(0.12) {
                let a = if lattice {
                    f64::from(rng.gen_range(-4i32..=4)) / 2.0
                } else {
                    rng.gen_range(-1.0..1.0)
                };
                terms.push((v, a));
                lhs += a * x;
            }
        }
        let relation = match rng.gen_range(0..10) {
            0..=5 => Relation::Le,
            6..=8 => Relation::Ge,
            _ => Relation::Eq,
        };
        let slack = if relation == Relation::Eq || rng.gen_bool(0.3) {
            0.0
        } else {
            draw(&mut rng, lattice, 0.0, 3.0)
        };
        let rhs = match relation {
            Relation::Ge => lhs - slack,
            _ => lhs + slack,
        };
        lp.add_constraint(&terms, relation, rhs).unwrap();
    }
    lp
}

/// Outcome tallies of one backend's pass over a family.
#[derive(Debug, Default)]
struct Tally {
    optimal: usize,
    infeasible: usize,
    unbounded: usize,
    phase1: usize,
}

/// One family's running digest and tallies.
struct Digest {
    h: u64,
    tally: Tally,
}

impl Digest {
    fn new() -> Self {
        Digest {
            h: 0xcbf2_9ce4_8422_2325,
            tally: Tally::default(),
        }
    }

    /// Solves `lp` with `mode` and folds the outcome into the digest.
    fn solve(&mut self, lp: &LpProblem, mode: SolverMode, what: &str) {
        let pivots = tomo_obs::counter("lp.simplex.pivots");
        let iterations = tomo_obs::counter("lp.simplex.iterations");
        let rows = tomo_obs::counter("lp.simplex.rows");
        let phase1 = [
            tomo_obs::histogram("lp.simplex.phase1_objective.feasible"),
            tomo_obs::histogram("lp.simplex.phase1_objective.infeasible"),
        ];
        let phase1_count = || phase1.iter().map(|h| h.summary().count).sum::<u64>();
        let before = (pivots.get(), iterations.get(), rows.get(), phase1_count());
        let sol = lp
            .solve_with(mode)
            .unwrap_or_else(|e| panic!("{mode:?}, {what}: {e}"));
        let tally = &mut self.tally;
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
        let h = &mut self.h;
        fnv1a(h, [status, sol.objective_value().to_bits()]);
        fnv1a(h, sol.values().iter().map(|v| v.to_bits()));
        fnv1a(
            h,
            [
                pivots.get() - before.0,
                iterations.get() - before.1,
                rows.get() - before.2,
            ],
        );
    }
}

/// Solves the whole family with `mode` and returns its digest. With
/// `capped`, one capped LP follows every tenth LP of the family, on the
/// same thread, and the capped family gets a digest of its own.
fn family_digests(mode: SolverMode, capped: bool) -> (Digest, Digest) {
    let (mut family, mut large) = (Digest::new(), Digest::new());
    let stride = FAMILY / CAPPED_FAMILY;
    for seed in 0..FAMILY {
        family.solve(&random_lp(seed), mode, &format!("seed {seed}"));
        if capped && seed % stride == 0 {
            let k = seed / stride;
            large.solve(&capped_lp(k), mode, &format!("capped seed {k}"));
        }
    }
    (family, large)
}

#[test]
fn both_backends_match_their_golden_digests() {
    for (mode, want) in [
        (SolverMode::Dense, DENSE_DIGEST),
        (SolverMode::Revised, REVISED_DIGEST),
    ] {
        let capped = mode == SolverMode::Dense;
        let (family, large) = family_digests(mode, capped);
        let (got, tally) = (family.h, family.tally);
        assert!(
            tally.optimal >= 1 && tally.infeasible >= 1 && tally.unbounded >= 1,
            "{mode:?}: the family must hold every outcome, got {tally:?}"
        );
        assert!(
            tally.phase1 >= 1,
            "{mode:?}: no LP in the family ran phase 1"
        );
        assert_eq!(got, want, "{mode:?}: digest {got:#018x}, tally {tally:?}");
        if capped {
            let (got, tally) = (large.h, large.tally);
            assert!(
                tally.optimal >= 1 && tally.infeasible >= 1 && tally.unbounded == 0,
                "{mode:?}: the capped family must be bounded with both verdicts, got {tally:?}"
            );
            assert_eq!(
                got, CAPPED_DENSE_DIGEST,
                "{mode:?}: capped digest {got:#018x}, tally {tally:?}"
            );
        }
    }
}
