//! Golden pin of the estimator columns every attack LP is built from.
//!
//! The attack LPs read `A = (RᵀR)⁻¹Rᵀ` and `P = R·A` only at the attacked
//! columns, so `TomographySystem` computes each column on first use:
//! `A[:, i]` is Eq. 2 applied to the unit vector `eᵢ`, `P[:, i]` is Eq. 1
//! applied to `A[:, i]`. These tests hash the raw bits of every column,
//! `A` then `P`, column by column, with FNV-1a and compare against
//! digests recorded from the dense operators the system used to cache
//! (a Cholesky solve per column of `Rᵀ` for `A`, the CSR product `R·A`
//! for `P`). Any change to the Gram factor, the solve or the measurement
//! kernel that moves one bit (zero signs included) of one column fails
//! here. The four systems cover the dense Cholesky factor (Fig. 1, the
//! seed-42 ISP and RGG placements) and the `SparseCholesky` factor (a
//! 607-link ISP system above `SPARSE_FACTOR_MIN_DIM`).
//!
//! The algebraic checks below pin what the columns mean on the same
//! systems: they reproduce `estimate`, left-invert `R`, and `P` is
//! idempotent.

mod common;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use common::large_isp_system;
use scapegoat_tomography::core::fig1::fig1_system;
use scapegoat_tomography::core::TomographySystem;
use scapegoat_tomography::linalg::lstsq::SPARSE_FACTOR_MIN_DIM;
use scapegoat_tomography::linalg::Vector;
use scapegoat_tomography::par::Executor;
use scapegoat_tomography::sim::topologies::{build_system, NetworkKind};

/// 64-bit FNV-1a over a stream of `u64` words (little-endian bytes).
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Digest of the raw bits of columns `0..|P|`, each read top to bottom.
fn column_digest<'s>(system: &'s TomographySystem, column: impl Fn(usize) -> &'s Vector) -> u64 {
    fnv1a((0..system.num_paths()).flat_map(|i| column(i).iter().map(|v| v.to_bits())))
}

/// `(name, system, links, paths, A digest, P digest)` for each pinned
/// system.
fn pinned_systems() -> Vec<(&'static str, TomographySystem, usize, usize, u64, u64)> {
    vec![
        (
            "fig1",
            fig1_system().unwrap(),
            10,
            23,
            0xf16c_1bcb_5d87_c885,
            0x11fa_a664_ff18_e1f4,
        ),
        (
            "wireline seed 42",
            build_system(NetworkKind::Wireline, 42, &Executor::from_env()).unwrap(),
            153,
            229,
            0x712c_1459_49a8_66e7,
            0x9a86_7f64_810e_1dc4,
        ),
        (
            "wireless seed 42",
            build_system(NetworkKind::Wireless, 42, &Executor::from_env()).unwrap(),
            222,
            333,
            0xa54a_4abf_0b41_ed25,
            0xaa1d_d58c_b451_d5c0,
        ),
        (
            "large ISP",
            large_isp_system(),
            607,
            907,
            0x81d1_3d51_5c03_0b74,
            0xcefa_8457_0faf_389b,
        ),
    ]
}

#[test]
fn estimator_and_projector_columns_are_pinned() {
    let systems = pinned_systems();
    assert!(
        systems.iter().any(|s| s.2 >= SPARSE_FACTOR_MIN_DIM),
        "no pinned system reaches the sparse factor"
    );
    let mut mismatches = Vec::new();
    for (name, system, links, paths, a_pin, p_pin) in systems {
        let got = (
            system.num_links(),
            system.num_paths(),
            column_digest(&system, |i| system.estimator_column(i).unwrap()),
            column_digest(&system, |i| system.projector_column(i).unwrap()),
        );
        if got != (links, paths, a_pin, p_pin) {
            mismatches.push(format!(
                "{name}: got ({}, {}, {:#018x}, {:#018x}), \
                 pinned ({links}, {paths}, {a_pin:#018x}, {p_pin:#018x})",
                got.0, got.1, got.2, got.3
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// `Σᵢ yᵢ·A[:, i] = estimate(y)`, and `A·R = I` checked column by column:
/// the paths crossing link `l` sum to the unit vector `e_l`.
#[test]
fn estimator_columns_reproduce_estimates_and_left_invert_r() {
    for (name, system, ..) in pinned_systems() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xa11);
        let y: Vector = (0..system.num_paths())
            .map(|_| rng.gen_range(0.0..100.0))
            .collect();
        let mut via_columns = Vector::zeros(system.num_links());
        for (i, &yi) in y.iter().enumerate() {
            via_columns = via_columns
                .axpy(yi, system.estimator_column(i).unwrap())
                .unwrap();
        }
        let tol = 1e-8 * (1.0 + via_columns.iter().fold(0.0f64, |m, v| m.max(v.abs())));
        assert!(
            via_columns.approx_eq(&system.estimate(&y).unwrap(), tol),
            "{name}: columns disagree with estimate"
        );

        let crossing = system.routing_csr().transpose();
        for l in 0..system.num_links() {
            let mut ar_col = Vector::zeros(system.num_links());
            for (i, r) in crossing.row_iter(l) {
                ar_col = ar_col.axpy(r, system.estimator_column(i).unwrap()).unwrap();
            }
            let mut unit = Vector::zeros(system.num_links());
            unit[l] = 1.0;
            assert!(
                ar_col.approx_eq(&unit, 1e-9),
                "{name}: (A·R)[:, {l}] ≠ e_{l}"
            );
        }
    }
}

/// `P·P[:, i] = P[:, i]` for every column: the projector is idempotent.
#[test]
fn projector_columns_are_idempotent() {
    for (name, system, ..) in pinned_systems() {
        for i in 0..system.num_paths() {
            let p_i = system.projector_column(i).unwrap();
            let mut pp = Vector::zeros(system.num_paths());
            for (k, &pki) in p_i.iter().enumerate() {
                if pki != 0.0 {
                    pp = pp.axpy(pki, system.projector_column(k).unwrap()).unwrap();
                }
            }
            assert!(pp.approx_eq(p_i, 1e-9), "{name}: (P·P)[:, {i}] ≠ P[:, {i}]");
        }
    }
}
