//! Bit-exact parity between the CSR sparse kernels and their dense
//! counterparts on random paper topologies.
//!
//! The whole sparse layer rests on one claim (DESIGN.md §5d): for 0/1
//! routing matrices, `CsrMatrix` products are *bit-identical* to the
//! dense `Matrix` products — not merely close — because both sides add
//! the same nonzero terms in the same (ascending-column) order. That is
//! what lets `TomographySystem` swap CSR kernels into the measurement,
//! estimation, and detection paths without perturbing a single committed
//! artifact byte. These tests pin the claim on random Waxman, random
//! geometric (wireless), and ISP-like topologies.

use proptest::prelude::*;
use rand::Rng as _;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use scapegoat_tomography::graph::{isp, rgg, waxman};
use scapegoat_tomography::linalg::{CsrMatrix, Matrix, Vector};
use scapegoat_tomography::prelude::*;

/// Builds a monitor system on one of the paper's three topology families.
fn random_system(family: u8, seed: u64) -> TomographySystem {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let graph = match family % 3 {
        0 => {
            let config = waxman::WaxmanConfig {
                num_nodes: 24,
                ..waxman::WaxmanConfig::default()
            };
            waxman::generate(&config, &mut rng).unwrap()
        }
        1 => {
            let config = rgg::RggConfig {
                num_nodes: 24,
                ..rgg::RggConfig::default()
            };
            config.generate(&mut rng).unwrap().graph
        }
        _ => {
            let config = isp::IspConfig {
                backbone_nodes: 6,
                backbone_chords: 4,
                access_nodes: 14,
                multihoming_prob: 0.6,
            };
            isp::generate(&config, &mut rng).unwrap()
        }
    };
    random_placement(&graph, &PlacementConfig::default(), &mut rng).unwrap()
}

/// Asserts two vectors are equal to the last mantissa bit.
fn assert_bits_eq(a: &Vector, b: &Vector, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: component {i} differs ({x:e} vs {y:e})"
        );
    }
}

/// Asserts two matrices are equal to the last mantissa bit.
fn assert_matrix_bits_eq(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "{what}: shape");
    for r in 0..a.rows() {
        for c in 0..a.cols() {
            assert_eq!(
                a[(r, c)].to_bits(),
                b[(r, c)].to_bits(),
                "{what}: entry ({r}, {c}) differs"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `R_csr` and `R_dense` agree entry-for-entry, and the system's
    /// cached CSR equals the one rebuilt from the dense matrix.
    #[test]
    fn csr_reconstructs_dense_routing((family, seed) in (0u8..3, 0u64..1000)) {
        let system = random_system(family, seed);
        let dense = system.routing_csr().to_dense();
        let csr = system.routing_csr();
        assert_matrix_bits_eq(&csr.to_dense(), &dense, "to_dense");
        prop_assert!(*csr == CsrMatrix::from_dense(&dense));
    }

    /// `R x` (measurement direction) is bit-identical sparse vs dense.
    #[test]
    fn mul_vec_bit_identical((family, seed) in (0u8..3, 0u64..1000)) {
        let system = random_system(family, seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5a5a);
        // Mixed-sign, irregular magnitudes: worst case for accidental
        // cancellation differences between the two accumulation paths.
        let x = Vector::from(
            (0..system.num_links())
                .map(|_| rng.gen_range(-100.0..100.0))
                .collect::<Vec<_>>(),
        );
        let dense = system.routing_csr().to_dense().mul_vec(&x).unwrap();
        let sparse = system.routing_csr().mul_vec(&x).unwrap();
        assert_bits_eq(&sparse, &dense, "mul_vec");
    }

    /// `Rᵀ y` (adjoint direction) is bit-identical sparse vs dense.
    #[test]
    fn mul_transpose_vec_bit_identical((family, seed) in (0u8..3, 0u64..1000)) {
        let system = random_system(family, seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xa5a5);
        let y = Vector::from(
            (0..system.num_paths())
                .map(|_| rng.gen_range(-100.0..100.0))
                .collect::<Vec<_>>(),
        );
        let dense = system.routing_csr().to_dense().mul_transpose_vec(&y).unwrap();
        let sparse = system.routing_csr().mul_transpose_vec(&y).unwrap();
        assert_bits_eq(&sparse, &dense, "mul_transpose_vec");
    }

    /// The Gram matrix `RᵀR` of Eq. (2) is bit-identical sparse vs dense.
    #[test]
    fn gram_bit_identical((family, seed) in (0u8..3, 0u64..500)) {
        let system = random_system(family, seed);
        let dense = system.routing_csr().to_dense().gram();
        let sparse = system.routing_csr().gram();
        assert_matrix_bits_eq(&sparse, &dense, "gram");
    }

    /// The all-sparse Gram assembly (`gram_csr`, the Rocketfuel-scale
    /// kernel) agrees bit-for-bit with both the dense-output sparse
    /// `gram` and the fully dense product.
    #[test]
    fn gram_csr_bit_identical((family, seed) in (0u8..3, 0u64..500)) {
        let system = random_system(family, seed);
        let csr = system.routing_csr();
        let all_sparse = csr.gram_csr();
        assert_matrix_bits_eq(&all_sparse.to_dense(), &csr.gram(), "gram_csr vs gram");
        assert_matrix_bits_eq(
            &all_sparse.to_dense(),
            &system.routing_csr().to_dense().gram(),
            "gram_csr vs dense gram",
        );
        // Symmetry holds structurally, not just numerically.
        prop_assert!(all_sparse == all_sparse.transpose());
    }

    /// CSR transposition round-trips exactly and matches the dense
    /// transpose entry-for-entry.
    #[test]
    fn transpose_bit_identical((family, seed) in (0u8..3, 0u64..500)) {
        let system = random_system(family, seed);
        let csr = system.routing_csr();
        let t = csr.transpose();
        assert_matrix_bits_eq(&t.to_dense(), &system.routing_csr().to_dense().transpose(), "transpose");
        prop_assert!(t.transpose() == *csr, "double transpose is the identity");
        prop_assert_eq!(t.nnz(), csr.nnz());
    }
}
