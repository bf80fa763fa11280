//! Property tests of the decomposition stack on random matrices.

use proptest::prelude::*;
use tomo_linalg::lu::{self, Lu};
use tomo_linalg::qr::Qr;
use tomo_linalg::{lstsq, rank, Matrix, Vector};

fn matrix_strategy(n: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec((-5..=5i32).prop_map(f64::from), n * n)
        .prop_map(move |data| Matrix::from_row_major(n, n, data).expect("sized"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// det(AB) = det(A)·det(B) whenever both factor.
    #[test]
    fn determinant_is_multiplicative(a in matrix_strategy(3), b in matrix_strategy(3)) {
        let (Ok(lu_a), Ok(lu_b)) = (Lu::new(&a), Lu::new(&b)) else {
            return Ok(()); // singular draw
        };
        let ab = a.mul_mat(&b).unwrap();
        if let Ok(lu_ab) = Lu::new(&ab) {
            let lhs = lu_ab.det();
            let rhs = lu_a.det() * lu_b.det();
            let scale = 1.0 + lhs.abs().max(rhs.abs());
            prop_assert!((lhs - rhs).abs() < 1e-6 * scale,
                "det(AB) {} vs det(A)det(B) {}", lhs, rhs);
        }
    }

    /// A·A⁻¹ = I for every invertible draw.
    #[test]
    fn inverse_roundtrip(a in matrix_strategy(4)) {
        if let Ok(inv) = lu::inverse(&a) {
            let prod = a.mul_mat(&inv).unwrap();
            prop_assert!(prod.approx_eq(&Matrix::identity(4), 1e-6));
        }
    }

    /// QR reconstructs A with an orthogonal Q, for any square draw
    /// (including singular ones).
    #[test]
    fn qr_always_reconstructs(a in matrix_strategy(4)) {
        let qr = Qr::new(&a);
        let q = qr.q();
        let qtq = q.transpose().mul_mat(&q).unwrap();
        prop_assert!(qtq.approx_eq(&Matrix::identity(4), 1e-8), "Q not orthogonal");
        let recon = q.mul_mat(&qr.r()).unwrap();
        prop_assert!(recon.approx_eq(&a, 1e-8), "QR does not reconstruct");
    }

    /// rank(A) == rank(Aᵀ) and is invariant under row scaling.
    #[test]
    fn rank_invariances(a in matrix_strategy(4)) {
        let r = rank::rank(&a);
        prop_assert_eq!(rank::rank(&a.transpose()), r);
        let scaled = &a * 3.0;
        prop_assert_eq!(rank::rank(&scaled), r);
        prop_assert!(r <= 4);
    }

    /// Least squares on an invertible square system equals the LU solve.
    #[test]
    fn lstsq_agrees_with_lu_on_square_systems(
        a in matrix_strategy(3),
        b in proptest::collection::vec(-10.0f64..10.0, 3),
    ) {
        let rhs = Vector::from(b);
        if let Ok(x_lu) = lu::solve(&a, &rhs) {
            // LU succeeded ⇒ full rank ⇒ QR least squares must agree.
            let x_qr = lstsq::solve(&a, &rhs).unwrap();
            // Tolerance scales with conditioning; skip wildly
            // ill-conditioned draws.
            if let Ok(k) = lu::condition_number_1(&a) {
                if k < 1e8 {
                    let tol = 1e-6 * k.max(1.0);
                    prop_assert!(x_qr.approx_eq(&x_lu, tol),
                        "qr {:?} vs lu {:?} (κ = {k})", x_qr, x_lu);
                }
            }
        }
    }
}
