//! Property-based tests for the linear-algebra substrate.

use dtucker_linalg::gemm::{gram, matmul, matmul_t, t_matmul};
use dtucker_linalg::qr::qr_thin;
use dtucker_linalg::svd::svd;
use dtucker_linalg::Matrix;
use proptest::prelude::*;

/// Strategy: a matrix with dims in [1, 12] and entries in [-10, 10].
fn matrix_strategy() -> impl Strategy<Value = Matrix> {
    (1usize..=12, 1usize..=12).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f64..10.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data).unwrap())
    })
}

/// Strategy: a pair (A, B) with compatible inner dimensions.
fn matmul_pair() -> impl Strategy<Value = (Matrix, Matrix)> {
    (1usize..=10, 1usize..=10, 1usize..=10).prop_flat_map(|(m, n, p)| {
        let a = proptest::collection::vec(-5.0f64..5.0, m * n)
            .prop_map(move |d| Matrix::from_vec(m, n, d).unwrap());
        let b = proptest::collection::vec(-5.0f64..5.0, n * p)
            .prop_map(move |d| Matrix::from_vec(n, p, d).unwrap());
        (a, b)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_is_involution(a in matrix_strategy()) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matmul_associates_with_transpose((a, b) in matmul_pair()) {
        // (AB)ᵀ = Bᵀ Aᵀ
        let ab_t = matmul(&a, &b).transpose();
        let bt_at = matmul(&b.transpose(), &a.transpose());
        prop_assert!(ab_t.approx_eq(&bt_at, 1e-9));
    }

    #[test]
    fn gemm_variants_agree((a, b) in matmul_pair()) {
        let reference = matmul(&a, &b);
        prop_assert!(t_matmul(&a.transpose(), &b).approx_eq(&reference, 1e-9));
        prop_assert!(matmul_t(&a, &b.transpose()).approx_eq(&reference, 1e-9));
    }

    #[test]
    fn gram_is_symmetric_psd_diag(a in matrix_strategy()) {
        let g = gram(&a);
        for i in 0..g.rows() {
            prop_assert!(g.get(i, i) >= -1e-12);
            for j in 0..g.cols() {
                prop_assert!((g.get(i, j) - g.get(j, i)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn qr_reconstructs_and_q_orthonormal(a in matrix_strategy()) {
        let f = qr_thin(&a);
        let rec = matmul(&f.q, &f.r);
        prop_assert!(rec.approx_eq(&a, 1e-8 * (1.0 + a.max_abs())));
        prop_assert!(f.q.has_orthonormal_cols(1e-8));
    }

    #[test]
    fn svd_reconstructs(a in matrix_strategy()) {
        let d = svd(&a).unwrap();
        let rec = d.reconstruct();
        prop_assert!(rec.approx_eq(&a, 1e-7 * (1.0 + a.max_abs())));
        // Descending non-negative spectrum.
        for w in d.s.windows(2) {
            prop_assert!(w[0] + 1e-12 >= w[1]);
        }
        prop_assert!(d.s.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn svd_largest_value_bounds_spectral_action(a in matrix_strategy()) {
        // ‖A x‖ ≤ σ₁ ‖x‖ for the all-ones vector.
        let d = svd(&a).unwrap();
        let x = vec![1.0; a.cols()];
        let ax = a.matvec(&x).unwrap();
        let lhs = dtucker_linalg::norms::fro_norm(&ax);
        let rhs = d.s.first().copied().unwrap_or(0.0)
            * dtucker_linalg::norms::fro_norm(&x);
        prop_assert!(lhs <= rhs + 1e-7 * (1.0 + rhs));
    }

    #[test]
    fn packed_gemm_matches_naive_at_awkward_shapes(
        mi in 0usize..8, ni in 0usize..8, pi in 0usize..8, seed in any::<u64>()
    ) {
        use rand::{Rng, SeedableRng};
        // Dimensions chosen to stress the packed kernel's edges: unit dims
        // (1×n / n×1 products), sizes just off the 4×8 register tile and
        // the 256-wide packing block, and tall/wide aspect ratios.
        const DIMS: [usize; 8] = [1, 2, 3, 4, 5, 9, 31, 257];
        let (m, n, p) = (DIMS[mi], DIMS[ni], DIMS[pi]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Matrix::from_fn(m, n, |_, _| rng.gen_range(-2.0..2.0));
        let b = Matrix::from_fn(n, p, |_, _| rng.gen_range(-2.0..2.0));

        // Naive triple loop in the same (k-inner) accumulation order.
        let mut want = Matrix::zeros(m, p);
        for i in 0..m {
            for j in 0..p {
                let mut acc = 0.0;
                for k in 0..n {
                    acc += a.get(i, k) * b.get(k, j);
                }
                want.set(i, j, acc);
            }
        }
        let got = matmul(&a, &b);
        prop_assert!(got.approx_eq(&want, 1e-12 * (n as f64 + 1.0)));
        prop_assert!(t_matmul(&a.transpose(), &b).approx_eq(&want, 1e-12 * (n as f64 + 1.0)));
        prop_assert!(matmul_t(&a, &b.transpose()).approx_eq(&want, 1e-12 * (n as f64 + 1.0)));
    }

    #[test]
    fn threaded_gemm_is_bitwise_serial_at_awkward_shapes(
        mi in 0usize..6, pi in 0usize..6, nthreads in 2usize..=6, seed in any::<u64>()
    ) {
        use dtucker_linalg::gemm::matmul_into_threaded;
        use rand::{Rng, SeedableRng};
        const DIMS: [usize; 6] = [1, 3, 4, 5, 9, 130];
        let (m, p) = (DIMS[mi], DIMS[pi]);
        let n = 33;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a: Vec<f64> = (0..m * n).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let b: Vec<f64> = (0..n * p).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let mut serial = vec![0.0; m * p];
        let mut threaded = vec![0.0; m * p];
        matmul_into_threaded(&a, &b, &mut serial, m, n, p, 1);
        matmul_into_threaded(&a, &b, &mut threaded, m, n, p, nthreads);
        for (x, y) in serial.iter().zip(threaded.iter()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

/// Strategy: finite data with 1–3 non-finite values (NaN, ±∞) spliced in
/// at pseudo-random positions.
fn vec_with_nonfinite() -> impl Strategy<Value = Vec<f64>> {
    (
        proptest::collection::vec(-10.0f64..10.0, 1..48),
        proptest::collection::vec(
            prop_oneof![Just(f64::NAN), Just(f64::INFINITY), Just(f64::NEG_INFINITY)],
            1..=3,
        ),
        any::<u64>(),
    )
        .prop_map(|(mut v, bad, seed)| {
            for (k, b) in bad.into_iter().enumerate() {
                let pos = (seed as usize).wrapping_add(k.wrapping_mul(7919)) % (v.len() + 1);
                v.insert(pos, b);
            }
            v
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A single NaN or ±∞ anywhere in the stream must surface as a
    /// non-finite norm — the scaled accumulator must never launder it
    /// into a finite number.
    #[test]
    fn fro_accumulator_propagates_nonfinite(v in vec_with_nonfinite(), chunk in 1usize..8) {
        use dtucker_linalg::norms::FroNormAccumulator;
        let mut acc = FroNormAccumulator::new();
        for c in v.chunks(chunk) {
            acc.push_slice(c);
        }
        prop_assert!(!acc.norm().is_finite(), "norm {} from {v:?}", acc.norm());
        prop_assert!(!acc.norm_sq().is_finite());
    }

    /// Conversely, finite input keeps the accumulator finite even when
    /// naive squaring would overflow.
    #[test]
    fn fro_accumulator_finite_on_finite(v in proptest::collection::vec(-1e200f64..1e200, 0..48)) {
        use dtucker_linalg::norms::FroNormAccumulator;
        let mut acc = FroNormAccumulator::new();
        acc.push_slice(&v);
        prop_assert!(acc.norm().is_finite(), "norm {} from {v:?}", acc.norm());
    }
}
