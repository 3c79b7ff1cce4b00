//! Cross-algorithm consistency: independent routines must agree on shared
//! mathematical facts (the strongest correctness check a from-scratch
//! linear-algebra stack can run on itself).

use dtucker_linalg::cholesky::Cholesky;
use dtucker_linalg::eig::sym_eig;
use dtucker_linalg::gemm::{gram, matmul};
use dtucker_linalg::qr::lstsq;
use dtucker_linalg::random::gaussian_matrix;
use dtucker_linalg::svd::{pinv, svd_with, SvdAlgorithm};
use dtucker_linalg::svd_gr::svd_golub_reinsch;
use dtucker_linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
}

/// σᵢ(A)² = λᵢ(AᵀA): the SVD and the symmetric eigensolver must agree.
#[test]
fn singular_values_match_gram_eigenvalues() {
    for &(m, n, seed) in &[(10usize, 7usize, 1u64), (25, 25, 2), (8, 20, 3)] {
        let a = random(m, n, seed);
        let s = svd_with(&a, SvdAlgorithm::Jacobi).unwrap().s;
        let lam = sym_eig(&gram(&a)).unwrap().values; // ascending
        let t = m.min(n);
        for i in 0..t {
            let sig_sq = s[i] * s[i];
            let lam_i = lam[n - 1 - i].max(0.0);
            assert!(
                (sig_sq - lam_i).abs() < 1e-8 * (1.0 + sig_sq),
                "{m}x{n} i={i}: σ²={sig_sq} λ={lam_i}"
            );
        }
    }
}

/// Jacobi and Golub–Reinsch must produce the same spectrum and equivalent
/// subspaces.
#[test]
fn jacobi_and_golub_reinsch_agree() {
    for &(m, n, seed) in &[
        (12usize, 12usize, 4u64),
        (40, 15, 5),
        (15, 40, 6),
        (60, 60, 7),
    ] {
        let a = random(m, n, seed);
        let ja = svd_with(&a, SvdAlgorithm::Jacobi).unwrap();
        let gr = svd_golub_reinsch(&a).unwrap();
        for (x, y) in ja.s.iter().zip(gr.s.iter()) {
            assert!((x - y).abs() < 1e-8 * (1.0 + x), "{x} vs {y}");
        }
        // Same reconstruction.
        assert!(ja.reconstruct().approx_eq(&gr.reconstruct(), 1e-7));
    }
}

/// exp(log_det) from Cholesky must equal the product of eigenvalues for an
/// SPD A.
#[test]
fn determinants_agree_across_factorizations() {
    let mut rng = StdRng::seed_from_u64(8);
    let b = gaussian_matrix(9, 6, &mut rng);
    let mut spd = gram(&b);
    for i in 0..6 {
        let v = spd.get(i, i);
        spd.set(i, i, v + 0.5);
    }
    let eig_det: f64 = sym_eig(&spd).unwrap().values.iter().product();
    let chol_det = Cholesky::new(&spd).unwrap().log_det().exp();
    assert!(
        (eig_det - chol_det).abs() < 1e-8 * eig_det.abs().max(1.0),
        "{eig_det} vs {chol_det}"
    );
}

/// For full-rank overdetermined systems, the pseudo-inverse and QR least
/// squares give the same solution.
#[test]
fn solvers_agree() {
    let a = random(20, 6, 9);
    let b: Vec<f64> = (0..20).map(|i| (i as f64 * 0.37).sin()).collect();
    let x_qr = lstsq(&a, &b).unwrap();
    let p = pinv(&a, 1e-12).unwrap();
    let x_pinv = p.matvec(&b).unwrap();
    for (u, v) in x_qr.iter().zip(x_pinv.iter()) {
        assert!((u - v).abs() < 1e-8, "{u} vs {v}");
    }
}

/// The SVD's rank estimate recovers the rank of exact low-rank products.
#[test]
fn rank_estimates_consistent() {
    let mut rng = StdRng::seed_from_u64(11);
    for true_rank in [1usize, 3, 6] {
        let u = gaussian_matrix(18, true_rank, &mut rng);
        let v = gaussian_matrix(13, true_rank, &mut rng);
        let a = matmul(&u, &v.transpose());
        assert_eq!(
            svd_with(&a, SvdAlgorithm::Auto).unwrap().rank(1e-8),
            true_rank
        );
    }
}

/// Orthogonal invariance: multiplying by Q from a QR factorization must not
/// change singular values.
#[test]
fn svd_orthogonal_invariance() {
    let mut rng = StdRng::seed_from_u64(12);
    let a = random(14, 9, 13);
    let q = dtucker_linalg::qr::orthonormalize(&gaussian_matrix(14, 14, &mut rng));
    let qa = matmul(&q, &a);
    let s1 = svd_with(&a, SvdAlgorithm::Auto).unwrap().s;
    let s2 = svd_with(&qa, SvdAlgorithm::Auto).unwrap().s;
    for (x, y) in s1.iter().zip(s2.iter()) {
        assert!((x - y).abs() < 1e-9 * (1.0 + x));
    }
}
