//! Randomized SVD (Halko–Martinsson–Tropp).
//!
//! This is the compression kernel of D-Tucker's approximation phase: each
//! frontal slice is compressed with `rsvd(slice, J, oversample, power_iters)`.

use crate::error::{LinalgError, Result};
use crate::gemm::{matmul, matmul_t, t_matmul};
use crate::matrix::Matrix;
use crate::qr::orthonormalize;
use crate::random::gaussian_matrix;
use crate::svd::{svd, Svd};
use rand::Rng;

/// Configuration for the randomized range finder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RsvdConfig {
    /// Target rank `k` of the truncated SVD.
    pub rank: usize,
    /// Extra columns sampled beyond `rank` (typically 5–10).
    pub oversample: usize,
    /// Power (subspace) iterations; 1–2 sharpen spectra with slow decay.
    pub power_iters: usize,
}

impl RsvdConfig {
    /// A sensible default: oversampling 5, one power iteration.
    pub fn new(rank: usize) -> Self {
        RsvdConfig {
            rank,
            oversample: 5,
            power_iters: 1,
        }
    }
}

/// Computes a rank-`cfg.rank` randomized SVD of `a`.
///
/// Returns `U ∈ R^{m×k}`, `s ∈ R^k`, `V ∈ R^{n×k}` with `k = min(rank,
/// min(m, n))`. With high probability the approximation error is within a
/// small factor of the optimal rank-`k` error (Halko et al. 2011, Thm 10.6).
pub fn rsvd<R: Rng + ?Sized>(a: &Matrix, cfg: RsvdConfig, rng: &mut R) -> Result<Svd> {
    let (m, n) = a.shape();
    if cfg.rank == 0 {
        return Err(LinalgError::InvalidArgument {
            op: "rsvd",
            details: "rank must be ≥ 1".into(),
        });
    }
    if m == 0 || n == 0 {
        return Ok(Svd {
            u: Matrix::zeros(m, 0),
            s: vec![],
            v: Matrix::zeros(n, 0),
        });
    }
    let k = cfg.rank.min(m.min(n));
    let l = (cfg.rank + cfg.oversample).min(m.min(n));

    // Stage A: find an orthonormal basis Q for the approximate range of A.
    let omega = gaussian_matrix(n, l, rng);
    let mut q = orthonormalize(&matmul(a, &omega));
    for _ in 0..cfg.power_iters {
        // Subspace iteration with re-orthonormalization at each half-step
        // for numerical stability.
        let z = orthonormalize(&t_matmul(a, &q)); // Aᵀ Q
        q = orthonormalize(&matmul(a, &z));
    }

    // Stage B: B = Qᵀ A is small (l × n); take its exact SVD.
    let b = t_matmul(&q, a);
    let inner = svd(&b)?;
    let u = matmul(&q, &inner.u);
    Ok(Svd {
        u,
        s: inner.s,
        v: inner.v,
    }
    .truncate(k))
}

/// Randomized range finder only: an orthonormal `m × l` basis `Q` with
/// `‖A − QQᵀA‖` close to the optimal rank-`l` error.
pub fn randomized_range_finder<R: Rng + ?Sized>(
    a: &Matrix,
    l: usize,
    power_iters: usize,
    rng: &mut R,
) -> Matrix {
    let (_, n) = a.shape();
    let l = l.min(a.rows().min(n)).max(1);
    let omega = gaussian_matrix(n, l, rng);
    let mut q = orthonormalize(&matmul(a, &omega));
    for _ in 0..power_iters {
        let z = orthonormalize(&t_matmul(a, &q));
        q = orthonormalize(&matmul(a, &z));
    }
    q
}

/// Error of the rank-`k` approximation produced by an SVD against the
/// original matrix: `‖A − U diag(s) Vᵀ‖_F / ‖A‖_F`.
pub fn relative_error(a: &Matrix, d: &Svd) -> f64 {
    let us = crate::svd::scale_cols(&d.u, &d.s);
    let rec = matmul_t(&us, &d.v);
    // `rec` reconstructs `a`'s exact shape; a mismatch means the SVD does
    // not belong to `a`, and NaN is the honest answer for that.
    let Ok(diff) = rec.sub(a) else {
        return f64::NAN;
    };
    let denom = a.fro_norm();
    if denom == 0.0 {
        0.0
    } else {
        diff.fro_norm() / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Matrix with exactly known singular spectrum.
    fn spectrum_matrix(m: usize, n: usize, spectrum: &[f64], seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = spectrum.len();
        let u = orthonormalize(&gaussian_matrix(m, k, &mut rng));
        let v = orthonormalize(&gaussian_matrix(n, k, &mut rng));
        let us = crate::svd::scale_cols(&u, spectrum);
        matmul_t(&us, &v)
    }

    #[test]
    fn rsvd_exact_on_low_rank() {
        let spectrum = [10.0, 5.0, 1.0];
        let a = spectrum_matrix(40, 30, &spectrum, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let d = rsvd(&a, RsvdConfig::new(3), &mut rng).unwrap();
        assert_eq!(d.s.len(), 3);
        for (got, want) in d.s.iter().zip(spectrum.iter()) {
            assert!((got - want).abs() < 1e-8, "σ {} vs {}", got, want);
        }
        assert!(relative_error(&a, &d) < 1e-8);
        assert!(d.u.has_orthonormal_cols(1e-8));
        assert!(d.v.has_orthonormal_cols(1e-8));
    }

    #[test]
    fn rsvd_near_optimal_on_decaying_spectrum() {
        // Geometric decay: rank-5 captures almost everything.
        let spectrum: Vec<f64> = (0..20).map(|i| 2.0f64.powi(-i)).collect();
        let a = spectrum_matrix(60, 50, &spectrum, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let d = rsvd(
            &a,
            RsvdConfig {
                rank: 5,
                oversample: 8,
                power_iters: 2,
            },
            &mut rng,
        )
        .unwrap();
        let opt: f64 = spectrum[5..].iter().map(|&x| x * x).sum::<f64>().sqrt();
        let total: f64 = spectrum.iter().map(|&x| x * x).sum::<f64>().sqrt();
        let rel = relative_error(&a, &d);
        // Within a factor 2 of the optimal rank-5 relative error.
        assert!(
            rel <= 2.0 * opt / total + 1e-12,
            "rel {} vs optimal {}",
            rel,
            opt / total
        );
    }

    #[test]
    fn rsvd_rank_larger_than_dims_is_clamped() {
        let a = spectrum_matrix(6, 4, &[3.0, 1.0], 5);
        let mut rng = StdRng::seed_from_u64(6);
        let d = rsvd(&a, RsvdConfig::new(10), &mut rng).unwrap();
        assert_eq!(d.s.len(), 4);
    }

    #[test]
    fn rsvd_rejects_zero_rank() {
        let a = Matrix::zeros(3, 3);
        let mut rng = StdRng::seed_from_u64(7);
        assert!(rsvd(&a, RsvdConfig::new(0), &mut rng).is_err());
    }

    #[test]
    fn rsvd_deterministic_given_seed() {
        let a = spectrum_matrix(20, 20, &[4.0, 2.0, 1.0], 8);
        let d1 = rsvd(&a, RsvdConfig::new(3), &mut StdRng::seed_from_u64(9)).unwrap();
        let d2 = rsvd(&a, RsvdConfig::new(3), &mut StdRng::seed_from_u64(9)).unwrap();
        assert_eq!(d1.u, d2.u);
        assert_eq!(d1.s, d2.s);
    }

    #[test]
    fn range_finder_captures_range() {
        let a = spectrum_matrix(50, 30, &[10.0, 9.0, 8.0], 10);
        let mut rng = StdRng::seed_from_u64(11);
        let q = randomized_range_finder(&a, 6, 1, &mut rng);
        assert!(q.has_orthonormal_cols(1e-8));
        // ‖A − QQᵀA‖ should be tiny for an (essentially) rank-3 matrix.
        let qta = t_matmul(&q, &a);
        let rec = matmul(&q, &qta);
        assert!(rec.sub(&a).unwrap().fro_norm() < 1e-7 * a.fro_norm());
    }

    #[test]
    fn rsvd_power_iterations_help_on_noisy_matrix() {
        let mut rng = StdRng::seed_from_u64(12);
        let low = spectrum_matrix(80, 60, &[20.0, 15.0, 10.0, 8.0, 6.0], 13);
        let noise = gaussian_matrix(80, 60, &mut rng);
        let mut a = low.clone();
        a.axpy(0.05, &noise).unwrap();
        let e0 = relative_error(
            &a,
            &rsvd(
                &a,
                RsvdConfig {
                    rank: 5,
                    oversample: 5,
                    power_iters: 0,
                },
                &mut StdRng::seed_from_u64(14),
            )
            .unwrap(),
        );
        let e2 = relative_error(
            &a,
            &rsvd(
                &a,
                RsvdConfig {
                    rank: 5,
                    oversample: 5,
                    power_iters: 3,
                },
                &mut StdRng::seed_from_u64(14),
            )
            .unwrap(),
        );
        assert!(
            e2 <= e0 + 1e-9,
            "power iterations should not hurt: {} vs {}",
            e2,
            e0
        );
    }

    #[test]
    fn relative_error_zero_matrix() {
        let a = Matrix::zeros(4, 4);
        let d = Svd {
            u: Matrix::zeros(4, 0),
            s: vec![],
            v: Matrix::zeros(4, 0),
        };
        assert_eq!(relative_error(&a, &d), 0.0);
    }
}
