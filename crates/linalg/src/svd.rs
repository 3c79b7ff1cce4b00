//! Singular value decomposition.
//!
//! Three routes, chosen by the caller's accuracy/size trade-off:
//!
//! * [`svd`] — accurate thin SVD: QR reduction (when tall) followed by
//!   one-sided Jacobi on the small factor. This is the reference route used
//!   by tests and by accuracy-critical small problems.
//! * [`leading_left_singular_vectors`] — Gram-matrix route for the leading
//!   `k` left singular vectors of a (possibly very wide) matrix; this is the
//!   workhorse of initialization and of every HOOI sweep.
//!   [`truncated_svd_gram`] is the same route with singular values and
//!   right vectors. Both form the smaller Gram matrix with the packed GEMM
//!   and take only its `k` leading eigenpairs from
//!   [`crate::eig::sym_eig_top`], so past the Gram the cost is one
//!   tridiagonal reduction (~4/3·g³ for a `g × g` Gram) rather than a full
//!   eigendecomposition.
//! * [`crate::rsvd::rsvd`] — randomized SVD (separate module).

use crate::eig::sym_eig_top;
use crate::error::{LinalgError, Result};
use crate::gemm::{gram_t, matmul, matmul_t, t_matmul};
use crate::matrix::Matrix;
use crate::norms;
use crate::qr::{orthonormalize, qr_thin};

/// Thin SVD `A = U diag(s) Vᵀ` with singular values in descending order.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors, `m × t` with `t = min(m, n)`.
    pub u: Matrix,
    /// Singular values, descending, length `t`.
    pub s: Vec<f64>,
    /// Right singular vectors, `n × t` (columns, *not* transposed).
    pub v: Matrix,
}

impl Svd {
    /// Reconstructs `U diag(s) Vᵀ`.
    pub fn reconstruct(&self) -> Matrix {
        let us = scale_cols(&self.u, &self.s);
        matmul(&us, &self.v.transpose())
    }

    /// Truncates to the leading `k` singular triplets.
    pub fn truncate(&self, k: usize) -> Svd {
        let k = k.min(self.s.len());
        Svd {
            u: self.u.truncate_cols(k),
            s: self.s[..k].to_vec(),
            v: self.v.truncate_cols(k),
        }
    }

    /// Numerical rank: number of singular values above `tol * s[0]`.
    pub fn rank(&self, tol: f64) -> usize {
        if self.s.is_empty() || self.s[0] == 0.0 {
            return 0;
        }
        let cutoff = tol * self.s[0];
        self.s.iter().take_while(|&&x| x > cutoff).count()
    }
}

/// Multiplies column `j` of `a` by `s[j]`.
pub fn scale_cols(a: &Matrix, s: &[f64]) -> Matrix {
    debug_assert!(s.len() >= a.cols());
    let mut out = a.clone();
    let cols = out.cols();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        for (c, sv) in s.iter().take(cols).enumerate() {
            row[c] *= sv;
        }
    }
    out
}

/// Maximum one-sided Jacobi sweeps.
const MAX_JACOBI_SWEEPS: usize = 60;

/// Which dense SVD algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SvdAlgorithm {
    /// One-sided Jacobi (after QR reduction): slowest, most accurate.
    Jacobi,
    /// Golub–Reinsch bidiagonalization + implicit QR: the classic fast
    /// dense route.
    GolubReinsch,
    /// Jacobi below [`AUTO_GR_THRESHOLD`] columns, Golub–Reinsch above.
    Auto,
}

/// `Auto` switches from Jacobi to Golub–Reinsch once the reduced problem
/// has this many columns (Jacobi's extra sweeps stop paying for themselves).
pub const AUTO_GR_THRESHOLD: usize = 48;

/// Accurate thin SVD with the default (`Auto`) algorithm choice.
///
/// Wide matrices are transposed; tall matrices are reduced with a thin QR
/// so the iteration always runs on an (almost) square factor.
pub fn svd(a: &Matrix) -> Result<Svd> {
    svd_with(a, SvdAlgorithm::Auto)
}

/// Thin SVD with an explicit algorithm choice.
pub fn svd_with(a: &Matrix, alg: SvdAlgorithm) -> Result<Svd> {
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        return Ok(Svd {
            u: Matrix::zeros(m, 0),
            s: vec![],
            v: Matrix::zeros(n, 0),
        });
    }
    if m < n {
        let t = svd_with(&a.transpose(), alg)?;
        return Ok(Svd {
            u: t.v,
            s: t.s,
            v: t.u,
        });
    }
    let use_gr = match alg {
        SvdAlgorithm::Jacobi => false,
        SvdAlgorithm::GolubReinsch => true,
        SvdAlgorithm::Auto => n >= AUTO_GR_THRESHOLD,
    };
    if use_gr {
        return crate::svd_gr::svd_golub_reinsch(a);
    }
    if m > n {
        // A = Q R, svd(R) = Ur S Vᵀ  ⇒  A = (Q Ur) S Vᵀ.
        let f = qr_thin(a);
        let inner = jacobi_svd(&f.r)?;
        return Ok(Svd {
            u: matmul(&f.q, &inner.u),
            s: inner.s,
            v: inner.v,
        });
    }
    jacobi_svd(a)
}

/// One-sided Jacobi SVD for `m ≥ n` (callers guarantee near-square input).
fn jacobi_svd(a: &Matrix) -> Result<Svd> {
    let (m, n) = a.shape();
    debug_assert!(m >= n);
    if a.as_slice().iter().any(|v| !v.is_finite()) {
        return Err(LinalgError::InvalidArgument {
            op: "jacobi_svd",
            details: "matrix contains non-finite entries".into(),
        });
    }
    // Work on columns of B; rotate V alongside.
    let mut b = a.clone();
    let mut v = Matrix::identity(n);
    let eps = f64::EPSILON;
    // Absolute chatter floor: off-diagonal mass below this is invisible in
    // the singular values, so rotating on it would loop forever on noise.
    let fro = a.fro_norm();
    let floor = eps * fro * fro / (n.max(1) as f64);

    let mut converged = false;
    for _sweep in 0..MAX_JACOBI_SWEEPS {
        let mut rotated = false;
        for p in 0..n {
            for q in (p + 1)..n {
                let (mut app, mut aqq, mut apq) = (0.0f64, 0.0f64, 0.0f64);
                for r in 0..m {
                    let bp = b.get(r, p);
                    let bq = b.get(r, q);
                    app += bp * bp;
                    aqq += bq * bq;
                    apq += bp * bq;
                }
                if apq.abs() <= eps * (app * aqq).sqrt() || apq.abs() <= floor {
                    continue;
                }
                rotated = true;
                // Jacobi rotation that zeroes the (p,q) entry of BᵀB.
                let zeta = (aqq - app) / (2.0 * apq);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                for r in 0..m {
                    let bp = b.get(r, p);
                    let bq = b.get(r, q);
                    b.set(r, p, c * bp - s * bq);
                    b.set(r, q, s * bp + c * bq);
                }
                for r in 0..n {
                    let vp = v.get(r, p);
                    let vq = v.get(r, q);
                    v.set(r, p, c * vp - s * vq);
                    v.set(r, q, s * vp + c * vq);
                }
            }
        }
        if !rotated {
            converged = true;
            break;
        }
    }
    if !converged {
        return Err(LinalgError::NonConvergence {
            op: "jacobi_svd",
            iterations: MAX_JACOBI_SWEEPS,
        });
    }

    // Extract singular values and left vectors.
    let mut s: Vec<f64> = (0..n).map(|j| norms::fro_norm(&b.col(j))).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| s[j].partial_cmp(&s[i]).unwrap_or(std::cmp::Ordering::Equal));

    let mut u = Matrix::zeros(m, n);
    let mut vperm = Matrix::zeros(n, n);
    let smax = order.first().map_or(0.0, |&i| s[i]);
    let tiny = smax * f64::EPSILON * (m.max(n) as f64);
    let mut new_s = vec![0.0; n];
    for (dst, &src) in order.iter().enumerate() {
        new_s[dst] = s[src];
        let col = b.col(src);
        if s[src] > tiny && s[src] > 0.0 {
            let inv = 1.0 / s[src];
            for r in 0..m {
                u.set(r, dst, col[r] * inv);
            }
        }
        for r in 0..n {
            vperm.set(r, dst, v.get(r, src));
        }
    }
    s = new_s;
    // Fill any null-space columns of U with an orthonormal completion so U
    // always has orthonormal columns.
    complete_orthonormal_cols(&mut u, &s, tiny);
    Ok(Svd { u, s, v: vperm })
}

/// Replaces (near-)zero columns of `u` (those with `s[j] <= tiny`) with unit
/// vectors orthogonal to all other columns (Gram–Schmidt against the basis).
fn complete_orthonormal_cols(u: &mut Matrix, s: &[f64], tiny: f64) {
    let (m, n) = u.shape();
    for j in 0..n {
        if s[j] > tiny && s[j] > 0.0 {
            continue;
        }
        // Try coordinate vectors until one survives orthogonalization.
        'candidates: for cand in 0..m {
            let mut col = vec![0.0; m];
            col[cand] = 1.0;
            for other in 0..n {
                if other == j {
                    continue;
                }
                let oc = u.col(other);
                let proj = norms::dot(&col, &oc);
                norms::axpy(-proj, &oc, &mut col);
            }
            let nrm = norms::fro_norm(&col);
            if nrm > 1e-6 {
                norms::scale(&mut col, 1.0 / nrm);
                u.set_col(j, &col);
                break 'candidates;
            }
        }
    }
}

/// Leading `k` left singular vectors of `a`, via the smaller Gram matrix.
///
/// * `rows ≤ cols`: leading eigenvectors of `A Aᵀ` (size `rows × rows`).
/// * `rows > cols`: leading eigenvectors of `Aᵀ A` give `V`; then
///   `U = A V Σ⁻¹`, re-orthonormalized to absorb round-off on small singular
///   values.
///
/// This sacrifices half the floating-point precision relative to [`svd`]
/// (singular values are formed as square roots of eigenvalues), which is the
/// standard trade inside ALS loops where factor matrices only need to span
/// the right subspace.
pub fn leading_left_singular_vectors(a: &Matrix, k: usize) -> Result<Matrix> {
    let (m, n) = a.shape();
    let k = k.min(m.min(n));
    if k == 0 {
        return Ok(Matrix::zeros(m, 0));
    }
    if m <= n {
        // A Aᵀ (m × m): the threaded GEMM kernel wins once the product is
        // large; the symmetric scalar kernel wins on small inputs.
        let g = if 2 * m * m * n > (1 << 26) {
            matmul_t(a, a)
        } else {
            gram_t(a)
        };
        Ok(sym_eig_top(&g, k)?.vectors)
    } else {
        let eig = sym_eig_top(&t_matmul(a, a), k)?; // Aᵀ A, n × n
        let sigma: Vec<f64> = eig.values.iter().map(|l| l.max(0.0).sqrt()).collect();
        let mut u = matmul(a, &eig.vectors);
        let smax = sigma.first().copied().unwrap_or(0.0);
        for j in 0..k {
            let inv = if sigma[j] > smax * 1e-12 && sigma[j] > 0.0 {
                1.0 / sigma[j]
            } else {
                0.0
            };
            for r in 0..m {
                let cur = u.get(r, j);
                u.set(r, j, cur * inv);
            }
        }
        // Repair any collapsed columns and enforce orthonormality.
        Ok(orthonormalize(&u))
    }
}

/// Leading `k` left singular vectors by **deterministic subspace
/// iteration** — the large-matrix alternative to the Gram-eigen route of
/// [`leading_left_singular_vectors`], costing `O(iters · m·n·(k+p))`
/// instead of `O(min(m,n)³)`.
///
/// The start basis is the `k+p` columns of `A` with the largest norms
/// (deterministic, no RNG); each iteration applies `A Aᵀ` with
/// re-orthonormalization. `iters` ≈ 6–10 suffices for ALS-style callers
/// that only need the right subspace.
pub fn leading_left_singular_vectors_subspace(
    a: &Matrix,
    k: usize,
    iters: usize,
) -> Result<Matrix> {
    let (m, n) = a.shape();
    let k = k.min(m.min(n));
    if k == 0 {
        return Ok(Matrix::zeros(m, 0));
    }
    let l = (k + 5).min(n).min(m);
    // Deterministic start: the l largest-norm columns of A.
    let mut by_norm: Vec<(usize, f64)> = (0..n)
        .map(|c| {
            let col = a.col(c);
            (c, crate::norms::norm_sq(&col))
        })
        .collect();
    by_norm.sort_by(|x, y| y.1.partial_cmp(&x.1).unwrap_or(std::cmp::Ordering::Equal));
    let mut start = Matrix::zeros(m, l);
    for (j, &(c, _)) in by_norm.iter().take(l).enumerate() {
        let col = a.col(c);
        start.set_col(j, &col);
    }
    let mut q = orthonormalize(&start);
    for _ in 0..iters.max(1) {
        let z = orthonormalize(&t_matmul(a, &q)); // Aᵀ Q
        q = orthonormalize(&matmul(a, &z)); // A (AᵀQ)
    }
    // Rayleigh–Ritz: rotate Q to align with the singular directions and
    // order them by singular value.
    let b = t_matmul(&q, a); // l × n
    let inner = truncated_svd_gram(&b, k)?;
    Ok(matmul(&q, &inner.u))
}

/// Truncated SVD (leading `k` triplets) via the Gram route, with singular
/// values. Suitable for `k ≪ min(m, n)`; use [`svd`] + [`Svd::truncate`]
/// when full accuracy matters.
pub fn truncated_svd_gram(a: &Matrix, k: usize) -> Result<Svd> {
    let (m, n) = a.shape();
    let k = k.min(m.min(n));
    if k == 0 {
        return Ok(Svd {
            u: Matrix::zeros(m, 0),
            s: vec![],
            v: Matrix::zeros(n, 0),
        });
    }
    if m <= n {
        let eig = sym_eig_top(&gram_t(a), k)?;
        let u = eig.vectors;
        let s: Vec<f64> = eig.values.iter().map(|l| l.max(0.0).sqrt()).collect();
        // V = Aᵀ U Σ⁻¹.
        let mut v = t_matmul(a, &u);
        let smax = s.first().copied().unwrap_or(0.0);
        for j in 0..k {
            let inv = if s[j] > smax * 1e-12 && s[j] > 0.0 {
                1.0 / s[j]
            } else {
                0.0
            };
            for r in 0..n {
                let cur = v.get(r, j);
                v.set(r, j, cur * inv);
            }
        }
        Ok(Svd { u, s, v })
    } else {
        let t = truncated_svd_gram(&a.transpose(), k)?;
        Ok(Svd {
            u: t.v,
            s: t.s,
            v: t.u,
        })
    }
}

/// Moore–Penrose pseudo-inverse via the thin SVD, with relative tolerance
/// `tol` on singular values (e.g. `1e-12`).
pub fn pinv(a: &Matrix, tol: f64) -> Result<Matrix> {
    let d = svd(a)?;
    let smax = d.s.first().copied().unwrap_or(0.0);
    let cutoff = smax * tol;
    let inv_s: Vec<f64> =
        d.s.iter()
            .map(|&x| if x > cutoff && x > 0.0 { 1.0 / x } else { 0.0 })
            .collect();
    // A⁺ = V Σ⁺ Uᵀ.
    let vs = scale_cols(&d.v, &inv_s);
    Ok(matmul(&vs, &d.u.transpose()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
    }

    fn check_svd(a: &Matrix, tol: f64) {
        let d = svd(a).unwrap();
        let t = a.rows().min(a.cols());
        assert_eq!(d.u.shape(), (a.rows(), t));
        assert_eq!(d.v.shape(), (a.cols(), t));
        assert_eq!(d.s.len(), t);
        for w in d.s.windows(2) {
            assert!(
                w[0] >= w[1] - 1e-12,
                "singular values not sorted: {:?}",
                d.s
            );
        }
        assert!(d.s.iter().all(|&x| x >= 0.0));
        assert!(d.u.has_orthonormal_cols(1e-8), "U not orthonormal");
        assert!(d.v.has_orthonormal_cols(1e-8), "V not orthonormal");
        let rec = d.reconstruct();
        assert!(
            rec.approx_eq(a, tol),
            "SVD reconstruction failed, diff {}",
            rec.max_abs_diff(a)
        );
    }

    #[test]
    fn svd_known_diag() {
        let a = Matrix::from_diag(&[3.0, 1.0, 2.0]);
        let d = svd(&a).unwrap();
        assert!((d.s[0] - 3.0).abs() < 1e-12);
        assert!((d.s[1] - 2.0).abs() < 1e-12);
        assert!((d.s[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn svd_shapes() {
        check_svd(&random(6, 6, 1), 1e-9);
        check_svd(&random(20, 5, 2), 1e-9);
        check_svd(&random(5, 20, 3), 1e-9);
        check_svd(&random(50, 50, 4), 1e-8);
        check_svd(&random(1, 1, 5), 1e-12);
        check_svd(&random(1, 7, 6), 1e-10);
        check_svd(&random(7, 1, 7), 1e-10);
    }

    #[test]
    fn svd_rank_deficient() {
        // Rank-2 matrix: outer products.
        let u = random(12, 2, 8);
        let v = random(9, 2, 9);
        let a = matmul(&u, &v.transpose());
        let d = svd(&a).unwrap();
        assert!(d.s[2] < 1e-10 * d.s[0]);
        assert_eq!(d.rank(1e-8), 2);
        assert!(d.reconstruct().approx_eq(&a, 1e-9));
        assert!(d.u.has_orthonormal_cols(1e-8));
    }

    #[test]
    fn svd_zero_matrix() {
        let a = Matrix::zeros(4, 3);
        let d = svd(&a).unwrap();
        assert!(d.s.iter().all(|&x| x == 0.0));
        assert!(d.u.has_orthonormal_cols(1e-10));
        assert_eq!(d.rank(1e-12), 0);
    }

    #[test]
    fn svd_fro_norm_identity() {
        // Σ sᵢ² = ‖A‖_F².
        let a = random(15, 10, 10);
        let d = svd(&a).unwrap();
        let sum_sq: f64 = d.s.iter().map(|&x| x * x).sum();
        let fro2 = a.fro_norm().powi(2);
        assert!((sum_sq - fro2).abs() < 1e-9 * fro2);
    }

    #[test]
    fn truncate_keeps_best_approx() {
        let a = random(20, 15, 11);
        let d = svd(&a).unwrap();
        let d2 = d.truncate(5);
        assert_eq!(d2.u.shape(), (20, 5));
        assert_eq!(d2.s.len(), 5);
        // Error of rank-5 truncation = sqrt(Σ_{i>5} sᵢ²).
        let rec = d2.reconstruct();
        let err = rec.sub(&a).unwrap().fro_norm();
        let expected: f64 = d.s[5..].iter().map(|&x| x * x).sum::<f64>().sqrt();
        assert!((err - expected).abs() < 1e-8 * a.fro_norm());
    }

    #[test]
    fn leading_left_singular_vectors_span() {
        // Build a matrix with a known dominant left subspace.
        let u = crate::qr::orthonormalize(&random(30, 3, 12));
        let v = crate::qr::orthonormalize(&random(40, 3, 13));
        let s = Matrix::from_diag(&[100.0, 50.0, 25.0]);
        let a = matmul(&matmul(&u, &s), &v.transpose());
        for &wide in &[false, true] {
            let m = if wide { a.transpose() } else { a.clone() };
            let basis = leading_left_singular_vectors(&m, 3).unwrap();
            assert!(basis.has_orthonormal_cols(1e-8));
            let target = if wide { v.clone() } else { u.clone() };
            // Projection of target onto basis should have fro norm sqrt(3).
            let proj = t_matmul(&basis, &target);
            let pn = proj.fro_norm();
            assert!(
                (pn * pn - 3.0).abs() < 1e-6,
                "subspace not captured: {}",
                pn
            );
        }
    }

    #[test]
    fn subspace_route_captures_leading_subspace() {
        // Known dominant left subspace with a clear spectral gap.
        let u = crate::qr::orthonormalize(&random(80, 4, 40));
        let v = crate::qr::orthonormalize(&random(70, 4, 41));
        let s = Matrix::from_diag(&[50.0, 40.0, 30.0, 20.0]);
        let mut a = matmul(&matmul(&u, &s), &v.transpose());
        a.axpy(0.01, &random(80, 70, 42)).unwrap();
        let basis = leading_left_singular_vectors_subspace(&a, 4, 8).unwrap();
        assert!(basis.has_orthonormal_cols(1e-8));
        let proj = t_matmul(&basis, &u);
        let pn = proj.fro_norm();
        assert!((pn * pn - 4.0).abs() < 1e-3, "captured {}", pn * pn);
        // Degenerate cases.
        assert_eq!(
            leading_left_singular_vectors_subspace(&a, 0, 4)
                .unwrap()
                .cols(),
            0
        );
        let one = leading_left_singular_vectors_subspace(&a, 200, 4).unwrap();
        assert_eq!(one.cols(), 70);
    }

    #[test]
    fn subspace_route_matches_exact_on_small() {
        let a = random(30, 25, 43);
        let fast = leading_left_singular_vectors_subspace(&a, 5, 12).unwrap();
        let exact = svd(&a).unwrap();
        // Compare captured energy: ‖Uₖᵀ A‖ should match Σ σ².
        let cap_fast: f64 = {
            let p = t_matmul(&fast, &a);
            let n = p.fro_norm();
            n * n
        };
        let cap_exact: f64 = exact.s[..5].iter().map(|x| x * x).sum();
        assert!(
            (cap_fast - cap_exact).abs() < 1e-6 * cap_exact,
            "{cap_fast} vs {cap_exact}"
        );
    }

    #[test]
    fn truncated_svd_gram_matches_exact_leading_values() {
        let a = random(25, 18, 14);
        let exact = svd(&a).unwrap();
        let approx = truncated_svd_gram(&a, 6).unwrap();
        for j in 0..6 {
            assert!(
                (approx.s[j] - exact.s[j]).abs() < 1e-7 * exact.s[0],
                "σ_{j}: {} vs {}",
                approx.s[j],
                exact.s[j]
            );
        }
        assert!(approx.u.has_orthonormal_cols(1e-7));
        // Reconstruction error matches optimal rank-6 error.
        let rec = approx.reconstruct();
        let err = rec.sub(&a).unwrap().fro_norm();
        let expected: f64 = exact.s[6..].iter().map(|&x| x * x).sum::<f64>().sqrt();
        assert!((err - expected).abs() < 1e-6 * a.fro_norm());
    }

    #[test]
    fn truncated_svd_gram_wide() {
        let a = random(10, 40, 15);
        let exact = svd(&a).unwrap();
        let approx = truncated_svd_gram(&a, 4).unwrap();
        for j in 0..4 {
            assert!((approx.s[j] - exact.s[j]).abs() < 1e-7 * exact.s[0]);
        }
        assert_eq!(approx.u.shape(), (10, 4));
        assert_eq!(approx.v.shape(), (40, 4));
    }

    #[test]
    fn pinv_properties() {
        let a = random(10, 6, 16);
        let p = pinv(&a, 1e-12).unwrap();
        assert_eq!(p.shape(), (6, 10));
        // A A⁺ A = A.
        let apa = matmul(&matmul(&a, &p), &a);
        assert!(apa.approx_eq(&a, 1e-8));
        // A⁺ A A⁺ = A⁺.
        let pap = matmul(&matmul(&p, &a), &p);
        assert!(pap.approx_eq(&p, 1e-8));
    }

    #[test]
    fn pinv_of_singular_matrix() {
        let u = random(8, 2, 17);
        let v = random(8, 2, 18);
        let a = matmul(&u, &v.transpose());
        let p = pinv(&a, 1e-10).unwrap();
        let apa = matmul(&matmul(&a, &p), &a);
        assert!(apa.approx_eq(&a, 1e-8));
    }

    #[test]
    fn scale_cols_scales() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = scale_cols(&a, &[2.0, 0.5]);
        assert_eq!(b.as_slice(), &[2.0, 1.0, 6.0, 2.0]);
    }

    #[test]
    fn svd_empty_dims() {
        let d = svd(&Matrix::zeros(0, 5)).unwrap();
        assert!(d.s.is_empty());
        let d = svd(&Matrix::zeros(5, 0)).unwrap();
        assert!(d.s.is_empty());
    }
}
