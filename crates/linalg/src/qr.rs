//! Householder QR decomposition.
//!
//! Thin QR: for `A ∈ R^{m×n}` with `t = min(m, n)`, produces `Q ∈ R^{m×t}`
//! with orthonormal columns and upper-triangular (trapezoidal when `m < n`)
//! `R ∈ R^{t×n}` such that `A = Q R`.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::norms;

/// Result of a thin QR decomposition.
#[derive(Debug, Clone)]
pub struct Qr {
    /// `m × min(m, n)` factor with orthonormal columns.
    pub q: Matrix,
    /// `min(m, n) × n` upper-triangular/trapezoidal factor.
    pub r: Matrix,
}

/// Computes the thin QR decomposition of `a` with Householder reflectors.
pub fn qr_thin(a: &Matrix) -> Qr {
    let (m, n) = a.shape();
    let t = m.min(n);
    let mut work = a.clone();
    // Reflector k is stored as (beta_k, v_k) with v_k of length m - k and
    // v_k[0] = 1 implicitly NOT used; we store the full scaled vector.
    let mut vs: Vec<Vec<f64>> = Vec::with_capacity(t);
    let mut betas: Vec<f64> = Vec::with_capacity(t);
    let mut w = vec![0.0; n];

    for k in 0..t {
        // x = work[k.., k]
        let mut v: Vec<f64> = (k..m).map(|r| work.get(r, k)).collect();
        let normx = norms::fro_norm(&v);
        if normx == 0.0 {
            vs.push(v);
            betas.push(0.0);
            continue;
        }
        let alpha = if v[0] >= 0.0 { -normx } else { normx };
        v[0] -= alpha;
        let vnorm_sq = norms::norm_sq(&v);
        let beta = if vnorm_sq == 0.0 { 0.0 } else { 2.0 / vnorm_sq };
        // Apply H = I - beta v vᵀ to work[k.., k..].
        if beta != 0.0 {
            reflect_rows(&mut work, k, &v, beta, &mut w[..n - k]);
        }
        // The column is now (alpha, 0, ..., 0)ᵀ below row k; enforce exactly.
        work.set(k, k, alpha);
        for r in (k + 1)..m {
            work.set(r, k, 0.0);
        }
        vs.push(v);
        betas.push(beta);
    }

    // R = top t rows of the transformed matrix (upper triangular by construction).
    let mut r = Matrix::zeros(t, n);
    for i in 0..t {
        r.row_mut(i)[i..].copy_from_slice(&work.row(i)[i..]);
    }

    // Q = H_0 H_1 ... H_{t-1} applied to the first t columns of I_m.
    let mut q = Matrix::zeros(m, t);
    for i in 0..t {
        q.set(i, i, 1.0);
    }
    for k in (0..t).rev() {
        let beta = betas[k];
        if beta == 0.0 {
            continue;
        }
        reflect_rows(&mut q, k, &vs[k], beta, &mut w[..t]);
    }

    Qr { q, r }
}

/// Applies `H = I − β v vᵀ` to rows `k..k + v.len()` of `x`, restricted to
/// its last `w.len()` columns, one row at a time: `w = β vᵀ X` accumulates
/// in the row buffer, then every row takes its rank-1 update. Each column's
/// dot product sums the rows in order, as a column-at-a-time loop would, so
/// the result is bitwise the same.
fn reflect_rows(x: &mut Matrix, k: usize, v: &[f64], beta: f64, w: &mut [f64]) {
    let c0 = x.cols() - w.len();
    w.fill(0.0);
    for (i, &vi) in v.iter().enumerate() {
        for (wc, &xc) in w.iter_mut().zip(&x.row(k + i)[c0..]) {
            *wc += vi * xc;
        }
    }
    for wc in w.iter_mut() {
        *wc *= beta;
    }
    for (i, &vi) in v.iter().enumerate() {
        for (xc, &wc) in x.row_mut(k + i)[c0..].iter_mut().zip(w.iter()) {
            *xc -= wc * vi;
        }
    }
}

/// Returns an orthonormal basis for the column space of `a` (the thin-QR `Q`
/// factor).
pub fn orthonormalize(a: &Matrix) -> Matrix {
    qr_thin(a).q
}

/// Solves the upper-triangular system `R x = b` by back substitution.
///
/// `r` must be square `n×n` upper triangular and `b` of length `n`.
pub fn solve_upper_triangular(r: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    let n = r.rows();
    if r.cols() != n || b.len() != n {
        return Err(LinalgError::DimensionMismatch {
            op: "solve_upper_triangular",
            details: format!("R is {:?}, b has length {}", r.shape(), b.len()),
        });
    }
    let mut x = b.to_vec();
    for i in (0..n).rev() {
        let mut acc = x[i];
        for j in (i + 1)..n {
            acc -= r.get(i, j) * x[j];
        }
        let d = r.get(i, i);
        if d.abs() < f64::EPSILON * n as f64 {
            return Err(LinalgError::Singular {
                op: "solve_upper_triangular",
            });
        }
        x[i] = acc / d;
    }
    Ok(x)
}

/// Least-squares solve `min_x ‖A x − b‖₂` for full-column-rank `A` via QR.
///
/// Returns `x` of length `a.cols()`. Requires `m ≥ n`.
pub fn lstsq(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    let (m, n) = a.shape();
    if b.len() != m {
        return Err(LinalgError::DimensionMismatch {
            op: "lstsq",
            details: format!("A is {:?}, b has length {}", a.shape(), b.len()),
        });
    }
    if m < n {
        return Err(LinalgError::InvalidArgument {
            op: "lstsq",
            details: format!("underdetermined system {m}x{n}"),
        });
    }
    let Qr { q, r } = qr_thin(a);
    let qtb = q.t_matvec(b)?;
    solve_upper_triangular(&r, &qtb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{matmul, t_matmul};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
    }

    fn check_qr(a: &Matrix) {
        let Qr { q, r } = qr_thin(a);
        let t = a.rows().min(a.cols());
        assert_eq!(q.shape(), (a.rows(), t));
        assert_eq!(r.shape(), (t, a.cols()));
        // A = QR
        let qr = matmul(&q, &r);
        assert!(
            qr.approx_eq(a, 1e-10),
            "QR reconstruction failed, diff {}",
            qr.max_abs_diff(a)
        );
        // QᵀQ = I
        let qtq = t_matmul(&q, &q);
        assert!(qtq.approx_eq(&Matrix::identity(t), 1e-10));
        // R upper triangular
        for i in 0..t {
            for j in 0..i.min(r.cols()) {
                assert!(r.get(i, j).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn qr_square() {
        check_qr(&random(6, 6, 1));
    }

    #[test]
    fn qr_tall() {
        check_qr(&random(30, 7, 2));
        check_qr(&random(100, 3, 3));
    }

    #[test]
    fn qr_wide() {
        check_qr(&random(5, 12, 4));
    }

    #[test]
    fn qr_rank_deficient() {
        // Two identical columns.
        let base = random(10, 1, 5);
        let a = base.hcat(&base).unwrap().hcat(&random(10, 2, 6)).unwrap();
        let Qr { q, r } = qr_thin(&a);
        assert!(matmul(&q, &r).approx_eq(&a, 1e-10));
        assert!(q.has_orthonormal_cols(1e-8));
    }

    #[test]
    fn qr_zero_matrix() {
        let a = Matrix::zeros(4, 3);
        let Qr { q, r } = qr_thin(&a);
        assert!(matmul(&q, &r).approx_eq(&a, 1e-12));
        assert!(r.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn qr_single_column() {
        let a = Matrix::from_vec(3, 1, vec![3.0, 0.0, 4.0]).unwrap();
        let Qr { q, r } = qr_thin(&a);
        assert!((r.get(0, 0).abs() - 5.0).abs() < 1e-12);
        assert!(matmul(&q, &r).approx_eq(&a, 1e-12));
    }

    #[test]
    fn orthonormalize_gives_basis() {
        let a = random(20, 5, 7);
        let q = orthonormalize(&a);
        assert!(q.has_orthonormal_cols(1e-10));
    }

    #[test]
    fn back_substitution() {
        let r = Matrix::from_vec(3, 3, vec![2.0, 1.0, 1.0, 0.0, 3.0, 2.0, 0.0, 0.0, 4.0]).unwrap();
        let x = vec![1.0, -2.0, 0.5];
        let b = r.matvec(&x).unwrap();
        let sol = solve_upper_triangular(&r, &b).unwrap();
        for (s, e) in sol.iter().zip(x.iter()) {
            assert!((s - e).abs() < 1e-12);
        }
    }

    #[test]
    fn back_substitution_detects_singular() {
        let r = Matrix::from_vec(2, 2, vec![1.0, 2.0, 0.0, 0.0]).unwrap();
        assert!(matches!(
            solve_upper_triangular(&r, &[1.0, 1.0]),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn lstsq_recovers_exact_solution() {
        let a = random(20, 4, 8);
        let x = vec![1.0, -1.0, 2.0, 0.5];
        let b = a.matvec(&x).unwrap();
        let sol = lstsq(&a, &b).unwrap();
        for (s, e) in sol.iter().zip(x.iter()) {
            assert!((s - e).abs() < 1e-9);
        }
    }

    #[test]
    fn lstsq_rejects_bad_shapes() {
        let a = random(3, 5, 9);
        assert!(lstsq(&a, &[0.0; 3]).is_err()); // underdetermined
        let a = random(5, 3, 10);
        assert!(lstsq(&a, &[0.0; 4]).is_err()); // wrong b length
    }

    #[test]
    fn qr_matches_known_2x2() {
        // A = [[3, 0], [4, 5]]; first column norm 5.
        let a = Matrix::from_vec(2, 2, vec![3.0, 0.0, 4.0, 5.0]).unwrap();
        let Qr { q, r } = qr_thin(&a);
        assert!((r.get(0, 0).abs() - 5.0).abs() < 1e-12);
        assert!(matmul(&q, &r).approx_eq(&a, 1e-12));
    }
}
