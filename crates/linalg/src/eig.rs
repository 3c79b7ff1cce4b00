//! Symmetric eigendecomposition.
//!
//! Both routes start from the same Householder tridiagonalization `A = Q T
//! Qᵀ` (the reduction half of EISPACK/JAMA `tred2`, ~4/3·n³ flops):
//!
//! * [`sym_eig`] — every eigenpair. The reflectors are accumulated into `Q`
//!   and the implicitly shifted QL iteration (`tql2`) rotates it into the
//!   eigenvectors, ~9n³ flops in all. This is the reference solver and the
//!   test oracle.
//! * [`sym_eig_top`] — the `k` largest eigenpairs, the route behind the
//!   Gram-matrix SVDs in [`crate::svd`]. QL without rotations gives all
//!   eigenvalues of `T` in O(n²); inverse iteration on `T` (LAPACK `dstein`
//!   style) gives the `k` wanted eigenvectors in O(n·k); the stored
//!   reflectors carry them back to `A`'s basis in O(n²k). The reduction
//!   dominates, and nothing depends on eigenvalue gaps.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;
use crate::norms;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Eigenpairs `A v = λ v` of a symmetric matrix.
#[derive(Debug, Clone)]
pub struct SymEig {
    /// Eigenvalues: all of them in **ascending** order from [`sym_eig`], the
    /// leading `k` in **descending** order from [`sym_eig_top`].
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors; column `j` pairs with `values[j]`.
    pub vectors: Matrix,
}

/// Maximum QL iterations per eigenvalue before reporting non-convergence.
const MAX_QL_ITER: usize = 64;

/// Inverse-iteration solves per eigenvector. The shift is a computed
/// eigenvalue, so each solve shrinks every other direction by about
/// `ε‖T‖ / gap`; four solves leave only round-off.
const INVERSE_ITERS: usize = 4;

/// Neighbouring eigenvalues closer than this fraction of `‖T‖` form a
/// cluster whose vectors are re-orthogonalized against each other (the
/// `ORTOL` of LAPACK `dstein`). Vectors of different clusters are
/// orthogonal to `ε / CLUSTER_TOL` without it.
const CLUSTER_TOL: f64 = 1e-3;

/// Seed of the inverse-iteration start vectors: fixed, so the result depends
/// only on the input matrix.
const START_SEED: u64 = 0x5EED_E16E;

/// Computes the full eigendecomposition of a symmetric matrix.
///
/// The input is symmetrized as `(A + Aᵀ)/2` before factorization, so slight
/// asymmetry from accumulated round-off in Gram products is harmless.
pub fn sym_eig(a: &Matrix) -> Result<SymEig> {
    let n = square_size(a, "sym_eig")?;
    if n == 0 {
        return Ok(SymEig {
            values: vec![],
            vectors: Matrix::zeros(0, 0),
        });
    }
    let mut w = symmetrized(a);
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    householder_reduce(&mut w, n, &mut d, &mut e);
    // The reduction reads `w` column-major; accumulation and QL work on the
    // row-major `V` it stands for.
    let mut v = Matrix::from_vec(n, n, w)?.transpose();
    accumulate_reflectors(&mut v, &mut d, &mut e);
    tql2(Some(&mut v), &mut d, &mut e)?;
    sort_ascending(&mut v, &mut d);
    Ok(SymEig {
        values: d,
        vectors: v,
    })
}

/// Computes the `k` largest eigenpairs of a symmetric matrix, eigenvalues in
/// descending order, as an `n × k` [`SymEig`].
///
/// The eigenvalues are bitwise those of [`sym_eig`] (same reduction, same QL
/// sweep); the eigenvectors agree with its columns up to sign wherever the
/// eigenvalue is separated from the rest, and otherwise span the same
/// invariant subspace. The input is symmetrized as in [`sym_eig`].
pub fn sym_eig_top(a: &Matrix, k: usize) -> Result<SymEig> {
    let n = square_size(a, "sym_eig_top")?;
    if k > n {
        return Err(LinalgError::InvalidArgument {
            op: "sym_eig_top",
            details: format!("k = {k} exceeds matrix size {n}"),
        });
    }
    if k == 0 {
        return Ok(SymEig {
            values: vec![],
            vectors: Matrix::zeros(n, 0),
        });
    }
    let mut w = symmetrized(a);
    let mut h = vec![0.0; n];
    let mut sub = vec![0.0; n];
    householder_reduce(&mut w, n, &mut h, &mut sub);
    let diag: Vec<f64> = (0..n).map(|i| w[i * n + i]).collect();

    let mut values = diag.clone();
    let mut e = sub.clone();
    tql2(None, &mut values, &mut e)?;
    values.sort_by(|x, y| y.total_cmp(x));
    values.truncate(k);

    let mut vectors = tridiagonal_eigvecs(&diag, &sub, &values)?;
    back_transform(&w, &h, &mut vectors);
    Ok(SymEig { values, vectors })
}

/// Side of a square matrix, or a dimension error naming `op`.
fn square_size(a: &Matrix, op: &'static str) -> Result<usize> {
    if a.cols() != a.rows() {
        return Err(LinalgError::DimensionMismatch {
            op,
            details: format!("matrix is {:?}, must be square", a.shape()),
        });
    }
    Ok(a.rows())
}

/// `(A + Aᵀ)/2` as a flat buffer. It is exactly symmetric, so it reads the
/// same row-major and column-major.
fn symmetrized(a: &Matrix) -> Vec<f64> {
    Matrix::from_fn(a.rows(), a.cols(), |r, c| 0.5 * (a.get(r, c) + a.get(c, r))).into_vec()
}

/// Householder reduction of the symmetric `n × n` matrix in `w` to
/// tridiagonal form: the first half of `tred2`, without accumulating `Q`.
///
/// `w` is read column-major — `w[c * n + r]` is `tred2`'s `V[r][c]` — so the
/// inner loops walk contiguous columns of the lower triangle. On return the
/// tridiagonal has diagonal `w[i * n + i]` and sub-diagonal `e[1..]`, and
/// `Q = P_{n−1} ⋯ P_1` with `P_i = I − u uᵀ / d[i]`, `u = w[i*n .. i*n + i]`
/// (`P_i = I` when `d[i] == 0`).
fn householder_reduce(w: &mut [f64], n: usize, d: &mut [f64], e: &mut [f64]) {
    for (j, dj) in d.iter_mut().enumerate() {
        *dj = w[j * n + n - 1];
    }

    for i in (1..n).rev() {
        // Scale to avoid under/overflow.
        let mut scale = 0.0;
        let mut h = 0.0;
        for dk in d.iter().take(i) {
            scale += dk.abs();
        }
        if scale == 0.0 {
            e[i] = d[i - 1];
            for j in 0..i {
                d[j] = w[j * n + i - 1];
                w[j * n + i] = 0.0;
                w[i * n + j] = 0.0;
            }
        } else {
            for dk in d.iter_mut().take(i) {
                *dk /= scale;
                h += *dk * *dk;
            }
            let f = d[i - 1];
            let mut g = h.sqrt();
            if f > 0.0 {
                g = -g;
            }
            e[i] = scale * g;
            h -= f * g;
            d[i - 1] = f - g;
            e[..i].fill(0.0);
            // Apply similarity transformation to remaining columns.
            for j in 0..i {
                let f = d[j];
                w[i * n + j] = f;
                let col = &w[j * n..j * n + i];
                let mut g = e[j] + col[j] * f;
                for ((&vk, &dk), ek) in col[j + 1..].iter().zip(&d[j + 1..i]).zip(&mut e[j + 1..i])
                {
                    g += vk * dk;
                    *ek += vk * f;
                }
                e[j] = g;
            }
            let mut f = 0.0;
            for j in 0..i {
                e[j] /= h;
                f += e[j] * d[j];
            }
            let hh = f / (h + h);
            for j in 0..i {
                e[j] -= hh * d[j];
            }
            for j in 0..i {
                let f = d[j];
                let g = e[j];
                let col = &mut w[j * n + j..j * n + i];
                for ((vk, &ek), &dk) in col.iter_mut().zip(&e[j..i]).zip(&d[j..i]) {
                    *vk -= f * ek + g * dk;
                }
                d[j] = w[j * n + i - 1];
                w[j * n + i] = 0.0;
            }
        }
        d[i] = h;
    }
}

/// Second half of `tred2`: overwrites the reduced `v` (row-major) with the
/// accumulated orthogonal transform `Q`, and moves the tridiagonal's
/// diagonal into `d`.
fn accumulate_reflectors(v: &mut Matrix, d: &mut [f64], e: &mut [f64]) {
    let n = d.len();
    for i in 0..(n - 1) {
        let tmp = v.get(i, i);
        v.set(n - 1, i, tmp);
        v.set(i, i, 1.0);
        let h = d[i + 1];
        if h != 0.0 {
            for (k, dk) in d.iter_mut().enumerate().take(i + 1) {
                *dk = v.get(k, i + 1) / h;
            }
            for j in 0..=i {
                let mut g = 0.0;
                for k in 0..=i {
                    g += v.get(k, i + 1) * v.get(k, j);
                }
                for (k, &dk) in d.iter().enumerate().take(i + 1) {
                    let cur = v.get(k, j);
                    v.set(k, j, cur - g * dk);
                }
            }
        }
        for k in 0..=i {
            v.set(k, i + 1, 0.0);
        }
    }
    for (j, dj) in d.iter_mut().enumerate() {
        *dj = v.get(n - 1, j);
        v.set(n - 1, j, 0.0);
    }
    v.set(n - 1, n - 1, 1.0);
    e[0] = 0.0;
}

/// Eigenvectors of the symmetric tridiagonal `T` (diagonal `diag`,
/// sub-diagonal `sub[1..]`) for the eigenvalues `values`, sorted descending,
/// as the columns of an `n × values.len()` matrix.
///
/// Inverse iteration after LAPACK `dstein`: `T` is scaled to `‖T‖∞ = 1`;
/// each solve uses a pivoted LU of `T − λI` whose tiny pivots are raised to
/// `ε` (the nudge that keeps an exact eigenvalue's shift solvable); the
/// vectors of a cluster are orthogonalized by modified Gram–Schmidt after
/// every solve, and differing start vectors keep coincident eigenvalues
/// from converging to the same vector. A solve that leaves no finite,
/// non-zero direction is reported as non-convergence.
fn tridiagonal_eigvecs(diag: &[f64], sub: &[f64], values: &[f64]) -> Result<Matrix> {
    let n = diag.len();
    let mut tnorm = 0.0f64;
    for i in 0..n {
        let below = sub.get(i + 1).map_or(0.0, |b| b.abs());
        let above = if i > 0 { sub[i].abs() } else { 0.0 };
        tnorm = tnorm.max(diag[i].abs() + above + below);
    }
    if tnorm == 0.0 {
        tnorm = 1.0;
    }
    let a: Vec<f64> = diag.iter().map(|x| x / tnorm).collect();
    let b: Vec<f64> = sub.iter().map(|x| x / tnorm).collect();

    let mut rng = StdRng::seed_from_u64(START_SEED);
    let mut found: Vec<Vec<f64>> = Vec::with_capacity(values.len());
    let mut cluster_start = 0;
    for (j, &lambda) in values.iter().enumerate() {
        if j == 0 || values[j - 1] - lambda >= CLUSTER_TOL * tnorm {
            cluster_start = j;
        }
        let lu = TridiagonalLu::factor(&a, &b, lambda / tnorm, f64::EPSILON);
        let mut x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        for _ in 0..INVERSE_ITERS {
            lu.solve(&mut x);
            for z in &found[cluster_start..j] {
                norms::axpy(-norms::dot(&x, z), z, &mut x);
            }
            let nrm = norms::fro_norm(&x);
            if !(nrm > 0.0 && nrm.is_finite()) {
                return Err(LinalgError::NonConvergence {
                    op: "sym_eig_top",
                    iterations: INVERSE_ITERS,
                });
            }
            norms::scale(&mut x, 1.0 / nrm);
        }
        found.push(x);
    }

    let mut out = Matrix::zeros(n, values.len());
    for (j, x) in found.iter().enumerate() {
        out.set_col(j, x);
    }
    Ok(out)
}

/// LU factorization with partial pivoting of a shifted tridiagonal,
/// `P (T − σI) = L U`, in the layout of LAPACK `dgttrf`: `U` has diagonal
/// `d` and two super-diagonals `du`, `du2`; `L` has multipliers `dl`, and
/// `swapped[i]` records the interchange of rows `i` and `i + 1`.
struct TridiagonalLu {
    d: Vec<f64>,
    du: Vec<f64>,
    du2: Vec<f64>,
    dl: Vec<f64>,
    swapped: Vec<bool>,
}

impl TridiagonalLu {
    /// Factors `T − σI` for `T` with diagonal `a` and sub-diagonal `b[1..]`.
    /// Pivots smaller than `tiny` in magnitude are replaced by `±tiny`, so
    /// the factor of a (nearly) singular shift stays solvable.
    fn factor(a: &[f64], b: &[f64], shift: f64, tiny: f64) -> TridiagonalLu {
        let n = a.len();
        let mut d: Vec<f64> = a.iter().map(|x| x - shift).collect();
        let mut dl: Vec<f64> = b.iter().skip(1).copied().collect();
        let mut du = dl.clone();
        let mut du2 = vec![0.0; n.saturating_sub(2)];
        let mut swapped = vec![false; n.saturating_sub(1)];
        for i in 0..n.saturating_sub(1) {
            if d[i].abs() >= dl[i].abs() {
                let l = if d[i] == 0.0 { 0.0 } else { dl[i] / d[i] };
                dl[i] = l;
                d[i + 1] -= l * du[i];
            } else {
                let l = d[i] / dl[i];
                d[i] = dl[i];
                dl[i] = l;
                let next = d[i + 1];
                d[i + 1] = du[i] - l * next;
                du[i] = next;
                if i + 2 < n {
                    du2[i] = du[i + 1];
                    du[i + 1] *= -l;
                }
                swapped[i] = true;
            }
        }
        for p in &mut d {
            if p.abs() < tiny {
                *p = if *p < 0.0 { -tiny } else { tiny };
            }
        }
        TridiagonalLu {
            d,
            du,
            du2,
            dl,
            swapped,
        }
    }

    /// Overwrites `x` with `(T − σI)⁻¹ x`.
    fn solve(&self, x: &mut [f64]) {
        let n = self.d.len();
        for i in 0..n.saturating_sub(1) {
            if self.swapped[i] {
                let top = x[i];
                x[i] = x[i + 1];
                x[i + 1] = top - self.dl[i] * x[i];
            } else {
                x[i + 1] -= self.dl[i] * x[i];
            }
        }
        for i in (0..n).rev() {
            let mut s = x[i];
            if i + 1 < n {
                s -= self.du[i] * x[i + 1];
            }
            if i + 2 < n {
                s -= self.du2[i] * x[i + 2];
            }
            x[i] = s / self.d[i];
        }
    }
}

/// Carries the tridiagonal's eigenvectors (rows of `y`, `n × k`) back to the
/// original basis, `y ← Q y = P_{n−1}(⋯(P_1 y))`, with the reflectors that
/// [`householder_reduce`] left in `w` and `h`.
fn back_transform(w: &[f64], h: &[f64], y: &mut Matrix) {
    let n = h.len();
    let mut g = vec![0.0; y.cols()];
    for (i, &hi) in h.iter().enumerate().skip(1) {
        if hi == 0.0 {
            continue;
        }
        let u = &w[i * n..i * n + i];
        g.fill(0.0);
        for (r, &ur) in u.iter().enumerate() {
            for (gc, &yc) in g.iter_mut().zip(y.row(r)) {
                *gc += ur * yc;
            }
        }
        for (r, &ur) in u.iter().enumerate() {
            let f = ur / hi;
            for (yc, &gc) in y.row_mut(r).iter_mut().zip(&g) {
                *yc -= f * gc;
            }
        }
    }
}

/// Implicit QL iteration with shifts on the tridiagonal (`d`, `e`), leaving
/// the eigenvalues in `d`. When `v` holds the accumulated transform it is
/// rotated into the eigenvectors; without it only the eigenvalues are
/// computed, in O(n²), and they are bitwise the same.
fn tql2(mut v: Option<&mut Matrix>, d: &mut [f64], e: &mut [f64]) -> Result<()> {
    let n = d.len();
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;

    let mut f = 0.0f64;
    let mut tst1 = 0.0f64;
    let eps = f64::EPSILON;
    for l in 0..n {
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let mut m = l;
        while m < n {
            if e[m].abs() <= eps * tst1 {
                break;
            }
            m += 1;
        }
        if m > l {
            let mut iter = 0usize;
            loop {
                iter += 1;
                if iter > MAX_QL_ITER {
                    return Err(LinalgError::NonConvergence {
                        op: "tql2",
                        iterations: iter,
                    });
                }
                // Compute implicit shift.
                let g = d[l];
                let mut p = (d[l + 1] - g) / (2.0 * e[l]);
                let mut r = p.hypot(1.0);
                if p < 0.0 {
                    r = -r;
                }
                d[l] = e[l] / (p + r);
                d[l + 1] = e[l] * (p + r);
                let dl1 = d[l + 1];
                let mut h = g - d[l];
                for di in d.iter_mut().take(n).skip(l + 2) {
                    *di -= h;
                }
                f += h;

                // Implicit QL transformation.
                p = d[m];
                let mut c = 1.0f64;
                let mut c2 = c;
                let mut c3 = c;
                let el1 = e[l + 1];
                let mut s = 0.0f64;
                let mut s2 = 0.0f64;
                for i in (l..m).rev() {
                    c3 = c2;
                    c2 = c;
                    s2 = s;
                    let g = c * e[i];
                    h = c * p;
                    r = p.hypot(e[i]);
                    e[i + 1] = s * r;
                    s = e[i] / r;
                    c = p / r;
                    p = c * d[i] - s * g;
                    d[i + 1] = h + s * (c * g + s * d[i]);
                    // Accumulate eigenvectors.
                    if let Some(v) = v.as_deref_mut() {
                        for k in 0..n {
                            let h = v.get(k, i + 1);
                            v.set(k, i + 1, s * v.get(k, i) + c * h);
                            v.set(k, i, c * v.get(k, i) - s * h);
                        }
                    }
                }
                p = -s * s2 * c3 * el1 * e[l] / dl1;
                e[l] = s * p;
                d[l] = c * p;
                if e[l].abs() <= eps * tst1 {
                    break;
                }
            }
        }
        d[l] += f;
        e[l] = 0.0;
    }
    Ok(())
}

/// Selection sort of eigenpairs into ascending eigenvalue order.
fn sort_ascending(v: &mut Matrix, d: &mut [f64]) {
    let n = d.len();
    for i in 0..n.saturating_sub(1) {
        let mut k = i;
        let mut p = d[i];
        for (j, &dj) in d.iter().enumerate().take(n).skip(i + 1) {
            if dj < p {
                k = j;
                p = dj;
            }
        }
        if k != i {
            d.swap(i, k);
            for r in 0..n {
                let tmp = v.get(r, i);
                v.set(r, i, v.get(r, k));
                v.set(r, k, tmp);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gram, matmul, t_matmul};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_sym(n: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Matrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
        Matrix::from_fn(n, n, |r, c| 0.5 * (a.get(r, c) + a.get(c, r)))
    }

    fn check_eig(a: &Matrix, tol: f64) {
        let SymEig { values, vectors } = sym_eig(a).unwrap();
        let n = a.rows();
        // Ascending.
        for w in values.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
        // Orthonormal eigenvectors.
        assert!(t_matmul(&vectors, &vectors).approx_eq(&Matrix::identity(n), 1e-9));
        // A V = V Λ.
        let av = matmul(a, &vectors);
        let vl = matmul(&vectors, &Matrix::from_diag(&values));
        assert!(
            av.approx_eq(&vl, tol),
            "AV != VΛ, diff {}",
            av.max_abs_diff(&vl)
        );
    }

    #[test]
    fn eig_diag() {
        let a = Matrix::from_diag(&[3.0, 1.0, 2.0]);
        let SymEig { values, .. } = sym_eig(&a).unwrap();
        assert!((values[0] - 1.0).abs() < 1e-12);
        assert!((values[1] - 2.0).abs() < 1e-12);
        assert!((values[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn eig_2x2_known() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let a = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]).unwrap();
        let SymEig { values, .. } = sym_eig(&a).unwrap();
        assert!((values[0] - 1.0).abs() < 1e-12);
        assert!((values[1] - 3.0).abs() < 1e-12);
        check_eig(&a, 1e-10);
    }

    #[test]
    fn eig_random_sizes() {
        for &(n, seed) in &[(1, 1u64), (2, 2), (5, 3), (10, 4), (40, 5), (100, 6)] {
            check_eig(&random_sym(n, seed), 1e-8);
        }
    }

    #[test]
    fn eig_gram_is_psd() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Matrix::from_fn(30, 8, |_, _| rng.gen_range(-1.0..1.0));
        let g = gram(&a);
        let SymEig { values, .. } = sym_eig(&g).unwrap();
        for &v in &values {
            assert!(v > -1e-9, "Gram eigenvalue {v} should be non-negative");
        }
        check_eig(&g, 1e-8);
    }

    #[test]
    fn eig_repeated_eigenvalues() {
        // Identity has all eigenvalues 1.
        let a = Matrix::identity(6);
        let SymEig { values, vectors } = sym_eig(&a).unwrap();
        for &v in &values {
            assert!((v - 1.0).abs() < 1e-12);
        }
        assert!(t_matmul(&vectors, &vectors).approx_eq(&Matrix::identity(6), 1e-10));
    }

    #[test]
    fn eig_zero_matrix() {
        let a = Matrix::zeros(4, 4);
        let SymEig { values, .. } = sym_eig(&a).unwrap();
        assert!(values.iter().all(|&v| v.abs() < 1e-14));
    }

    #[test]
    fn eig_rejects_non_square() {
        assert!(sym_eig(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn top_order_and_shape() {
        let a = Matrix::from_diag(&[1.0, 5.0, 3.0, 4.0]);
        let top = sym_eig_top(&a, 2).unwrap();
        assert_eq!(top.values, vec![5.0, 4.0]);
        assert_eq!(top.vectors.shape(), (4, 2));
        // Largest eigenvalue 5 lives at index 1 → first column is ±e₁.
        assert!((top.vectors.get(1, 0).abs() - 1.0).abs() < 1e-10);
        // Second largest eigenvalue 4 lives at index 3.
        assert!((top.vectors.get(3, 1).abs() - 1.0).abs() < 1e-10);
        assert!(sym_eig_top(&a, 5).is_err());
    }

    #[test]
    fn top_matches_full_solver() {
        for &(n, k, seed) in &[(1, 1, 11u64), (7, 3, 12), (40, 5, 13), (100, 10, 14)] {
            let a = random_sym(n, seed);
            let full = sym_eig(&a).unwrap();
            let top = sym_eig_top(&a, k).unwrap();
            for j in 0..k {
                assert_eq!(top.values[j], full.values[n - 1 - j]);
                let ours = top.vectors.col(j);
                let theirs = full.vectors.col(n - 1 - j);
                let cos = crate::norms::dot(&ours, &theirs).abs();
                assert!((cos - 1.0).abs() < 1e-10, "vector {j}: |cos| = {cos}");
            }
        }
    }

    #[test]
    fn eig_empty() {
        let e = sym_eig(&Matrix::zeros(0, 0)).unwrap();
        assert!(e.values.is_empty());
    }
}
