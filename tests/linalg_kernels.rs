//! Regression pins for the dense kernels behind decomposition and query
//! time: the leading-`k` symmetric eigensolver that the Gram-matrix SVD
//! routes use, checked against the full solver; the row-oriented
//! Householder QR, checked bit for bit against the column-at-a-time loop
//! it replaced; and the n-mode products `ttm` / `ttm_t` / `ttm_rows`,
//! checked bit for bit against unfold → GEMM → fold.

use dtucker_linalg::eig::{sym_eig, sym_eig_top};
use dtucker_linalg::gemm::{matmul, matmul_t, t_matmul};
use dtucker_linalg::norms;
use dtucker_linalg::pool::set_par_flop_threshold;
use dtucker_linalg::qr::{qr_thin, Qr};
use dtucker_linalg::Matrix;
use dtucker_tensor::dense::DenseTensor;
use dtucker_tensor::ttm::{ttm, ttm_rows, ttm_t};
use dtucker_tensor::unfold::{fold, unfold};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
}

fn random_sym(n: usize, seed: u64) -> Matrix {
    let a = random(n, n, seed);
    Matrix::from_fn(n, n, |r, c| 0.5 * (a.get(r, c) + a.get(c, r)))
}

/// `Q diag(spectrum) Qᵀ` for a random orthogonal `Q`.
fn with_spectrum(spectrum: &[f64], seed: u64) -> Matrix {
    let n = spectrum.len();
    let q = qr_thin(&random(n, n, seed)).q;
    let mut qd = q.clone();
    for r in 0..n {
        for (x, &l) in qd.row_mut(r).iter_mut().zip(spectrum) {
            *x *= l;
        }
    }
    let a = matmul_t(&qd, &q);
    Matrix::from_fn(n, n, |r, c| 0.5 * (a.get(r, c) + a.get(c, r)))
}

/// `‖A‖∞`, the largest absolute row sum.
fn inf_norm(a: &Matrix) -> f64 {
    (0..a.rows())
        .map(|r| a.row(r).iter().map(|x| x.abs()).sum::<f64>())
        .fold(0.0, f64::max)
}

/// Leading `k` columns of the full solver's eigenvectors, largest first.
fn oracle_top(full: &Matrix, k: usize) -> Matrix {
    let n = full.rows();
    Matrix::from_fn(n, k, |r, j| full.get(r, n - 1 - j))
}

/// Checks `sym_eig_top(a, k)` against `sym_eig(a)`: the same top-`k`
/// eigenvalues, small residuals, orthonormal columns, and — when the
/// spectrum has a real gap after position `k` — the same invariant
/// subspace, within the Davis–Kahan bound `ε‖A‖ / gap`.
fn check_top(a: &Matrix, k: usize) {
    let n = a.rows();
    let full = sym_eig(a).unwrap();
    let top = sym_eig_top(a, k).unwrap();
    assert_eq!(top.values.len(), k);
    assert_eq!(top.vectors.shape(), (n, k));
    for j in 0..k {
        assert_eq!(
            top.values[j],
            full.values[n - 1 - j],
            "eigenvalue {j} of {n}, k = {k}"
        );
    }

    let norm = inf_norm(a);
    let av = matmul(a, &top.vectors);
    for j in 0..k {
        for r in 0..n {
            let res = (av.get(r, j) - top.values[j] * top.vectors.get(r, j)).abs();
            assert!(
                res <= 1e-10 * norm,
                "residual {res:e} of vector {j} exceeds 1e-10·‖A‖ = {:e} (n = {n}, k = {k})",
                1e-10 * norm
            );
        }
    }

    let gram = t_matmul(&top.vectors, &top.vectors);
    let dev = gram.max_abs_diff(&Matrix::identity(k));
    assert!(
        dev <= 1e-10,
        "columns not orthonormal: {dev:e} (n = {n}, k = {k})"
    );

    if k > 0 && k < n {
        let gap = full.values[n - k] - full.values[n - k - 1];
        if gap > 1e-6 * norm {
            let ours = matmul_t(&top.vectors, &top.vectors);
            let u = oracle_top(&full.vectors, k);
            let theirs = matmul_t(&u, &u);
            let diff = ours.max_abs_diff(&theirs);
            let tol = 1e-13 * norm / gap;
            assert!(
                diff <= tol,
                "subspace differs by {diff:e} > {tol:e} (n = {n}, k = {k}, gap {gap:e})"
            );
        }
    }
}

#[test]
fn top_k_identity() {
    let a = Matrix::identity(7);
    for k in [0, 1, 3, 7] {
        check_top(&a, k);
    }
}

#[test]
fn top_k_repeated_eigenvalue_blocks() {
    // Block diagonal of [[2,1],[1,2]] (eigenvalues 3 and 1), three times:
    // the spectrum is 3,3,3,1,1,1.
    let mut a = Matrix::zeros(6, 6);
    for b in 0..3 {
        let i = 2 * b;
        a.set(i, i, 2.0);
        a.set(i + 1, i + 1, 2.0);
        a.set(i, i + 1, 1.0);
        a.set(i + 1, i, 1.0);
    }
    for k in 0..=6 {
        check_top(&a, k);
    }
    // The same multiplicities hidden behind a random rotation.
    let b = with_spectrum(&[5.0, 5.0, 5.0, 2.0, 2.0, 1.0, 1.0, 1.0, 0.5], 11);
    for k in 0..=9 {
        check_top(&b, k);
    }
}

#[test]
fn top_k_zero_matrix() {
    let a = Matrix::zeros(5, 5);
    for k in 0..=5 {
        check_top(&a, k);
        assert!(sym_eig_top(&a, k).unwrap().values.iter().all(|&v| v == 0.0));
    }
}

#[test]
fn top_k_rank_deficient_gram() {
    // 12 × 12 Gram of rank 3: nine eigenvalues sit at round-off level.
    let b = random(12, 3, 21);
    let g = matmul_t(&b, &b);
    for k in [1, 3, 5, 12] {
        check_top(&g, k);
    }
}

#[test]
fn top_k_smallest_shapes() {
    let one = Matrix::from_vec(1, 1, vec![-2.5]).unwrap();
    check_top(&one, 0);
    check_top(&one, 1);
    assert_eq!(sym_eig_top(&one, 1).unwrap().values, vec![-2.5]);
    let empty = sym_eig_top(&Matrix::zeros(0, 0), 0).unwrap();
    assert!(empty.values.is_empty());
    assert_eq!(empty.vectors.shape(), (0, 0));
    let a = random_sym(9, 31);
    check_top(&a, 0);
    check_top(&a, 9);
}

#[test]
fn top_k_rejects_bad_arguments() {
    assert!(sym_eig_top(&Matrix::zeros(2, 3), 1).is_err());
    assert!(sym_eig_top(&Matrix::identity(3), 4).is_err());
}

#[test]
fn top_k_graded_spectrum() {
    // 1, 1e-1, …, 1e-14: the small end is a cluster at round-off level.
    let spectrum: Vec<f64> = (0..15).map(|i| 10f64.powi(-i)).collect();
    let a = with_spectrum(&spectrum, 41);
    for k in [1, 4, 8, 15] {
        check_top(&a, k);
    }
}

#[test]
fn top_k_dominant_over_flat_floor() {
    // The shape of the initialization Gram on traffic data: λ₂/λ₁ = 0.012,
    // λ₃/λ₁ = 1e-3, then from 3.2e-5·λ₁ down a floor in which each
    // eigenvalue is 0.92–0.99 of the one before.
    let n = 80;
    let mut rng = StdRng::seed_from_u64(51);
    let mut spectrum = vec![1.0, 0.012, 1e-3, 3.2e-5];
    while spectrum.len() < n {
        let last = spectrum[spectrum.len() - 1];
        spectrum.push(last * rng.gen_range(0.92..0.99));
    }
    let a = with_spectrum(&spectrum, 52);
    for k in [1, 3, 10, 20] {
        check_top(&a, k);
    }
}

#[test]
fn top_k_weakly_coupled_blocks() {
    // 120 blocks [[0,1],[1,0]] chained by 1e-10 couplings: ~120 eigenvalues
    // lie within 1e-10 of 1, one cluster far larger than k whose vectors
    // only the Gram–Schmidt inside the cluster keeps apart.
    let n = 240;
    let mut a = Matrix::zeros(n, n);
    for i in 0..n - 1 {
        let c = if i % 2 == 0 { 1.0 } else { 1e-10 };
        a.set(i, i + 1, c);
        a.set(i + 1, i, c);
    }
    for k in [1, 10] {
        check_top(&a, k);
    }
}

#[test]
fn top_k_random_matrices() {
    for (n, seed) in [(2, 61u64), (17, 62), (64, 63)] {
        let a = random_sym(n, seed);
        for k in [1, n / 2, n] {
            check_top(&a, k);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn top_k_matches_full_solver(
        (n, k, seed) in (1usize..=40).prop_flat_map(|n| (Just(n), 0usize..=n, 0u64..1_000_000)),
    ) {
        check_top(&random_sym(n, seed), k);
    }

    #[test]
    fn top_k_matches_full_solver_on_grams(
        (m, cols, k, seed) in (1usize..=30, 1usize..=30)
            .prop_flat_map(|(m, c)| (Just(m), Just(c), 0usize..=m, 0u64..1_000_000)),
    ) {
        let b = random(m, cols, seed);
        check_top(&matmul_t(&b, &b), k);
    }
}

/// The Householder QR exactly as it stood before the row-oriented rewrite:
/// each reflector walks `work` and `Q` one column at a time.
fn qr_thin_column_walk(a: &Matrix) -> Qr {
    let (m, n) = a.shape();
    let t = m.min(n);
    let mut work = a.clone();
    let mut vs: Vec<Vec<f64>> = Vec::with_capacity(t);
    let mut betas: Vec<f64> = Vec::with_capacity(t);

    for k in 0..t {
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
        if beta != 0.0 {
            for c in k..n {
                let mut dot = 0.0;
                for (i, &vi) in v.iter().enumerate() {
                    dot += vi * work.get(k + i, c);
                }
                let s = beta * dot;
                for (i, &vi) in v.iter().enumerate() {
                    let cur = work.get(k + i, c);
                    work.set(k + i, c, cur - s * vi);
                }
            }
        }
        work.set(k, k, alpha);
        for r in (k + 1)..m {
            work.set(r, k, 0.0);
        }
        vs.push(v);
        betas.push(beta);
    }

    let mut r = Matrix::zeros(t, n);
    for i in 0..t {
        for j in i..n {
            r.set(i, j, work.get(i, j));
        }
    }

    let mut q = Matrix::zeros(m, t);
    for i in 0..t {
        q.set(i, i, 1.0);
    }
    for k in (0..t).rev() {
        let beta = betas[k];
        if beta == 0.0 {
            continue;
        }
        let v = &vs[k];
        for c in 0..t {
            let mut dot = 0.0;
            for (i, &vi) in v.iter().enumerate() {
                dot += vi * q.get(k + i, c);
            }
            let s = beta * dot;
            for (i, &vi) in v.iter().enumerate() {
                let cur = q.get(k + i, c);
                q.set(k + i, c, cur - s * vi);
            }
        }
    }

    Qr { q, r }
}

fn assert_same_bits(label: &str, ours: &Matrix, theirs: &Matrix) {
    assert_eq!(ours.shape(), theirs.shape(), "{label}: shape");
    for (i, (x, y)) in ours.as_slice().iter().zip(theirs.as_slice()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: element {i}: {x} vs {y}");
    }
}

fn assert_qr_bitwise(name: &str, a: &Matrix) {
    let ours = qr_thin(a);
    let theirs = qr_thin_column_walk(a);
    assert_same_bits(&format!("{name} Q"), &ours.q, &theirs.q);
    assert_same_bits(&format!("{name} R"), &ours.r, &theirs.r);
}

#[test]
fn qr_thin_is_bitwise_the_column_walk() {
    assert_qr_bitwise("wide 5x12", &random(5, 12, 71));
    assert_qr_bitwise("one row 1x7", &random(1, 7, 72));
    assert_qr_bitwise("one column 9x1", &random(9, 1, 73));
    let mut zero_col = random(8, 4, 74);
    for r in 0..8 {
        zero_col.set(r, 2, 0.0);
    }
    assert_qr_bitwise("zero column 8x4", &zero_col);
    let base = random(10, 2, 75);
    let deficient = base.hcat(&base).unwrap().hcat(&random(10, 1, 76)).unwrap();
    assert_qr_bitwise("rank-deficient 10x5", &deficient);
    assert_qr_bitwise("rSVD sketch 400x20", &random(400, 20, 77));
    assert_qr_bitwise("square 13x13", &random(13, 13, 78));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn qr_thin_is_bitwise_the_column_walk_on_random_shapes(
        (m, n, seed) in (1usize..=24, 1usize..=24, 0u64..1_000_000),
    ) {
        assert_qr_bitwise("random", &random(m, n, seed));
    }
}

fn random_tensor(shape: &[usize], seed: u64) -> DenseTensor {
    let mut rng = StdRng::seed_from_u64(seed);
    DenseTensor::from_fn(shape, |_| rng.gen_range(-1.0..1.0)).unwrap()
}

/// `X ×ₙ L` through the explicit unfolding: `fold(L · X₍ₙ₎)`, where
/// `product` is `matmul` or `t_matmul` applied to the unfolding.
fn ttm_oracle(x: &DenseTensor, mode: usize, product: impl Fn(&Matrix) -> Matrix) -> DenseTensor {
    let y = product(&unfold(x, mode).unwrap());
    let mut shape = x.shape().to_vec();
    shape[mode] = y.rows();
    fold(&y, mode, &shape).unwrap()
}

fn assert_tensor_bits(label: &str, ours: &DenseTensor, oracle: &DenseTensor) {
    assert_eq!(ours.shape(), oracle.shape(), "{label}: shape");
    for (i, (a, b)) in ours.as_slice().iter().zip(oracle.as_slice()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{label}: element {i}");
    }
}

/// Every mode of every shape, with the parallel path forced and then
/// disabled. The last mode of a shape takes the single-GEMM branch
/// (`right == 1`), every other mode the batched one, and the modes of
/// 260–300 cross the packed kernel's 256-long inner block.
#[test]
fn ttm_family_is_bitwise_unfold_gemm_fold() {
    let shapes: [&[usize]; 5] = [
        &[300, 3, 2],
        &[2, 260, 3],
        &[3, 2, 270],
        &[5, 4, 3, 2],
        &[7],
    ];
    for threshold in [Some(0), Some(usize::MAX)] {
        set_par_flop_threshold(threshold);
        for (s, shape) in shapes.iter().enumerate() {
            let x = random_tensor(shape, 90 + s as u64);
            for (mode, &i_n) in shape.iter().enumerate() {
                for j in [1, 3, 9] {
                    let seed = 1000 * s as u64 + 10 * mode as u64 + j as u64;
                    let label = format!("{shape:?} mode {mode} J {j} threshold {threshold:?}");
                    let a = random(j, i_n, seed);
                    let want = ttm_oracle(&x, mode, |u| matmul(&a, u));
                    assert_tensor_bits(&format!("ttm {label}"), &ttm(&x, &a, mode).unwrap(), &want);

                    let f = random(i_n, j, seed + 5);
                    let want = ttm_oracle(&x, mode, |u| t_matmul(&f, u));
                    let got = ttm_t(&x, &f, mode).unwrap();
                    assert_tensor_bits(&format!("ttm_t {label}"), &got, &want);

                    let tall = random(j + 4, i_n, seed + 7);
                    for (r0, r1) in [(0, j + 4), (2, 2 + j), (j + 3, j + 4)] {
                        let sub = tall.submatrix(r0, r1, 0, i_n);
                        let want = ttm_oracle(&x, mode, |u| matmul(&sub, u));
                        let got = ttm_rows(&x, &tall, r0, r1, mode).unwrap();
                        assert_tensor_bits(&format!("ttm_rows {r0}..{r1} {label}"), &got, &want);
                    }
                }
            }
        }
    }
    set_par_flop_threshold(None);
}
