//! n-mode (tensor-times-matrix) products.
//!
//! `ttm(x, a, n)` computes `Y = X ×ₙ A`, i.e. `Y₍ₙ₎ = A X₍ₙ₎`, without
//! materializing the unfolding: with Fortran layout the tensor factors into
//! `right` contiguous blocks that are row-major `Iₙ × left` matrices, so the
//! product is a batch of GEMMs over buffer windows.
//!
//! `ttm`, `ttm_t` and `ttm_rows` differ only in how the `J × Iₙ` left
//! operand is read (a row window of `A`, or the transpose of a factor), so
//! all three run the same batched contraction.
//!
//! Large contractions fan out across the shared worker pool: the batch of
//! `right` independent GEMMs is split block-wise (bit-identical for any
//! thread count since each output block is computed by exactly one worker),
//! and a single big GEMM (`right == 1`) splits internally by output rows.

use crate::dense::DenseTensor;
use crate::error::{Result, TensorError};
use dtucker_linalg::gemm::{matmul_into_threaded, t_matmul_into_threaded};
use dtucker_linalg::matrix::Matrix;
use dtucker_linalg::pool;

/// Computes `X ×ₙ A` where `A ∈ R^{J×Iₙ}` (contracting `A`'s columns with
/// mode `n`). The result has mode `n` of size `J`.
pub fn ttm(x: &DenseTensor, a: &Matrix, mode: usize) -> Result<DenseTensor> {
    contract("ttm", x, a, Lhs::Rows(0, a.rows()), mode)
}

/// Computes `X ×ₙ Aᵀ` where `A ∈ R^{Iₙ×J}` is a factor matrix (contracting
/// `A`'s **rows** with mode `n`). This is the HOOI projection step
/// `X ×ₙ A⁽ⁿ⁾ᵀ` without forming the transpose.
pub fn ttm_t(x: &DenseTensor, a: &Matrix, mode: usize) -> Result<DenseTensor> {
    contract("ttm_t", x, a, Lhs::Trans, mode)
}

/// Computes `X ×ₙ A[r0..r1, :]` — the n-mode product with a **row range**
/// of `A`, without materializing the sub-matrix: rows of a row-major
/// matrix are contiguous, so the batched GEMMs read the window in place.
/// The result has mode `n` of size `r1 - r0`.
///
/// This is the contraction primitive of factored range queries: serving a
/// hyper-rectangle of a Tucker reconstruction contracts each factor over
/// only the requested rows.
pub fn ttm_rows(
    x: &DenseTensor,
    a: &Matrix,
    r0: usize,
    r1: usize,
    mode: usize,
) -> Result<DenseTensor> {
    contract("ttm_rows", x, a, Lhs::Rows(r0, r1), mode)
}

/// How the left operand `L ∈ R^{J×Iₙ}` of `X ×ₙ L` is read from `A`.
#[derive(Clone, Copy)]
enum Lhs {
    /// `L = A[r0..r1, :]` for a row-major `A ∈ R^{·×Iₙ}`.
    Rows(usize, usize),
    /// `L = Aᵀ` for a row-major factor `A ∈ R^{Iₙ×J}`.
    Trans,
}

/// The one n-mode product behind [`ttm`], [`ttm_t`] and [`ttm_rows`].
fn contract(
    op: &'static str,
    x: &DenseTensor,
    a: &Matrix,
    lhs: Lhs,
    mode: usize,
) -> Result<DenseTensor> {
    let shape = x.shape();
    let order = shape.len();
    if mode >= order {
        return Err(TensorError::InvalidMode { mode, order });
    }
    let i_n = shape[mode];
    // Columns of `L` (must be Iₙ), rows `L` may take, and the rows it does.
    let (contracted, available, (r0, r1)) = match lhs {
        Lhs::Rows(r0, r1) => (a.cols(), a.rows(), (r0, r1)),
        Lhs::Trans => (a.rows(), a.cols(), (0, a.cols())),
    };
    if contracted != i_n {
        return Err(TensorError::ShapeMismatch {
            op,
            details: format!(
                "matrix {:?} cannot contract mode {mode} of {:?}",
                a.shape(),
                shape
            ),
        });
    }
    if r0 >= r1 || r1 > available {
        return Err(TensorError::ShapeMismatch {
            op,
            details: format!("output rows {r0}..{r1} invalid for matrix {:?}", a.shape()),
        });
    }
    let j = r1 - r0;
    let left: usize = shape[..mode].iter().product();
    let right: usize = shape[mode + 1..].iter().product();

    let mut out_shape = shape.to_vec();
    out_shape[mode] = j;
    let mut out = DenseTensor::zeros(&out_shape)?;

    // Input block r is a row-major Iₙ × left matrix; output block r is
    // row-major J × left, the product of `L` with input block r.
    let a = a.as_slice();
    let gemm = |xblk: &[f64], yblk: &mut [f64], nthreads: usize| match lhs {
        Lhs::Rows(..) => {
            matmul_into_threaded(&a[r0 * i_n..r1 * i_n], xblk, yblk, j, i_n, left, nthreads)
        }
        Lhs::Trans => t_matmul_into_threaded(a, xblk, yblk, i_n, j, left, nthreads),
    };
    let xin = x.as_slice();
    let xout = out.as_mut_slice();
    let in_block = i_n * left;
    let out_block = j * left;
    let nthreads = pool::threads_for_flops(2 * j * i_n * left * right);
    if right == 1 {
        // One big GEMM: let it split internally by output rows.
        gemm(xin, xout, nthreads);
    } else {
        // Blocks are independent, so the batch fans out across the pool
        // block-wise and each GEMM runs serial.
        pool::parallel_chunks(xout, out_block, nthreads, |b0, chunk| {
            for (b, yblk) in chunk.chunks_exact_mut(out_block).enumerate() {
                let r = b0 + b;
                gemm(&xin[r * in_block..(r + 1) * in_block], yblk, 1);
            }
        });
    }
    Ok(out)
}

/// Applies `X ×ₖ A⁽ᵏ⁾ᵀ` for every `(k, A⁽ᵏ⁾)` pair, skipping mode
/// `skip` (pass `usize::MAX` to apply all). Factors are `Iₖ × Jₖ`.
///
/// Modes are processed in order of decreasing size reduction
/// (`Iₖ − Jₖ`), which minimizes intermediate tensor volume — the standard
/// multi-TTM ordering trick.
pub fn multi_ttm_t(x: &DenseTensor, factors: &[Matrix], skip: usize) -> Result<DenseTensor> {
    if factors.len() != x.order() {
        return Err(TensorError::ShapeMismatch {
            op: "multi_ttm_t",
            details: format!("{} factors for order-{} tensor", factors.len(), x.order()),
        });
    }
    let mut modes: Vec<usize> = (0..x.order()).filter(|&k| k != skip).collect();
    modes.sort_by_key(|&k| {
        // Largest reduction first (negative for sort ascending).
        -((x.shape()[k] as isize) - (factors[k].cols() as isize))
    });
    let mut cur = x.clone();
    for &k in &modes {
        cur = ttm_t(&cur, &factors[k], k)?;
    }
    Ok(cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unfold::unfold;
    use dtucker_linalg::gemm::matmul;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_tensor(shape: &[usize], seed: u64) -> DenseTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        DenseTensor::from_fn(shape, |_| rng.gen_range(-1.0..1.0)).unwrap()
    }

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
    }

    /// Reference implementation through explicit unfolding.
    fn ttm_reference(x: &DenseTensor, a: &Matrix, mode: usize) -> DenseTensor {
        let unf = unfold(x, mode).unwrap();
        let prod = matmul(a, &unf);
        let mut shape = x.shape().to_vec();
        shape[mode] = a.rows();
        crate::unfold::fold(&prod, mode, &shape).unwrap()
    }

    #[test]
    fn ttm_matches_unfold_route_all_modes() {
        let x = random_tensor(&[4, 5, 3, 2], 1);
        for mode in 0..4 {
            let a = random_matrix(2, x.shape()[mode], 10 + mode as u64);
            let fast = ttm(&x, &a, mode).unwrap();
            let slow = ttm_reference(&x, &a, mode);
            assert!(
                fast.sub(&slow).unwrap().fro_norm() < 1e-10,
                "mode {mode} mismatch"
            );
        }
    }

    #[test]
    fn ttm_t_matches_explicit_transpose() {
        let x = random_tensor(&[6, 4, 3], 2);
        for mode in 0..3 {
            let a = random_matrix(x.shape()[mode], 2, 20 + mode as u64);
            let fast = ttm_t(&x, &a, mode).unwrap();
            let slow = ttm(&x, &a.transpose(), mode).unwrap();
            assert!(fast.sub(&slow).unwrap().fro_norm() < 1e-10, "mode {mode}");
        }
    }

    #[test]
    fn ttm_known_values() {
        // X of shape 2x2, A = [[1, 1]] (1x2): mode-0 product sums rows.
        let x = DenseTensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let a = Matrix::from_vec(1, 2, vec![1.0, 1.0]).unwrap();
        let y = ttm(&x, &a, 0).unwrap();
        assert_eq!(y.shape(), &[1, 2]);
        assert_eq!(y.as_slice(), &[3.0, 7.0]);
    }

    #[test]
    fn ttm_mode_commutativity() {
        // X ×₀ A ×₂ B == X ×₂ B ×₀ A for distinct modes.
        let x = random_tensor(&[5, 4, 6], 3);
        let a = random_matrix(2, 5, 30);
        let b = random_matrix(3, 6, 31);
        let p1 = ttm(&ttm(&x, &a, 0).unwrap(), &b, 2).unwrap();
        let p2 = ttm(&ttm(&x, &b, 2).unwrap(), &a, 0).unwrap();
        assert!(p1.sub(&p2).unwrap().fro_norm() < 1e-10);
    }

    #[test]
    fn ttm_same_mode_composes() {
        // (X ×₀ A) ×₀ B == X ×₀ (BA).
        let x = random_tensor(&[5, 3], 4);
        let a = random_matrix(4, 5, 40);
        let b = random_matrix(2, 4, 41);
        let p1 = ttm(&ttm(&x, &a, 0).unwrap(), &b, 0).unwrap();
        let p2 = ttm(&x, &matmul(&b, &a), 0).unwrap();
        assert!(p1.sub(&p2).unwrap().fro_norm() < 1e-10);
    }

    #[test]
    fn multi_ttm_t_matches_sequential() {
        let x = random_tensor(&[6, 5, 4], 5);
        let factors = vec![
            random_matrix(6, 2, 50),
            random_matrix(5, 3, 51),
            random_matrix(4, 2, 52),
        ];
        let all = multi_ttm_t(&x, &factors, usize::MAX).unwrap();
        let mut seq = x.clone();
        for (k, f) in factors.iter().enumerate() {
            seq = ttm_t(&seq, f, k).unwrap();
        }
        assert!(all.sub(&seq).unwrap().fro_norm() < 1e-10);
        assert_eq!(all.shape(), &[2, 3, 2]);

        let skip1 = multi_ttm_t(&x, &factors, 1).unwrap();
        assert_eq!(skip1.shape(), &[2, 5, 2]);
    }

    #[test]
    fn ttm_rows_matches_submatrix_route() {
        let x = random_tensor(&[4, 5, 3], 11);
        for mode in 0..3 {
            let a = random_matrix(7, x.shape()[mode], 60 + mode as u64);
            for &(r0, r1) in &[(0usize, 7usize), (2, 5), (6, 7)] {
                let fast = ttm_rows(&x, &a, r0, r1, mode).unwrap();
                let sub = a.submatrix(r0, r1, 0, a.cols());
                let slow = ttm(&x, &sub, mode).unwrap();
                // Identical kernel over identical bytes: bit-equal.
                assert_eq!(fast.as_slice(), slow.as_slice(), "mode {mode} {r0}..{r1}");
            }
            // Degenerate/invalid ranges and shapes are typed errors.
            assert!(ttm_rows(&x, &a, 3, 3, mode).is_err());
            assert!(ttm_rows(&x, &a, 5, 8, mode).is_err());
        }
        assert!(ttm_rows(&x, &Matrix::zeros(2, 9), 0, 1, 0).is_err());
        assert!(ttm_rows(&x, &Matrix::zeros(2, 4), 0, 1, 5).is_err());
    }

    #[test]
    fn ttm_validates_inputs() {
        let x = random_tensor(&[3, 3], 6);
        assert!(ttm(&x, &Matrix::zeros(2, 4), 0).is_err()); // wrong cols
        assert!(ttm(&x, &Matrix::zeros(2, 3), 5).is_err()); // bad mode
        assert!(ttm_t(&x, &Matrix::zeros(4, 2), 0).is_err());
        assert!(ttm_t(&x, &Matrix::zeros(3, 2), 9).is_err());
        assert!(multi_ttm_t(&x, &[Matrix::zeros(3, 2)], usize::MAX).is_err());
    }

    #[test]
    fn ttm_with_identity_is_noop() {
        let x = random_tensor(&[4, 3, 2], 7);
        for mode in 0..3 {
            let id = Matrix::identity(x.shape()[mode]);
            let y = ttm(&x, &id, mode).unwrap();
            assert!(y.sub(&x).unwrap().fro_norm() < 1e-12);
        }
    }

    #[test]
    fn ttm_orthonormal_projection_shrinks_norm() {
        let x = random_tensor(&[8, 6, 4], 8);
        let q = dtucker_linalg::qr::orthonormalize(&random_matrix(8, 3, 80));
        let y = ttm_t(&x, &q, 0).unwrap();
        assert!(y.fro_norm() <= x.fro_norm() + 1e-12);
    }
}
