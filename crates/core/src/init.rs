//! Initialization phase.
//!
//! Factor matrices are initialized **directly from the slice SVDs**, without
//! touching the raw tensor:
//!
//! * `A⁽¹⁾` — leading J₁ left singular vectors of the horizontal
//!   concatenation `[U₁Σ₁ | … | U_LΣ_L]` (computed through the smaller of
//!   the two Gram matrices, so the eigen cost is one tridiagonal reduction
//!   of a `min(I₁, L·k)`-sized Gram plus O(min(I₁, L·k)²·J₁) for the J₁
//!   leading eigenvectors);
//! * `A⁽²⁾` — same construction with `V_lΣ_l`;
//! * `A⁽ⁿ⁾, n ≥ 3` — leading Jₙ left singular vectors of the mode-`n`
//!   unfolding of the small projected tensor `Y` with slices
//!   `Y_l = A⁽¹⁾ᵀ X_l A⁽²⁾ ∈ R^{J₁×J₂}`.
//!
//! The same `Y` projected onto the trailing factors gives the initial core.

use crate::error::Result;
use crate::slices::SlicedTensor;
use dtucker_linalg::gemm::{matmul_t, t_matmul};
use dtucker_linalg::matrix::Matrix;
use dtucker_linalg::pool;
use dtucker_linalg::svd::leading_left_singular_vectors;
use dtucker_tensor::dense::DenseTensor;
use dtucker_tensor::ttm::ttm_t;
use dtucker_tensor::unfold::unfold;

/// Output of the initialization phase, in the sliced tensor's **internal**
/// mode order.
#[derive(Debug, Clone)]
pub struct Initialization {
    /// Factor matrices `A⁽ⁿ⁾ ∈ R^{Iₙ×Jₙ}` (internal order).
    pub factors: Vec<Matrix>,
    /// Initial core tensor (internal order).
    pub core: DenseTensor,
}

/// Runs the initialization phase on a compressed tensor with one worker
/// (see [`initialize_threaded`]).
///
/// `ranks` are the target ranks in the **internal** (permuted) mode order.
pub fn initialize(st: &SlicedTensor, ranks: &[usize]) -> Result<Initialization> {
    initialize_threaded(st, ranks, 1)
}

/// [`initialize`] with the per-slice work fanned out over `threads` pool
/// workers (`0` resolves through the pool policy). Slices are processed
/// independently, so the result is identical for every thread count.
pub fn initialize_threaded(
    st: &SlicedTensor,
    ranks: &[usize],
    threads: usize,
) -> Result<Initialization> {
    let shape = st.shape();
    let n_modes = shape.len();
    debug_assert_eq!(ranks.len(), n_modes);
    let (j1, j2) = (ranks[0], ranks[1]);
    let threads = pool::resolve_threads(threads);

    // A1 / A2 from the leading left singular vectors of the concatenations
    // [U₁Σ₁ | … | U_LΣ_L] and [V₁Σ₁ | … | V_LΣ_L]. The SVD routine takes
    // the smaller Gram, g = min(I, L·k) on a side, so the eigen cost is a
    // ~4/3·g³ tridiagonal reduction plus O(g²·J) for the J wanted
    // eigenvectors, never a full I×I eigendecomposition — crucial when a
    // very long mode ends up as a slice dimension (e.g. a short tensor
    // whose time mode dominates).
    let k = st.slice_rank();
    let l = st.num_slices();
    let mut concat_u = Matrix::zeros(shape[0], l * k);
    let mut concat_v = Matrix::zeros(shape[1], l * k);
    let scaled = pool::parallel_map(l, threads.min(l), |i| {
        let sl = &st.slices()[i];
        (sl.us(), sl.vs())
    });
    for (i, (us, vs)) in scaled.iter().enumerate() {
        for r in 0..shape[0] {
            concat_u.row_mut(r)[i * k..i * k + us.cols()].copy_from_slice(us.row(r));
        }
        for r in 0..shape[1] {
            concat_v.row_mut(r)[i * k..i * k + vs.cols()].copy_from_slice(vs.row(r));
        }
    }
    let a1 = leading_lsv_adaptive(&concat_u, j1)?;
    let a2 = leading_lsv_adaptive(&concat_v, j2)?;

    // Projected slices Y_l = (A1ᵀ U_l Σ_l)(A2ᵀ V_l)ᵀ.
    let y = projected_tensor_threaded(st, &a1, &a2, threads)?;

    // Trailing factors from the small tensor's unfoldings.
    let mut factors = vec![a1, a2];
    for mode in 2..n_modes {
        let unf = unfold(&y, mode)?;
        factors.push(leading_left_singular_vectors(&unf, ranks[mode])?);
    }

    // Initial core: project Y onto the trailing factors.
    let mut core = y;
    for mode in 2..n_modes {
        core = ttm_t(&core, &factors[mode], mode)?;
    }
    Ok(Initialization { factors, core })
}

/// Above this `min(m, n)`, initialization takes its leading singular vectors
/// from 8 deterministic subspace iterations (`O(iters·m·n·J)`) instead of the
/// Gram route: it only needs the right subspace, which the ALS sweeps then
/// polish. At rank 10 the concatenations of the paper-scale boats (700×2400)
/// and traffic (2000×960) presets cross the limit. On Gaussian matrices of
/// those shapes (2-vCPU VM, best of 3) the Gram route took 176 ms against
/// 77 ms for the subspace route at 700×2400, and 424 ms against 111 ms at
/// 2000×960, so routing them through it would slow paper-scale
/// initialization 2–4×.
const EXACT_LSV_LIMIT: usize = 600;

fn leading_lsv_adaptive(a: &Matrix, k: usize) -> Result<Matrix> {
    if a.rows().min(a.cols()) <= EXACT_LSV_LIMIT {
        Ok(leading_left_singular_vectors(a, k)?)
    } else {
        Ok(dtucker_linalg::svd::leading_left_singular_vectors_subspace(
            a, k, 8,
        )?)
    }
}

/// Builds the projected tensor `Y` of shape `(J₁, J₂, I₃, …, I_N)` whose
/// frontal slices are `A⁽¹⁾ᵀ X_l A⁽²⁾`, evaluated through the slice SVDs in
/// `O(L · (I₁+I₂) k J)` time. Single-worker form of
/// [`projected_tensor_threaded`].
pub fn projected_tensor(st: &SlicedTensor, a1: &Matrix, a2: &Matrix) -> Result<DenseTensor> {
    projected_tensor_threaded(st, a1, a2, 1)
}

/// [`projected_tensor`] with the per-slice products fanned out over
/// `threads` pool workers. Bit-identical for every thread count.
pub fn projected_tensor_threaded(
    st: &SlicedTensor,
    a1: &Matrix,
    a2: &Matrix,
    threads: usize,
) -> Result<DenseTensor> {
    let shape = st.shape();
    let mut y_shape = vec![a1.cols(), a2.cols()];
    y_shape.extend_from_slice(&shape[2..]);
    let slices = pool::parallel_map(st.num_slices(), threads.min(st.num_slices()), |l| {
        let sl = &st.slices()[l];
        let p = t_matmul(a1, &sl.us()); // J1 × k
        let q = t_matmul(a2, &sl.v); // J2 × k
        matmul_t(&p, &q) // J1 × J2
    });
    Ok(DenseTensor::from_frontal_slices(&y_shape, &slices)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DTuckerConfig;
    use crate::tucker::TuckerDecomp;
    use dtucker_tensor::random::low_rank_plus_noise;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn compressed(
        shape: &[usize],
        ranks: &[usize],
        noise: f64,
        seed: u64,
    ) -> (DenseTensor, SlicedTensor) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = low_rank_plus_noise(shape, ranks, noise, &mut rng).unwrap();
        let cfg = DTuckerConfig::new(ranks).with_seed(seed);
        let st = SlicedTensor::compress(&x, &cfg).unwrap();
        (x, st)
    }

    #[test]
    fn init_shapes() {
        let (_, st) = compressed(&[20, 16, 8], &[3, 2, 4], 0.05, 1);
        let init = initialize(&st, &[3, 2, 4]).unwrap();
        assert_eq!(init.factors.len(), 3);
        assert_eq!(init.factors[0].shape(), (20, 3));
        assert_eq!(init.factors[1].shape(), (16, 2));
        assert_eq!(init.factors[2].shape(), (8, 4));
        assert_eq!(init.core.shape(), &[3, 2, 4]);
    }

    #[test]
    fn init_factors_orthonormal() {
        let (_, st) = compressed(&[18, 14, 6], &[3, 3, 3], 0.1, 2);
        let init = initialize(&st, &[3, 3, 3]).unwrap();
        for f in &init.factors {
            assert!(f.has_orthonormal_cols(1e-8));
        }
    }

    #[test]
    fn init_recovers_exact_low_rank() {
        // For a noiseless low-rank tensor the initialization alone should
        // already be (nearly) exact.
        let (x, st) = compressed(&[20, 15, 10], &[3, 3, 3], 0.0, 3);
        let init = initialize(&st, &[3, 3, 3]).unwrap();
        let d = TuckerDecomp {
            core: init.core,
            factors: init.factors,
        };
        let err = d.relative_error_sq(&x).unwrap();
        assert!(err < 1e-10, "initialization error {err}");
    }

    #[test]
    fn init_on_noisy_tensor_is_reasonable() {
        let noise = 0.1;
        let (x, st) = compressed(&[30, 25, 12], &[3, 3, 3], noise, 4);
        let init = initialize(&st, &[3, 3, 3]).unwrap();
        let d = TuckerDecomp {
            core: init.core,
            factors: init.factors,
        };
        let err = d.relative_error_sq(&x).unwrap();
        // Optimal is ≈ noise²/(1+noise²) ≈ 0.0099; init should be within 2×.
        assert!(err < 0.03, "initialization error {err}");
    }

    #[test]
    fn init_order4() {
        let (x, st) = compressed(&[12, 10, 5, 4], &[2, 2, 2, 2], 0.0, 5);
        let init = initialize(&st, &[2, 2, 2, 2]).unwrap();
        assert_eq!(init.core.shape(), &[2, 2, 2, 2]);
        let d = TuckerDecomp {
            core: init.core,
            factors: init.factors,
        };
        assert!(d.relative_error_sq(&x).unwrap() < 1e-10);
    }

    #[test]
    fn projected_tensor_shape() {
        let (_, st) = compressed(&[20, 16, 8], &[3, 2, 4], 0.0, 6);
        let init = initialize(&st, &[3, 2, 4]).unwrap();
        let y = projected_tensor(&st, &init.factors[0], &init.factors[1]).unwrap();
        assert_eq!(y.shape(), &[3, 2, 8]);
    }
}
