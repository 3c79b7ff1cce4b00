//! Random tensor generators used by tests and benchmarks.
//!
//! Domain-specific workload generators (video, traffic, …) live in the
//! `dtucker-data` crate; these are the generic building blocks.

use crate::dense::DenseTensor;
use crate::error::Result;
use crate::ttm::ttm;
use dtucker_linalg::matrix::Matrix;
use dtucker_linalg::qr::orthonormalize;
use dtucker_linalg::random::{gaussian, gaussian_matrix};
use rand::Rng;

/// A tensor of i.i.d. standard normal entries.
pub fn gaussian_tensor<R: Rng + ?Sized>(shape: &[usize], rng: &mut R) -> Result<DenseTensor> {
    DenseTensor::from_fn(shape, |_| gaussian(rng))
}

/// A random Tucker model: orthonormal factors plus a Gaussian core.
#[derive(Debug, Clone)]
pub struct RandomTucker {
    /// Orthonormal factor matrices `Iₙ × Jₙ`.
    pub factors: Vec<Matrix>,
    /// Gaussian core tensor of shape `ranks`.
    pub core: DenseTensor,
}

/// Draws a random Tucker model with the given shape and multilinear ranks.
pub fn random_tucker<R: Rng + ?Sized>(
    shape: &[usize],
    ranks: &[usize],
    rng: &mut R,
) -> Result<RandomTucker> {
    assert_eq!(shape.len(), ranks.len(), "shape/ranks order mismatch");
    // Ranks can never exceed the corresponding dimension.
    let ranks: Vec<usize> = ranks
        .iter()
        .zip(shape.iter())
        .map(|(&j, &i)| j.min(i))
        .collect();
    let factors: Vec<Matrix> = shape
        .iter()
        .zip(ranks.iter())
        .map(|(&i, &j)| orthonormalize(&gaussian_matrix(i, j, rng)))
        .collect();
    let core = gaussian_tensor(&ranks, rng)?;
    Ok(RandomTucker { factors, core })
}

impl RandomTucker {
    /// Expands the model to the full tensor `G ×₁ A⁽¹⁾ ⋯ ×_N A⁽ᴺ⁾`.
    pub fn expand(&self) -> Result<DenseTensor> {
        let mut t = self.core.clone();
        for (mode, f) in self.factors.iter().enumerate() {
            t = ttm(&t, f, mode)?;
        }
        Ok(t)
    }
}

/// A low-multilinear-rank tensor plus Gaussian noise:
/// `X = expand(random_tucker) + noise_level · ‖signal‖/‖noise‖ · N`.
///
/// `noise_level` is the resulting noise-to-signal Frobenius ratio, so the
/// optimal rank-`ranks` relative reconstruction error is ≈
/// `noise_level² / (1 + noise_level²)`.
pub fn low_rank_plus_noise<R: Rng + ?Sized>(
    shape: &[usize],
    ranks: &[usize],
    noise_level: f64,
    rng: &mut R,
) -> Result<DenseTensor> {
    let model = random_tucker(shape, ranks, rng)?;
    let mut x = model.expand()?;
    if noise_level > 0.0 {
        let noise = gaussian_tensor(shape, rng)?;
        let scale = noise_level * x.fro_norm() / noise.fro_norm().max(f64::MIN_POSITIVE);
        x.axpy(scale, &noise)?;
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_tucker_shapes() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = random_tucker(&[8, 7, 6], &[3, 2, 4], &mut rng).unwrap();
        assert_eq!(m.factors[0].shape(), (8, 3));
        assert_eq!(m.factors[2].shape(), (6, 4));
        assert_eq!(m.core.shape(), &[3, 2, 4]);
        let x = m.expand().unwrap();
        assert_eq!(x.shape(), &[8, 7, 6]);
        // Orthonormal factors preserve the core's norm.
        assert!((x.fro_norm() - m.core.fro_norm()).abs() < 1e-9);
    }

    #[test]
    fn low_rank_plus_noise_has_expected_noise_ratio() {
        let mut rng = StdRng::seed_from_u64(3);
        let clean = low_rank_plus_noise(&[10, 9, 8], &[2, 2, 2], 0.0, &mut rng).unwrap();
        assert_eq!(clean.shape(), &[10, 9, 8]);

        let mut rng = StdRng::seed_from_u64(4);
        let model = random_tucker(&[10, 9, 8], &[2, 2, 2], &mut rng).unwrap();
        let signal = model.expand().unwrap();
        let mut rng2 = StdRng::seed_from_u64(4);
        let noisy = low_rank_plus_noise(&[10, 9, 8], &[2, 2, 2], 0.1, &mut rng2).unwrap();
        let resid = noisy.sub(&signal).unwrap();
        let ratio = resid.fro_norm() / signal.fro_norm();
        assert!((ratio - 0.1).abs() < 1e-9, "noise ratio {ratio}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = low_rank_plus_noise(&[5, 5, 5], &[2, 2, 2], 0.05, &mut StdRng::seed_from_u64(7))
            .unwrap();
        let b = low_rank_plus_noise(&[5, 5, 5], &[2, 2, 2], 0.05, &mut StdRng::seed_from_u64(7))
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn ranks_clamped_to_dims() {
        let mut rng = StdRng::seed_from_u64(8);
        let m = random_tucker(&[3, 4], &[5, 2], &mut rng).unwrap();
        // Rank clamped to dimension 3.
        assert_eq!(m.factors[0].shape(), (3, 3));
    }
}
