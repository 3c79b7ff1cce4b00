//! The Tucker decomposition value type shared by D-Tucker and every
//! baseline.

use crate::error::{CoreError, Result};
use dtucker_linalg::matrix::Matrix;
use dtucker_tensor::dense::DenseTensor;
use dtucker_tensor::ttm::ttm;

/// A rank-(J₁,…,J_N) Tucker decomposition: a core tensor plus one factor
/// matrix per mode.
#[derive(Debug, Clone)]
pub struct TuckerDecomp {
    /// Core tensor `G ∈ R^{J₁×…×J_N}`.
    pub core: DenseTensor,
    /// Factor matrices `A⁽ⁿ⁾ ∈ R^{Iₙ×Jₙ}` with (approximately) orthonormal
    /// columns.
    pub factors: Vec<Matrix>,
}

impl TuckerDecomp {
    /// Validates internal shape consistency.
    pub fn validate(&self) -> Result<()> {
        if self.factors.len() != self.core.order() {
            return Err(CoreError::InvalidConfig {
                details: format!(
                    "{} factors for an order-{} core",
                    self.factors.len(),
                    self.core.order()
                ),
            });
        }
        for (n, f) in self.factors.iter().enumerate() {
            if f.cols() != self.core.shape()[n] {
                return Err(CoreError::InvalidConfig {
                    details: format!(
                        "factor {n} has {} columns but core mode {n} is {}",
                        f.cols(),
                        self.core.shape()[n]
                    ),
                });
            }
        }
        Ok(())
    }

    /// Number of modes.
    pub fn order(&self) -> usize {
        self.core.order()
    }

    /// The core tensor `G`.
    pub fn core(&self) -> &DenseTensor {
        &self.core
    }

    /// Checked access to factor `A⁽ⁿ⁾`.
    pub fn factor(&self, mode: usize) -> Result<&Matrix> {
        self.factors
            .get(mode)
            .ok_or_else(|| CoreError::InvalidConfig {
                details: format!(
                    "mode {mode} out of range for an order-{} decomposition",
                    self.factors.len()
                ),
            })
    }

    /// Shape of the tensor this decomposition approximates.
    pub fn full_shape(&self) -> Vec<usize> {
        self.factors.iter().map(Matrix::rows).collect()
    }

    /// Multilinear ranks `(J₁,…,J_N)`.
    pub fn ranks(&self) -> &[usize] {
        self.core.shape()
    }

    /// Expands `G ×₁ A⁽¹⁾ ⋯ ×_N A⁽ᴺ⁾` into the full tensor.
    pub fn reconstruct(&self) -> Result<DenseTensor> {
        self.validate()?;
        let mut t = self.core.clone();
        for (mode, f) in self.factors.iter().enumerate() {
            t = ttm(&t, f, mode)?;
        }
        Ok(t)
    }

    /// Relative squared reconstruction error `‖X − X̂‖²_F / ‖X‖²_F` against
    /// an explicit tensor (materializes the reconstruction).
    pub fn relative_error_sq(&self, x: &DenseTensor) -> Result<f64> {
        let rec = self.reconstruct()?;
        Ok(x.relative_error_sq(&rec)?)
    }

    /// Cheap error estimate `(‖X‖² − ‖G‖²)/‖X‖²`, exact when the factors are
    /// orthonormal and the core is the projection of `X` onto their span.
    pub fn projection_error_sq(&self, norm_x_sq: f64) -> f64 {
        if norm_x_sq == 0.0 {
            return 0.0;
        }
        ((norm_x_sq - self.core.fro_norm_sq()) / norm_x_sq).max(0.0)
    }

    /// Memory footprint of the decomposition in bytes (core + factors).
    pub fn memory_bytes(&self) -> usize {
        let f: usize = self.factors.iter().map(|m| m.len()).sum();
        (self.core.numel() + f) * std::mem::size_of::<f64>()
    }

    /// True when every factor matrix has orthonormal columns within `tol`.
    pub fn factors_orthonormal(&self, tol: f64) -> bool {
        self.factors.iter().all(|f| f.has_orthonormal_cols(tol))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtucker_tensor::random::random_tucker;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model(seed: u64) -> TuckerDecomp {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = random_tucker(&[8, 7, 6], &[3, 2, 4], &mut rng).unwrap();
        TuckerDecomp {
            core: m.core,
            factors: m.factors,
        }
    }

    #[test]
    fn shapes_and_validation() {
        let d = model(1);
        d.validate().unwrap();
        assert_eq!(d.full_shape(), vec![8, 7, 6]);
        assert_eq!(d.ranks(), &[3, 2, 4]);
    }

    #[test]
    fn validate_catches_mismatch() {
        let mut d = model(2);
        d.factors[1] = Matrix::zeros(7, 5);
        assert!(d.validate().is_err());
        let mut d = model(3);
        d.factors.pop();
        assert!(d.validate().is_err());
        assert!(d.reconstruct().is_err());
    }

    #[test]
    fn reconstruct_exact_model() {
        let d = model(4);
        let x = d.reconstruct().unwrap();
        assert_eq!(x.shape(), &[8, 7, 6]);
        // The decomposition reproduces itself exactly.
        assert!(d.relative_error_sq(&x).unwrap() < 1e-20);
    }

    #[test]
    fn projection_error_matches_exact_for_own_tensor() {
        let d = model(5);
        let x = d.reconstruct().unwrap();
        let est = d.projection_error_sq(x.fro_norm_sq());
        assert!(est < 1e-12, "estimate {est}");
    }

    #[test]
    fn memory_accounting() {
        let d = model(6);
        let expected = (3 * 2 * 4 + 8 * 3 + 7 * 2 + 6 * 4) * 8;
        assert_eq!(d.memory_bytes(), expected);
    }

    #[test]
    fn orthonormality_check() {
        let d = model(7);
        assert!(d.factors_orthonormal(1e-8));
        let mut d2 = d.clone();
        d2.factors[0].scale(2.0);
        assert!(!d2.factors_orthonormal(1e-8));
    }

    #[test]
    fn projection_error_zero_norm() {
        let d = model(8);
        assert_eq!(d.projection_error_sq(0.0), 0.0);
    }
}
