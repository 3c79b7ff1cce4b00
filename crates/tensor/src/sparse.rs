//! COO sparse tensors.
//!
//! The MACH baseline sparsifies a dense tensor by keeping each entry with
//! probability `p` (rescaled by `1/p`); the result lives here. Only the
//! operations Tucker-ALS needs are provided: a transposed n-mode product
//! into a dense tensor (after the first contraction the operand is dense
//! anyway) and densification.

use crate::dense::DenseTensor;
use crate::error::{Result, TensorError};
use dtucker_linalg::matrix::Matrix;
use rand::Rng;

/// A sparse tensor in coordinate (COO) format.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseTensor {
    shape: Vec<usize>,
    /// Flattened multi-indices, `order` entries per nonzero.
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl SparseTensor {
    /// Creates an empty sparse tensor of the given shape.
    pub fn new(shape: &[usize]) -> Result<Self> {
        if shape.is_empty() || shape.contains(&0) {
            return Err(TensorError::ShapeMismatch {
                op: "SparseTensor::new",
                details: format!("invalid shape {:?}", shape),
            });
        }
        Ok(SparseTensor {
            shape: shape.to_vec(),
            indices: Vec::new(),
            values: Vec::new(),
        })
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The tensor's order.
    pub fn order(&self) -> usize {
        self.shape.len()
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Appends a nonzero. Indices must be in range.
    pub fn push(&mut self, idx: &[usize], v: f64) -> Result<()> {
        if idx.len() != self.order() || idx.iter().zip(&self.shape).any(|(&i, &d)| i >= d) {
            return Err(TensorError::ShapeMismatch {
                op: "SparseTensor::push",
                details: format!("index {:?} out of range for {:?}", idx, self.shape),
            });
        }
        self.indices.extend_from_slice(idx);
        self.values.push(v);
        Ok(())
    }

    /// Iterates `(multi_index, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[usize], f64)> + '_ {
        let n = self.order();
        self.values
            .iter()
            .enumerate()
            .map(move |(k, &v)| (&self.indices[k * n..(k + 1) * n], v))
    }

    /// MACH sampling: keeps each entry of `x` independently with probability
    /// `p` and rescales kept entries by `1/p` (an unbiased estimator of the
    /// tensor).
    pub fn sample_from_dense<R: Rng + ?Sized>(
        x: &DenseTensor,
        p: f64,
        rng: &mut R,
    ) -> Result<Self> {
        if !(0.0..=1.0).contains(&p) || p == 0.0 {
            return Err(TensorError::ShapeMismatch {
                op: "sample_from_dense",
                details: format!("sampling rate {p} must be in (0, 1]"),
            });
        }
        let mut out = SparseTensor::new(x.shape())?;
        let order = x.order();
        let inv_p = 1.0 / p;
        let mut idx = vec![0usize; order];
        for &v in x.as_slice() {
            if v != 0.0 && rng.gen_range(0.0..1.0) < p {
                out.indices.extend_from_slice(&idx);
                out.values.push(v * inv_p);
            }
            crate::dense::increment_index(&mut idx, x.shape());
        }
        Ok(out)
    }

    /// Materializes the dense tensor.
    pub fn to_dense(&self) -> Result<DenseTensor> {
        let mut t = DenseTensor::zeros(&self.shape)?;
        for (idx, v) in self.iter() {
            let off = t.linear_index(idx);
            t.as_mut_slice()[off] += v;
        }
        Ok(t)
    }

    /// Transposed n-mode product `Y = X ×ₙ Aᵀ` with `A ∈ R^{Iₙ×J}`,
    /// producing a **dense** tensor (mode `n` of size `J`).
    ///
    /// Cost is `O(nnz · J)` — the whole point of running Tucker on a MACH
    /// sample.
    pub fn ttm_t(&self, a: &Matrix, mode: usize) -> Result<DenseTensor> {
        let order = self.order();
        if mode >= order {
            return Err(TensorError::InvalidMode { mode, order });
        }
        if a.rows() != self.shape[mode] {
            return Err(TensorError::ShapeMismatch {
                op: "SparseTensor::ttm_t",
                details: format!(
                    "matrix {:?} cannot contract mode {mode} of {:?}",
                    a.shape(),
                    self.shape
                ),
            });
        }
        let j = a.cols();
        let mut out_shape = self.shape.clone();
        out_shape[mode] = j;
        let mut out = DenseTensor::zeros(&out_shape)?;

        // Precompute output strides (Fortran).
        let mut strides = vec![1usize; order];
        for k in 1..order {
            strides[k] = strides[k - 1] * out_shape[k - 1];
        }
        let odat = out.as_mut_slice();
        let n = order;
        for (k, &v) in self.values.iter().enumerate() {
            let idx = &self.indices[k * n..(k + 1) * n];
            let mut base = 0usize;
            for (m, (&i, &s)) in idx.iter().zip(strides.iter()).enumerate() {
                if m != mode {
                    base += i * s;
                }
            }
            let arow = a.row(idx[mode]);
            let sm = strides[mode];
            for (jj, &ajj) in arow.iter().enumerate().take(j) {
                odat[base + jj * sm] += v * ajj;
            }
        }
        Ok(out)
    }

    /// Squared Frobenius norm of the stored values.
    pub fn fro_norm_sq(&self) -> f64 {
        self.values.iter().map(|&v| v * v).sum()
    }

    /// Memory footprint in bytes (indices + values).
    pub fn memory_bytes(&self) -> usize {
        self.indices.len() * std::mem::size_of::<usize>()
            + self.values.len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ttm::ttm_t;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dense_example() -> DenseTensor {
        DenseTensor::from_fn(&[3, 4, 2], |idx| {
            (idx[0] + idx[1] * 10 + idx[2] * 100) as f64
        })
        .unwrap()
    }

    #[test]
    fn push_and_to_dense() {
        let mut s = SparseTensor::new(&[2, 3]).unwrap();
        s.push(&[0, 1], 5.0).unwrap();
        s.push(&[1, 2], -2.0).unwrap();
        assert_eq!(s.nnz(), 2);
        let d = s.to_dense().unwrap();
        assert_eq!(d.get(&[0, 1]), 5.0);
        assert_eq!(d.get(&[1, 2]), -2.0);
        assert_eq!(d.get(&[0, 0]), 0.0);
        assert!(s.push(&[2, 0], 1.0).is_err());
        assert!(s.push(&[0], 1.0).is_err());
    }

    #[test]
    fn sample_full_rate_is_lossless() {
        let x = dense_example();
        let mut rng = StdRng::seed_from_u64(1);
        let s = SparseTensor::sample_from_dense(&x, 1.0, &mut rng).unwrap();
        let back = s.to_dense().unwrap();
        assert!(back.sub(&x).unwrap().fro_norm() < 1e-12);
    }

    #[test]
    fn sample_rate_controls_nnz() {
        let x = DenseTensor::from_fn(&[20, 20, 5], |_| 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let s = SparseTensor::sample_from_dense(&x, 0.3, &mut rng).unwrap();
        let frac = s.nnz() as f64 / x.numel() as f64;
        assert!((frac - 0.3).abs() < 0.05, "kept fraction {frac}");
        // Rescaling keeps the sum unbiased (roughly).
        let total: f64 = s.to_dense().unwrap().as_slice().iter().sum();
        assert!((total - 2000.0).abs() / 2000.0 < 0.1);
        assert!(SparseTensor::sample_from_dense(&x, 0.0, &mut rng).is_err());
        assert!(SparseTensor::sample_from_dense(&x, 1.5, &mut rng).is_err());
    }

    #[test]
    fn sparse_ttm_t_matches_dense() {
        let x = dense_example();
        let mut rng = StdRng::seed_from_u64(3);
        let s = SparseTensor::sample_from_dense(&x, 1.0, &mut rng).unwrap();
        for mode in 0..3 {
            let a = dtucker_linalg::random::gaussian_matrix(x.shape()[mode], 2, &mut rng);
            let sparse_res = s.ttm_t(&a, mode).unwrap();
            let dense_res = ttm_t(&x, &a, mode).unwrap();
            assert!(
                sparse_res.sub(&dense_res).unwrap().fro_norm() < 1e-9,
                "mode {mode}"
            );
        }
    }

    #[test]
    fn sparse_ttm_t_validates() {
        let s = SparseTensor::new(&[3, 3]).unwrap();
        assert!(s.ttm_t(&Matrix::zeros(2, 2), 0).is_err());
        assert!(s.ttm_t(&Matrix::zeros(3, 2), 7).is_err());
    }

    #[test]
    fn memory_accounting() {
        let mut s = SparseTensor::new(&[4, 4]).unwrap();
        s.push(&[1, 1], 1.0).unwrap();
        assert_eq!(s.memory_bytes(), 2 * 8 + 8);
        assert_eq!(s.fro_norm_sq(), 1.0);
    }

    #[test]
    fn new_validates_shape() {
        assert!(SparseTensor::new(&[]).is_err());
        assert!(SparseTensor::new(&[3, 0]).is_err());
    }
}
