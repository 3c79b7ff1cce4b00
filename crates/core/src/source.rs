//! Out-of-core slice sourcing: the [`SliceSource`] abstraction.
//!
//! D-Tucker's approximation phase only ever needs one frontal slice
//! `X_l ∈ R^{I₁×I₂}` at a time, so the full `DenseTensor` never has to be
//! resident: anything that can produce slices **in the internal (permuted)
//! mode order** can feed [`SlicedTensor::compress_source`], which loads
//! slices in bounded chunks and keeps only the compressed output. Peak
//! memory is `O(I₁·I₂·chunk + compressed)` instead of `O(I₁·I₂·L)`.
//!
//! Two implementations live here:
//!
//! * [`InMemorySource`] — borrows a [`DenseTensor`] and gathers each
//!   permuted slice from its original buffer through [`SliceGeometry`];
//! * [`SyntheticSource`] — generates seeded low-rank slices on demand, so
//!   benchmarks can exercise tensors far larger than RAM.
//!
//! The chunked on-disk reader over `.dten` files (`DtenSliceSource`) lives
//! in the `dtucker-store` crate, which re-exports this trait.
//!
//! ## Contract
//!
//! For a virtual tensor `X` with **original** shape `S` and permutation
//! `perm` (internal position → original mode):
//!
//! 1. [`shape`](SliceSource::shape) is the permuted shape
//!    (`shape[p] = S[perm[p]]`), with at least two modes;
//! 2. [`load_slice`](SliceSource::load_slice) returns frontal slice `l` of
//!    the permuted tensor as an `I₁×I₂` row-major [`Matrix`], slices
//!    indexed in Fortran order over the trailing internal modes;
//! 3. [`fro_norm_sq`](SliceSource::fro_norm_sq) must equal
//!    `DenseTensor::fro_norm_sq()` of the original tensor **bit-for-bit**
//!    (use `dtucker_linalg::norms::FroNormAccumulator` over the original
//!    Fortran element order) — the value seeds the iteration phase's
//!    convergence functional, so an inexact norm would break the
//!    bit-identity guarantee between in-memory and out-of-core runs.
//!
//! [`SlicedTensor::compress_source`]: crate::slices::SlicedTensor::compress_source

use crate::error::{CoreError, Result};
use crate::slices::slice_seed;
use dtucker_linalg::matrix::Matrix;
use dtucker_linalg::norms::FroNormAccumulator;
use dtucker_linalg::qr::orthonormalize;
use dtucker_linalg::random::gaussian_matrix;
use dtucker_linalg::svd::scale_cols;
use dtucker_tensor::dense::DenseTensor;
use dtucker_tensor::unfold::{check_permutation, descending_mode_order};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// On-demand producer of frontal slices in internal (permuted) mode order.
///
/// Methods take `&mut self` because implementations may hold I/O cursors or
/// lazily computed caches; the chunked compression driver loads slices
/// serially and only fans out the (pure) per-slice SVDs.
pub trait SliceSource {
    /// Shape in the internal (permuted) mode order.
    fn shape(&self) -> &[usize];

    /// Mode permutation: `perm()[p]` is the original mode stored at
    /// internal position `p`.
    fn perm(&self) -> &[usize];

    /// Number of frontal slices `L = I₃⋯I_N` (1 for order-2 tensors).
    fn num_slices(&self) -> usize {
        self.shape()[2..].iter().product()
    }

    /// The shape in the **original** mode order (derived from
    /// [`shape`](Self::shape) and [`perm`](Self::perm)).
    fn original_shape(&self) -> Vec<usize> {
        let shape = self.shape();
        let perm = self.perm();
        let mut orig = vec![0usize; shape.len()];
        for (p, &m) in perm.iter().enumerate() {
            orig[m] = shape[p];
        }
        orig
    }

    /// Loads frontal slice `l` as an `I₁ × I₂` row-major matrix.
    fn load_slice(&mut self, l: usize) -> Result<Matrix>;

    /// Loads the contiguous slice range `start..end`. Chunked readers
    /// override this to batch their I/O; the default calls
    /// [`load_slice`](Self::load_slice) per index.
    fn load_slices(&mut self, start: usize, end: usize) -> Result<Vec<Matrix>> {
        (start..end).map(|l| self.load_slice(l)).collect()
    }

    /// `‖X‖²_F` of the original tensor, bit-identical to
    /// `DenseTensor::fro_norm_sq()` on the materialized tensor.
    fn fro_norm_sq(&mut self) -> Result<f64>;

    /// Bytes one resident slice occupies (for peak-memory accounting).
    fn slice_bytes(&self) -> usize {
        self.shape()[0] * self.shape()[1] * std::mem::size_of::<f64>()
    }
}

/// Where the frontal slices of a permuted view sit in the **original**
/// Fortran-order buffer: the one slice geometry every source that reads
/// original-order data ([`InMemorySource`], the store's `DtenSliceSource`)
/// gathers through, so neither ever builds a permuted copy.
#[derive(Debug, Clone)]
pub struct SliceGeometry {
    /// Shape in the internal (permuted) order.
    shape: Vec<usize>,
    /// Internal position → original mode.
    perm: Vec<usize>,
    /// Fortran strides of the original shape, in elements.
    strides: Vec<usize>,
}

impl SliceGeometry {
    /// The geometry of `original` viewed through `perm`. Fails unless the
    /// tensor has at least two modes and `perm` is a permutation of them.
    pub fn new(original: &[usize], perm: &[usize]) -> Result<Self> {
        if original.len() < 2 {
            return Err(CoreError::InvalidConfig {
                details: format!("slice sourcing needs order >= 2, got shape {original:?}"),
            });
        }
        check_permutation(perm, original.len())?;
        let mut strides = vec![1usize; original.len()];
        for m in 1..original.len() {
            strides[m] = strides[m - 1] * original[m - 1];
        }
        Ok(SliceGeometry {
            shape: perm.iter().map(|&p| original[p]).collect(),
            perm: perm.to_vec(),
            strides,
        })
    }

    /// Shape in the internal (permuted) order.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Internal position → original mode.
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    fn num_slices(&self) -> usize {
        self.shape[2..].iter().product()
    }

    /// `(base, s0, s1)` for frontal slice `l`: internal element
    /// `(r, c, …)` of the slice is original element `base + r·s0 + c·s1`.
    /// Fails unless `l` names one of the `L` slices.
    pub fn slice(&self, l: usize) -> Result<(usize, usize, usize)> {
        if l >= self.num_slices() {
            return Err(CoreError::InvalidConfig {
                details: format!("slice {l} out of range (have {})", self.num_slices()),
            });
        }
        let mut base = 0usize;
        let mut rem = l;
        for (p, &dim) in self.shape.iter().enumerate().skip(2) {
            base += (rem % dim) * self.strides[self.perm[p]];
            rem /= dim;
        }
        Ok((base, self.strides[self.perm[0]], self.strides[self.perm[1]]))
    }
}

/// [`SliceSource`] over a borrowed [`DenseTensor`]: each permuted frontal
/// slice is gathered straight from the original buffer, so the extra
/// memory is one slice per loaded slice, never a permuted copy.
#[derive(Debug, Clone)]
pub struct InMemorySource<'a> {
    x: &'a DenseTensor,
    geometry: SliceGeometry,
    norm_x_sq: f64,
}

impl<'a> InMemorySource<'a> {
    /// Wraps a tensor with the paper's default reordering (two largest
    /// modes first).
    pub fn new(x: &'a DenseTensor) -> Result<Self> {
        Self::with_perm(x, &descending_mode_order(x.shape()))
    }

    /// Wraps a tensor with an explicit mode permutation.
    pub fn with_perm(x: &'a DenseTensor, perm: &[usize]) -> Result<Self> {
        Ok(InMemorySource {
            x,
            geometry: SliceGeometry::new(x.shape(), perm)?,
            norm_x_sq: x.fro_norm_sq(),
        })
    }
}

impl SliceSource for InMemorySource<'_> {
    fn shape(&self) -> &[usize] {
        self.geometry.shape()
    }

    fn perm(&self) -> &[usize] {
        self.geometry.perm()
    }

    fn load_slice(&mut self, l: usize) -> Result<Matrix> {
        let (base, s0, s1) = self.geometry.slice(l)?;
        let data = self.x.as_slice();
        let mut m = Matrix::zeros(self.shape()[0], self.shape()[1]);
        for r in 0..m.rows() {
            let row_base = base + r * s0;
            for (c, v) in m.row_mut(r).iter_mut().enumerate() {
                *v = data[row_base + c * s1];
            }
        }
        Ok(m)
    }

    fn fro_norm_sq(&mut self) -> Result<f64> {
        Ok(self.norm_x_sq)
    }
}

/// Seeded synthetic low-rank slice generator: slice `l` is
/// `U diag(w_l) Vᵀ` with fixed orthonormal `U ∈ R^{I₁×r}`, `V ∈ R^{I₂×r}`
/// and per-slice weights drawn from a seed derived from `(seed, l)`.
///
/// Memory is `O((I₁+I₂)·r)` no matter how many slices the virtual tensor
/// has, so benchmarks can source tensors far larger than RAM. The modes are
/// served in the given order (identity permutation).
#[derive(Debug, Clone)]
pub struct SyntheticSource {
    shape: Vec<usize>,
    perm: Vec<usize>,
    u: Matrix,
    v: Matrix,
    rank: usize,
    seed: u64,
    norm_cache: Option<f64>,
}

impl SyntheticSource {
    /// Creates a generator for the given (internal-order) shape and slice
    /// rank.
    pub fn new(shape: &[usize], rank: usize, seed: u64) -> Result<Self> {
        if shape.len() < 2 {
            return Err(CoreError::InvalidConfig {
                details: "SyntheticSource requires order >= 2".into(),
            });
        }
        if shape.contains(&0) {
            return Err(CoreError::InvalidConfig {
                details: format!("zero dimension in {shape:?}"),
            });
        }
        if rank == 0 || rank > shape[0].min(shape[1]) {
            return Err(CoreError::InvalidConfig {
                details: format!(
                    "slice rank {rank} invalid for leading dims {}x{}",
                    shape[0], shape[1]
                ),
            });
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let u = orthonormalize(&gaussian_matrix(shape[0], rank, &mut rng));
        let v = orthonormalize(&gaussian_matrix(shape[1], rank, &mut rng));
        Ok(SyntheticSource {
            shape: shape.to_vec(),
            perm: (0..shape.len()).collect(),
            u,
            v,
            rank,
            seed,
            norm_cache: None,
        })
    }

    fn weights(&self, l: usize) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(slice_seed(self.seed ^ 0x5EED, l));
        gaussian_matrix(self.rank, 1, &mut rng).into_vec()
    }

    fn build_slice(&self, l: usize) -> Matrix {
        let w = self.weights(l);
        dtucker_linalg::gemm::matmul_t(&scale_cols(&self.u, &w), &self.v)
    }

    /// Materializes the full tensor (test/verification helper — defeats the
    /// point for large shapes).
    pub fn materialize(&self) -> Result<DenseTensor> {
        let mats: Vec<Matrix> = (0..self.num_slices())
            .map(|l| self.build_slice(l))
            .collect();
        Ok(DenseTensor::from_frontal_slices(&self.shape, &mats)?)
    }
}

impl SliceSource for SyntheticSource {
    fn shape(&self) -> &[usize] {
        &self.shape
    }

    fn perm(&self) -> &[usize] {
        &self.perm
    }

    fn load_slice(&mut self, l: usize) -> Result<Matrix> {
        if l >= self.num_slices() {
            return Err(CoreError::InvalidConfig {
                details: format!("slice {l} out of range (have {})", self.num_slices()),
            });
        }
        Ok(self.build_slice(l))
    }

    fn fro_norm_sq(&mut self) -> Result<f64> {
        if let Some(n) = self.norm_cache {
            return Ok(n);
        }
        // Feed the accumulator in the Fortran element order of the
        // materialized tensor (i₁ fastest, then i₂, then the slice index)
        // so the result is bit-identical to materialize().fro_norm_sq().
        let (i1, i2) = (self.shape[0], self.shape[1]);
        let mut acc = FroNormAccumulator::new();
        for l in 0..self.num_slices() {
            let m = self.build_slice(l);
            for c in 0..i2 {
                for r in 0..i1 {
                    acc.push(m.get(r, c));
                }
            }
        }
        let n = acc.norm_sq();
        self.norm_cache = Some(n);
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtucker_tensor::random::low_rank_plus_noise;
    use dtucker_tensor::unfold::permute;

    #[test]
    fn in_memory_source_matches_tensor() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = low_rank_plus_noise(&[8, 12, 5], &[2, 2, 2], 0.1, &mut rng).unwrap();
        let mut src = InMemorySource::new(&x).unwrap();
        assert_eq!(src.shape(), &[12, 8, 5]);
        assert_eq!(src.perm(), &[1, 0, 2]);
        assert_eq!(src.original_shape(), vec![8, 12, 5]);
        assert_eq!(src.num_slices(), 5);
        assert_eq!(
            src.fro_norm_sq().unwrap().to_bits(),
            x.fro_norm_sq().to_bits()
        );
        let internal = permute(&x, &[1, 0, 2]).unwrap();
        for l in 0..5 {
            assert_eq!(
                src.load_slice(l).unwrap(),
                internal.frontal_slice(l).unwrap()
            );
        }
        assert_eq!(src.slice_bytes(), 12 * 8 * 8);
    }

    #[test]
    fn load_slices_default_matches_per_slice() {
        let mut rng = StdRng::seed_from_u64(2);
        let x = low_rank_plus_noise(&[6, 9, 4], &[2, 2, 2], 0.0, &mut rng).unwrap();
        let mut src = InMemorySource::new(&x).unwrap();
        let batch = src.load_slices(1, 4).unwrap();
        for (i, m) in batch.iter().enumerate() {
            assert_eq!(*m, src.load_slice(1 + i).unwrap());
        }
    }

    #[test]
    fn synthetic_source_is_deterministic_and_matches_materialization() {
        let mut a = SyntheticSource::new(&[10, 8, 6], 3, 42).unwrap();
        let mut b = SyntheticSource::new(&[10, 8, 6], 3, 42).unwrap();
        for l in [0usize, 3, 5] {
            assert_eq!(a.load_slice(l).unwrap(), b.load_slice(l).unwrap());
        }
        let x = a.materialize().unwrap();
        assert_eq!(x.shape(), &[10, 8, 6]);
        assert_eq!(
            a.fro_norm_sq().unwrap().to_bits(),
            x.fro_norm_sq().to_bits()
        );
        // Cache path returns the same value.
        assert_eq!(
            a.fro_norm_sq().unwrap().to_bits(),
            x.fro_norm_sq().to_bits()
        );
        // Different seeds give different data.
        let mut c = SyntheticSource::new(&[10, 8, 6], 3, 43).unwrap();
        assert_ne!(c.load_slice(0).unwrap(), b.load_slice(0).unwrap());
    }

    #[test]
    fn synthetic_source_validates() {
        assert!(SyntheticSource::new(&[5], 1, 0).is_err());
        assert!(SyntheticSource::new(&[5, 0, 2], 1, 0).is_err());
        assert!(SyntheticSource::new(&[5, 4, 2], 0, 0).is_err());
        assert!(SyntheticSource::new(&[5, 4, 2], 5, 0).is_err());
        let mut s = SyntheticSource::new(&[5, 4, 2], 2, 0).unwrap();
        assert!(s.load_slice(2).is_err());
    }
}
