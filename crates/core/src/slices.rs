//! Approximation phase: the sliced-SVD compressed tensor.
//!
//! D-Tucker reorders the modes so the two largest come first, views the
//! tensor as `L = I₃⋯I_N` frontal slices `X_l ∈ R^{I₁×I₂}`, and compresses
//! each slice with a truncated (by default randomized) SVD. The collection
//! of slice SVDs — [`SlicedTensor`] — is the only representation of the data
//! used by the initialization and iteration phases.

use crate::config::{DTuckerConfig, SliceSvdKind};
use crate::error::{CoreError, Result};
use crate::source::{InMemorySource, SliceSource};
use dtucker_linalg::matrix::Matrix;
use dtucker_linalg::pool;
use dtucker_linalg::rsvd::{rsvd, RsvdConfig};
use dtucker_linalg::svd::{scale_cols, svd, truncated_svd_gram};
use dtucker_tensor::dense::{checked_num_elements, DenseTensor};
use dtucker_tensor::unfold::{
    check_permutation, descending_mode_order, inverse_permutation, permute,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Truncated SVD of one frontal slice.
#[derive(Debug, Clone)]
pub struct SliceSvd {
    /// Left singular vectors, `I₁ × k`.
    pub u: Matrix,
    /// Singular values, descending, length `k`.
    pub s: Vec<f64>,
    /// Right singular vectors, `I₂ × k`.
    pub v: Matrix,
}

impl SliceSvd {
    /// `U diag(s)` — the scaled left factor used throughout the pipeline.
    pub fn us(&self) -> Matrix {
        scale_cols(&self.u, &self.s)
    }

    /// `V diag(s)`.
    pub fn vs(&self) -> Matrix {
        scale_cols(&self.v, &self.s)
    }

    /// Reconstructs the slice `U diag(s) Vᵀ`.
    pub fn reconstruct(&self) -> Matrix {
        dtucker_linalg::gemm::matmul_t(&self.us(), &self.v)
    }

    /// Squared Frobenius norm of the compressed slice (`Σ σ²`).
    pub fn fro_norm_sq(&self) -> f64 {
        self.s.iter().map(|&x| x * x).sum()
    }

    /// Bytes stored for this slice.
    pub fn memory_bytes(&self) -> usize {
        (self.u.len() + self.s.len() + self.v.len()) * std::mem::size_of::<f64>()
    }
}

/// The compressed output of D-Tucker's approximation phase.
#[derive(Debug, Clone)]
pub struct SlicedTensor {
    /// Shape in the **internal** (permuted) mode order.
    shape: Vec<usize>,
    /// `perm[p]` is the original mode stored at internal position `p`.
    perm: Vec<usize>,
    /// Rank of every slice SVD.
    slice_rank: usize,
    /// One SVD per frontal slice, Fortran order over modes 3..N.
    slices: Vec<SliceSvd>,
    /// `‖X‖²_F` of the original tensor (used for cheap error estimates).
    norm_x_sq: f64,
}

impl SlicedTensor {
    /// Compresses a tensor, reordering modes so the two largest lead
    /// (the paper's default).
    pub fn compress(x: &DenseTensor, cfg: &DTuckerConfig) -> Result<Self> {
        let perm = descending_mode_order(x.shape());
        Self::compress_with_perm(x, &perm, cfg)
    }

    /// Compresses a tensor keeping the **last mode last** (required by the
    /// streaming extension, where new data arrives along the last mode);
    /// the remaining modes are still sorted descending.
    pub fn compress_keep_last(x: &DenseTensor, cfg: &DTuckerConfig) -> Result<Self> {
        let n = x.order();
        let mut perm = descending_mode_order(&x.shape()[..n - 1]);
        perm.push(n - 1);
        Self::compress_with_perm(x, &perm, cfg)
    }

    /// Compresses with an explicit mode permutation (`perm[p]` = original
    /// mode placed at internal position `p`).
    pub fn compress_with_perm(
        x: &DenseTensor,
        perm: &[usize],
        cfg: &DTuckerConfig,
    ) -> Result<Self> {
        Self::compress_source(&mut InMemorySource::with_perm(x, perm)?, cfg)
    }

    /// Compresses a tensor presented through a [`SliceSource`] — the
    /// out-of-core approximation phase. Slices are loaded in chunks of
    /// [`DTuckerConfig::chunk_slices`] (0 = auto) and compressed across the
    /// shared worker pool, so peak memory is
    /// `O(I₁·I₂·chunk + compressed output)` instead of `O(I₁·I₂·L)`.
    ///
    /// Per-slice RNG seeds depend only on `cfg.seed` and the global slice
    /// index, and the source's norm contract is bit-exact, so the result is
    /// **bit-identical** for every chunk size, thread count, and source
    /// backing (in-memory vs on-disk) of the same data.
    pub fn compress_source(src: &mut dyn SliceSource, cfg: &DTuckerConfig) -> Result<Self> {
        cfg.validate(&src.original_shape())?;
        let shape = src.shape().to_vec();
        let perm = src.perm().to_vec();
        let j1 = cfg.ranks[perm[0]];
        let j2 = cfg.ranks[perm[1]];
        let k = cfg.effective_slice_rank(j1, j2).min(shape[0]).min(shape[1]);
        let num = src.num_slices();
        let slices = compress_source_slices(src, k, cfg, 0, num)?;
        let norm_x_sq = src.fro_norm_sq()?;
        Ok(SlicedTensor {
            shape,
            perm,
            slice_rank: k,
            slices,
            norm_x_sq,
        })
    }

    /// Rebuilds a [`SlicedTensor`] from its raw parts (deserialization
    /// hook for the `dtucker-store` artifact format). Validates shape,
    /// permutation, slice count, and per-slice dimensions.
    pub fn from_parts(
        shape: Vec<usize>,
        perm: Vec<usize>,
        slice_rank: usize,
        slices: Vec<SliceSvd>,
        norm_x_sq: f64,
    ) -> Result<Self> {
        let invalid = |details: String| CoreError::InvalidConfig { details };
        if shape.len() < 2 || shape.contains(&0) {
            return Err(invalid(format!("implausible sliced shape {shape:?}")));
        }
        check_permutation(&perm, shape.len()).map_err(|e| invalid(e.to_string()))?;
        // The whole shape's count bounds its trailing modes' slice count.
        if checked_num_elements(&shape).is_none() {
            return Err(invalid(format!(
                "sliced shape {shape:?} overflows the element count"
            )));
        }
        let expected: usize = shape[2..].iter().product();
        if slices.len() != expected {
            return Err(invalid(format!(
                "shape {shape:?} has {expected} slices, got {}",
                slices.len()
            )));
        }
        if slice_rank == 0 || slice_rank > shape[0].min(shape[1]) {
            return Err(invalid(format!(
                "slice rank {slice_rank} invalid for leading dims {}x{}",
                shape[0], shape[1]
            )));
        }
        for (l, sl) in slices.iter().enumerate() {
            let k = sl.s.len();
            if k == 0 || k > slice_rank {
                return Err(invalid(format!(
                    "slice {l} stores rank {k}, outside 1..={slice_rank}"
                )));
            }
            if sl.u.shape() != (shape[0], k) || sl.v.shape() != (shape[1], k) {
                return Err(invalid(format!(
                    "slice {l} factor shapes {:?}/{:?} inconsistent with {shape:?} rank {k}",
                    sl.u.shape(),
                    sl.v.shape()
                )));
            }
        }
        if !norm_x_sq.is_finite() || norm_x_sq < 0.0 {
            return Err(invalid(format!("implausible norm {norm_x_sq}")));
        }
        Ok(SlicedTensor {
            shape,
            perm,
            slice_rank,
            slices,
            norm_x_sq,
        })
    }

    /// Internal (permuted) shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Mode permutation (internal position → original mode).
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// Number of frontal slices `L`.
    pub fn num_slices(&self) -> usize {
        self.slices.len()
    }

    /// Rank of every slice SVD.
    pub fn slice_rank(&self) -> usize {
        self.slice_rank
    }

    /// The slice SVDs.
    pub fn slices(&self) -> &[SliceSvd] {
        &self.slices
    }

    /// `‖X‖²_F` of the tensor that was compressed.
    pub fn norm_x_sq(&self) -> f64 {
        self.norm_x_sq
    }

    /// `Σ_l Σ_j σ_{lj}²` — the squared norm of the compressed approximation.
    pub fn compressed_norm_sq(&self) -> f64 {
        self.slices.iter().map(SliceSvd::fro_norm_sq).sum()
    }

    /// Bytes stored by the compressed representation.
    pub fn memory_bytes(&self) -> usize {
        self.slices.iter().map(SliceSvd::memory_bytes).sum()
    }

    /// Bytes the raw dense tensor would occupy.
    pub fn dense_bytes(&self) -> usize {
        self.shape.iter().product::<usize>() * std::mem::size_of::<f64>()
    }

    /// Compression ratio `dense / compressed`.
    pub fn compression_ratio(&self) -> f64 {
        self.dense_bytes() as f64 / self.memory_bytes().max(1) as f64
    }

    /// Reconstructs the full tensor in the **original** mode order.
    pub fn reconstruct(&self) -> Result<DenseTensor> {
        let mats: Vec<Matrix> = self.slices.iter().map(SliceSvd::reconstruct).collect();
        let internal = DenseTensor::from_frontal_slices(&self.shape, &mats)?;
        Ok(permute(&internal, &inverse_permutation(&self.perm))?)
    }

    /// Relative squared compression error against the original tensor.
    pub fn compression_error_sq(&self, x: &DenseTensor) -> Result<f64> {
        Ok(x.relative_error_sq(&self.reconstruct()?)?)
    }

    /// Appends a block along the **original last mode** (streaming).
    ///
    /// Requires that the representation was built with
    /// [`compress_keep_last`], so the internal last mode is the temporal
    /// one; `block` must match the original shape in every other mode.
    pub fn append_block(&mut self, block: &DenseTensor, cfg: &DTuckerConfig) -> Result<()> {
        let n = self.shape.len();
        if self.perm.last() != Some(&(n - 1)) {
            return Err(CoreError::InvalidConfig {
                details: "append_block requires a compress_keep_last layout".into(),
            });
        }
        if block.order() != n {
            return Err(CoreError::InvalidConfig {
                details: format!("block order {} vs tensor order {}", block.order(), n),
            });
        }
        // Check all non-temporal dims match (in original order).
        let inv = inverse_permutation(&self.perm);
        for orig_mode in 0..n - 1 {
            let expected = self.shape[inv[orig_mode]];
            if block.shape()[orig_mode] != expected {
                return Err(CoreError::InvalidConfig {
                    details: format!(
                        "block mode {orig_mode} is {}, expected {expected}",
                        block.shape()[orig_mode]
                    ),
                });
            }
        }
        self.append_source(&mut InMemorySource::with_perm(block, &self.perm)?, cfg)
    }

    /// Appends a block presented through a [`SliceSource`] that already
    /// serves slices in **this** representation's internal order: the
    /// source's permutation must equal [`perm`](Self::perm) and its shape
    /// must match in every mode except the internal last one. The block's
    /// slices are loaded in chunks, so streaming appends never materialize
    /// the block as a `DenseTensor`.
    pub fn append_source(&mut self, src: &mut dyn SliceSource, cfg: &DTuckerConfig) -> Result<()> {
        let n = self.shape.len();
        if src.perm() != self.perm.as_slice() {
            return Err(CoreError::InvalidConfig {
                details: format!(
                    "source perm {:?} does not match representation perm {:?}",
                    src.perm(),
                    self.perm
                ),
            });
        }
        if src.shape().len() != n || src.shape()[..n - 1] != self.shape[..n - 1] {
            return Err(CoreError::InvalidConfig {
                details: format!(
                    "source shape {:?} incompatible with {:?} (all modes but the last must match)",
                    src.shape(),
                    self.shape
                ),
            });
        }
        let num = src.num_slices();
        let new_slices = compress_source_slices(src, self.slice_rank, cfg, self.slices.len(), num)?;
        self.slices.extend(new_slices);
        self.shape[n - 1] += src.shape()[n - 1];
        self.norm_x_sq += src.fro_norm_sq()?;
        Ok(())
    }
}

/// Compresses slices `[index_offset, index_offset + num)` drawn from a
/// [`SliceSource`] in chunks of `cfg.effective_chunk_slices(..)`: each
/// chunk is loaded serially (sources own I/O cursors), then its per-slice
/// SVDs fan out over the shared worker pool. Seeds use the **global** slice
/// index, so chunking and threading never change the result.
fn compress_source_slices(
    src: &mut dyn SliceSource,
    k: usize,
    cfg: &DTuckerConfig,
    index_offset: usize,
    num: usize,
) -> Result<Vec<SliceSvd>> {
    let chunk = cfg.effective_chunk_slices(num);
    let mut out = Vec::with_capacity(num);
    let mut l0 = 0usize;
    while l0 < num {
        let l1 = (l0 + chunk).min(num);
        let mats = src.load_slices(l0, l1)?;
        let threads = pool::resolve_threads(cfg.threads).min(l1 - l0);
        let compressed: Result<Vec<SliceSvd>> = pool::parallel_map(l1 - l0, threads, |i| {
            compress_one(
                &mats[i],
                k,
                cfg,
                slice_seed(cfg.seed, index_offset + l0 + i),
            )
        })
        .into_iter()
        .collect();
        out.extend(compressed?);
        l0 = l1;
    }
    Ok(out)
}

/// Derives a per-slice seed (splitmix-style) so compression is reproducible
/// independent of threading.
pub(crate) fn slice_seed(base: u64, l: usize) -> u64 {
    let mut z = base ^ (l as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn compress_one(m: &Matrix, k: usize, cfg: &DTuckerConfig, seed: u64) -> Result<SliceSvd> {
    let d = match cfg.slice_svd {
        SliceSvdKind::Randomized => {
            let mut rng = StdRng::seed_from_u64(seed);
            rsvd(
                m,
                RsvdConfig {
                    rank: k,
                    oversample: cfg.oversample,
                    power_iters: cfg.power_iters,
                },
                &mut rng,
            )?
        }
        SliceSvdKind::Exact => {
            if k * 4 < m.rows().min(m.cols()) {
                truncated_svd_gram(m, k)?
            } else {
                svd(m)?.truncate(k)
            }
        }
    };
    Ok(SliceSvd {
        u: d.u,
        s: d.s,
        v: d.v,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtucker_tensor::random::low_rank_plus_noise;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn config(j: usize, n: usize) -> DTuckerConfig {
        DTuckerConfig::uniform(j, n).with_seed(7)
    }

    #[test]
    fn compress_low_rank_is_nearly_exact() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = low_rank_plus_noise(&[20, 16, 6], &[3, 3, 3], 0.0, &mut rng).unwrap();
        let st = SlicedTensor::compress(&x, &config(3, 3)).unwrap();
        assert_eq!(st.num_slices(), 6);
        let err = st.compression_error_sq(&x).unwrap();
        assert!(err < 1e-12, "compression error {err}");
    }

    #[test]
    fn compress_reorders_modes_descending() {
        let mut rng = StdRng::seed_from_u64(2);
        let x = low_rank_plus_noise(&[6, 30, 20], &[2, 2, 2], 0.0, &mut rng).unwrap();
        let st = SlicedTensor::compress(&x, &config(2, 3)).unwrap();
        // Internal shape must be sorted descending: 30, 20, 6.
        assert_eq!(st.shape(), &[30, 20, 6]);
        assert_eq!(st.perm(), &[1, 2, 0]);
        // Reconstruction comes back in the original order.
        let rec = st.reconstruct().unwrap();
        assert_eq!(rec.shape(), &[6, 30, 20]);
        assert!(x.relative_error_sq(&rec).unwrap() < 1e-12);
    }

    #[test]
    fn keep_last_layout() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = low_rank_plus_noise(&[10, 30, 12], &[2, 2, 2], 0.0, &mut rng).unwrap();
        let st = SlicedTensor::compress_keep_last(&x, &config(2, 3)).unwrap();
        // First two sorted among modes 0..1 (30, 10), last stays 12.
        assert_eq!(st.shape(), &[30, 10, 12]);
        assert_eq!(st.perm(), &[1, 0, 2]);
    }

    #[test]
    fn memory_is_much_smaller_than_dense() {
        let mut rng = StdRng::seed_from_u64(4);
        let x = low_rank_plus_noise(&[60, 50, 20], &[3, 3, 3], 0.05, &mut rng).unwrap();
        let st = SlicedTensor::compress(&x, &config(3, 3)).unwrap();
        assert!(st.memory_bytes() < st.dense_bytes() / 2);
        assert!(st.compression_ratio() > 2.0);
        // Slice rank = max(J1,J2)+oversample = 8.
        assert_eq!(st.slice_rank(), 8);
        assert_eq!(st.memory_bytes(), 20 * (60 * 8 + 8 + 50 * 8) * 8);
    }

    #[test]
    fn parallel_compression_matches_serial() {
        let mut rng = StdRng::seed_from_u64(5);
        let x = low_rank_plus_noise(&[24, 20, 8], &[3, 3, 3], 0.1, &mut rng).unwrap();
        let serial = SlicedTensor::compress(&x, &config(3, 3)).unwrap();
        let parallel = SlicedTensor::compress(&x, &config(3, 3).with_threads(4)).unwrap();
        assert_eq!(serial.num_slices(), parallel.num_slices());
        for (a, b) in serial.slices().iter().zip(parallel.slices().iter()) {
            assert_eq!(a.s, b.s, "threaded compression must be deterministic");
            assert_eq!(a.u, b.u);
        }
    }

    #[test]
    fn exact_svd_never_worse_than_randomized() {
        let mut rng = StdRng::seed_from_u64(6);
        let x = low_rank_plus_noise(&[30, 25, 6], &[4, 4, 4], 0.3, &mut rng).unwrap();
        let mut c = config(4, 3);
        let randomized = SlicedTensor::compress(&x, &c).unwrap();
        c.slice_svd = SliceSvdKind::Exact;
        let exact = SlicedTensor::compress(&x, &c).unwrap();
        let e_r = randomized.compression_error_sq(&x).unwrap();
        let e_e = exact.compression_error_sq(&x).unwrap();
        assert!(e_e <= e_r + 1e-10, "exact {e_e} vs randomized {e_r}");
    }

    #[test]
    fn order4_tensor_slices() {
        let mut rng = StdRng::seed_from_u64(7);
        let x = low_rank_plus_noise(&[12, 10, 4, 3], &[2, 2, 2, 2], 0.0, &mut rng).unwrap();
        let st = SlicedTensor::compress(&x, &config(2, 4)).unwrap();
        assert_eq!(st.num_slices(), 12);
        assert!(st.compression_error_sq(&x).unwrap() < 1e-10);
    }

    #[test]
    fn norm_bookkeeping() {
        let mut rng = StdRng::seed_from_u64(8);
        let x = low_rank_plus_noise(&[15, 12, 5], &[2, 2, 2], 0.0, &mut rng).unwrap();
        let st = SlicedTensor::compress(&x, &config(2, 3)).unwrap();
        assert!((st.norm_x_sq() - x.fro_norm_sq()).abs() < 1e-9);
        // Lossless compression ⇒ compressed norm equals original.
        assert!((st.compressed_norm_sq() - x.fro_norm_sq()).abs() < 1e-6);
    }

    #[test]
    fn append_block_streaming() {
        let mut rng = StdRng::seed_from_u64(9);
        let x = low_rank_plus_noise(&[10, 20, 12], &[2, 2, 2], 0.0, &mut rng).unwrap();
        let head = x.subtensor_last(0, 8).unwrap();
        let tail = x.subtensor_last(8, 12).unwrap();
        let cfg = config(2, 3);
        let mut st = SlicedTensor::compress_keep_last(&head, &cfg).unwrap();
        let before = st.num_slices();
        st.append_block(&tail, &cfg).unwrap();
        assert_eq!(st.num_slices(), before + 4);
        assert_eq!(st.shape()[2], 12);
        let full = SlicedTensor::compress_keep_last(&x, &cfg).unwrap();
        assert_eq!(st.num_slices(), full.num_slices());
        assert!(st.compression_error_sq(&x).unwrap() < 1e-10);
    }

    #[test]
    fn append_block_validates() {
        let mut rng = StdRng::seed_from_u64(10);
        let x = low_rank_plus_noise(&[8, 10, 6], &[2, 2, 2], 0.0, &mut rng).unwrap();
        let cfg = config(2, 3);
        // Wrong layout (plain compress moved the last mode).
        let mut st = SlicedTensor::compress(&x, &cfg).unwrap();
        if st.perm().last() != Some(&2) {
            assert!(st.append_block(&x, &cfg).is_err());
        }
        // Wrong leading shape.
        let mut st = SlicedTensor::compress_keep_last(&x, &cfg).unwrap();
        let bad = DenseTensor::zeros(&[8, 11, 2]).unwrap();
        assert!(st.append_block(&bad, &cfg).is_err());
        let bad_order = DenseTensor::zeros(&[8, 10]).unwrap();
        assert!(st.append_block(&bad_order, &cfg).is_err());
    }

    fn assert_bit_identical(a: &SlicedTensor, b: &SlicedTensor) {
        assert_eq!(a.shape(), b.shape());
        assert_eq!(a.perm(), b.perm());
        assert_eq!(a.slice_rank(), b.slice_rank());
        assert_eq!(a.norm_x_sq().to_bits(), b.norm_x_sq().to_bits());
        assert_eq!(a.num_slices(), b.num_slices());
        for (x, y) in a.slices().iter().zip(b.slices().iter()) {
            assert_eq!(x.u, y.u);
            assert_eq!(x.s, y.s);
            assert_eq!(x.v, y.v);
        }
    }

    #[test]
    fn chunk_size_never_changes_the_result() {
        let mut rng = StdRng::seed_from_u64(30);
        let x = low_rank_plus_noise(&[18, 14, 11], &[3, 3, 3], 0.05, &mut rng).unwrap();
        let baseline = SlicedTensor::compress(&x, &config(3, 3)).unwrap();
        // Non-divisible, single-slice, oversized, and threaded chunkings
        // must all be bit-identical to the default.
        for (chunk, threads) in [(1usize, 1usize), (3, 1), (5, 4), (100, 2)] {
            let cfg = config(3, 3).with_chunk_slices(chunk).with_threads(threads);
            let st = SlicedTensor::compress(&x, &cfg).unwrap();
            assert_bit_identical(&st, &baseline);
        }
    }

    #[test]
    fn from_parts_round_trip_and_validation() {
        let mut rng = StdRng::seed_from_u64(31);
        let x = low_rank_plus_noise(&[12, 10, 4], &[2, 2, 2], 0.1, &mut rng).unwrap();
        let st = SlicedTensor::compress(&x, &config(2, 3)).unwrap();
        let rebuilt = SlicedTensor::from_parts(
            st.shape().to_vec(),
            st.perm().to_vec(),
            st.slice_rank(),
            st.slices().to_vec(),
            st.norm_x_sq(),
        )
        .unwrap();
        assert_bit_identical(&rebuilt, &st);

        let parts = |st: &SlicedTensor| {
            (
                st.shape().to_vec(),
                st.perm().to_vec(),
                st.slice_rank(),
                st.slices().to_vec(),
                st.norm_x_sq(),
            )
        };
        // Order < 2 / zero dims.
        let (_, p, k, sl, n) = parts(&st);
        assert!(SlicedTensor::from_parts(vec![12], p, k, sl, n).is_err());
        // Bad permutation.
        let (s, _, k, sl, n) = parts(&st);
        assert!(SlicedTensor::from_parts(s, vec![0, 0, 2], k, sl, n).is_err());
        // Slice count mismatch.
        let (s, p, k, mut sl, n) = parts(&st);
        sl.pop();
        assert!(SlicedTensor::from_parts(s, p, k, sl, n).is_err());
        // Slice rank outside the leading dims.
        let (s, p, _, sl, n) = parts(&st);
        assert!(SlicedTensor::from_parts(s, p, 11, sl, n).is_err());
        // Inconsistent factor shape.
        let (s, p, k, mut sl, n) = parts(&st);
        sl[0].u = Matrix::zeros(3, k);
        assert!(SlicedTensor::from_parts(s, p, k, sl, n).is_err());
        // Non-finite norm.
        let (s, p, k, sl, _) = parts(&st);
        assert!(SlicedTensor::from_parts(s, p, k, sl, f64::NAN).is_err());
    }

    #[test]
    fn append_source_matches_append_block() {
        use crate::source::InMemorySource;
        let mut rng = StdRng::seed_from_u64(32);
        let x = low_rank_plus_noise(&[10, 16, 12], &[2, 2, 2], 0.02, &mut rng).unwrap();
        let head = x.subtensor_last(0, 7).unwrap();
        let tail = x.subtensor_last(7, 12).unwrap();
        let cfg = config(2, 3).with_chunk_slices(2);

        let mut via_block = SlicedTensor::compress_keep_last(&head, &cfg).unwrap();
        let mut via_source = via_block.clone();
        via_block.append_block(&tail, &cfg).unwrap();
        let mut src = InMemorySource::with_perm(&tail, via_source.perm()).unwrap();
        via_source.append_source(&mut src, &cfg).unwrap();
        assert_bit_identical(&via_source, &via_block);

        // Mismatched perm rejected.
        let mut bad = InMemorySource::with_perm(&tail, &[0, 1, 2]).unwrap();
        if bad.perm() != via_source.perm() {
            assert!(via_source.append_source(&mut bad, &cfg).is_err());
        }
        // Mismatched leading shape rejected.
        let wrong = DenseTensor::zeros(&[10, 15, 2]).unwrap();
        let mut wrong_src = InMemorySource::with_perm(&wrong, via_source.perm()).unwrap();
        assert!(via_source.append_source(&mut wrong_src, &cfg).is_err());
    }

    #[test]
    fn slice_svd_helpers() {
        let mut rng = StdRng::seed_from_u64(11);
        let x = low_rank_plus_noise(&[10, 8, 2], &[2, 2, 2], 0.0, &mut rng).unwrap();
        let st = SlicedTensor::compress(&x, &config(2, 3)).unwrap();
        let s0 = &st.slices()[0];
        assert_eq!(s0.us().shape(), (10, st.slice_rank()));
        assert_eq!(s0.vs().shape(), (8, st.slice_rank()));
        let rec = s0.reconstruct();
        assert_eq!(rec.shape(), (10, 8));
        assert!(s0.memory_bytes() > 0);
    }
}
