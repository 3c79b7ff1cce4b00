//! Chunked on-disk slice sourcing over `.dten` tensor files.
//!
//! [`DtenSliceSource`] implements [`SliceSource`] directly against the
//! file: the tensor's f64 payload is stored in Fortran order over the
//! **original** modes, and each requested frontal slice of the **permuted**
//! view is gathered with positioned reads. Only the header, one slice
//! buffer, and the norm cache are ever resident, so the approximation
//! phase runs in `O(I₁·I₂·chunk)` memory regardless of the tensor size.
//!
//! Reads pick the cheapest access pattern the permutation allows:
//!
//! * whole-slice read when the permuted slice is contiguous on disk;
//! * per-column / per-row contiguous reads when the leading internal mode
//!   maps to original mode 0;
//! * bounded span reads (one read per column, strided in memory) otherwise,
//!   falling back to element reads only when a span would exceed
//!   [`MAX_SPAN_BYTES`].

use crate::error::{Result, StoreError};
use dtucker_core::source::{SliceGeometry, SliceSource};
use dtucker_core::Result as CoreResult;
use dtucker_linalg::matrix::Matrix;
use dtucker_linalg::norms::FroNormAccumulator;
use dtucker_tensor::io::{file_len, header_len, read_f64s, read_header};
use dtucker_tensor::unfold::descending_mode_order;
use std::fs::File;
use std::io::{BufReader, Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// Largest single gather read the span strategy may issue (16 MiB). Spans
/// beyond this fall back to per-element reads instead of ballooning memory.
pub const MAX_SPAN_BYTES: usize = 16 << 20;

/// [`SliceSource`] that reads frontal slices of a (virtually) permuted
/// tensor straight from a `.dten` file.
#[derive(Debug)]
pub struct DtenSliceSource {
    file: File,
    path: PathBuf,
    /// Where each permuted slice sits in the original-order payload.
    geometry: SliceGeometry,
    /// Byte offset of the f64 payload.
    data_offset: u64,
    norm_cache: Option<f64>,
}

impl DtenSliceSource {
    /// Opens a `.dten` file with the paper's default mode reordering (two
    /// largest modes first).
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let shape = Self::peek_shape(path.as_ref())?;
        Self::open_with_perm(path, &descending_mode_order(&shape))
    }

    /// Opens a `.dten` file with an explicit permutation (`perm[p]` =
    /// original mode served at internal position `p`).
    pub fn open_with_perm(path: impl AsRef<Path>, perm: &[usize]) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::open(&path)?;
        let orig = read_header(&mut file)?;
        let geometry = SliceGeometry::new(&orig, perm)?;
        // Validate the payload length once so later reads can't run off the
        // end of a truncated file.
        let expected = file_len(&orig).ok_or_else(|| {
            StoreError::Format(format!(
                "{}: shape {orig:?} overflows the element count",
                path.display()
            ))
        })?;
        let actual = file.metadata()?.len();
        if actual != expected {
            return Err(StoreError::Format(format!(
                "{}: file is {actual} bytes, header promises {expected}",
                path.display()
            )));
        }
        Ok(DtenSliceSource {
            file,
            path,
            geometry,
            data_offset: header_len(orig.len()),
            norm_cache: None,
        })
    }

    /// Reads just the shape from a `.dten` header.
    pub fn peek_shape(path: impl AsRef<Path>) -> Result<Vec<usize>> {
        let mut f = File::open(path)?;
        Ok(read_header(&mut f)?)
    }

    /// The file backing this source.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn read_elements_at(&mut self, elem_offset: usize, out: &mut [f64]) -> Result<()> {
        let byte = self.data_offset + elem_offset as u64 * 8;
        self.file.seek(SeekFrom::Start(byte))?;
        Ok(read_f64s(&mut self.file, out)?)
    }

    /// Gathers the slice whose geometry is `(base, s0, s1)`.
    fn gather_slice(&mut self, (base, s0, s1): (usize, usize, usize)) -> Result<Matrix> {
        let (i1, i2) = (self.shape()[0], self.shape()[1]);
        let mut m = Matrix::zeros(i1, i2);

        if s0 == 1 && s1 == i1 {
            // The permuted slice is one contiguous window (identity leading
            // permutation): a single read, then transpose into row-major.
            let mut col_major = vec![0.0f64; i1 * i2];
            self.read_elements_at(base, &mut col_major)?;
            for c in 0..i2 {
                for r in 0..i1 {
                    m.set(r, c, col_major[c * i1 + r]);
                }
            }
        } else if s1 == 1 {
            // Rows are contiguous on disk: one read per row.
            for r in 0..i1 {
                self.read_elements_at(base + r * s0, m.row_mut(r))?;
            }
        } else if s0 == 1 {
            // Columns are contiguous on disk: one read per column.
            let mut col = vec![0.0f64; i1];
            for c in 0..i2 {
                self.read_elements_at(base + c * s1, &mut col)?;
                for (r, &v) in col.iter().enumerate() {
                    m.set(r, c, v);
                }
            }
        } else {
            // General gather: each column is an arithmetic progression with
            // step s0. Read its bounding span in one go when reasonable,
            // element-by-element otherwise.
            let span_elems = (i1 - 1) * s0 + 1;
            if span_elems * 8 <= MAX_SPAN_BYTES {
                let mut span = vec![0.0f64; span_elems];
                for c in 0..i2 {
                    self.read_elements_at(base + c * s1, &mut span)?;
                    for r in 0..i1 {
                        m.set(r, c, span[r * s0]);
                    }
                }
            } else {
                let mut one = [0.0f64; 1];
                for c in 0..i2 {
                    for r in 0..i1 {
                        self.read_elements_at(base + c * s1 + r * s0, &mut one)?;
                        m.set(r, c, one[0]);
                    }
                }
            }
        }
        Ok(m)
    }

    fn stream_norm(&mut self) -> Result<f64> {
        // Feed the payload in file (= original Fortran) order, exactly the
        // order `DenseTensor::fro_norm_sq` walks, so the result is
        // bit-identical to the in-memory norm.
        self.file.seek(SeekFrom::Start(self.data_offset))?;
        let mut left: usize = self.shape().iter().product();
        let mut acc = FroNormAccumulator::new();
        let mut reader = BufReader::with_capacity(1 << 20, &mut self.file);
        let mut buf = vec![0.0f64; 4096];
        while left > 0 {
            let take = left.min(buf.len());
            read_f64s(&mut reader, &mut buf[..take])?;
            for &v in &buf[..take] {
                acc.push(v);
            }
            left -= take;
        }
        Ok(acc.norm_sq())
    }
}

fn to_core_err(e: StoreError) -> dtucker_core::CoreError {
    dtucker_core::CoreError::Tensor(dtucker_tensor::TensorError::Io(e.to_string()))
}

impl SliceSource for DtenSliceSource {
    fn shape(&self) -> &[usize] {
        self.geometry.shape()
    }

    fn perm(&self) -> &[usize] {
        self.geometry.perm()
    }

    fn load_slice(&mut self, l: usize) -> CoreResult<Matrix> {
        let geometry = self.geometry.slice(l)?;
        self.gather_slice(geometry).map_err(to_core_err)
    }

    fn fro_norm_sq(&mut self) -> CoreResult<f64> {
        if let Some(n) = self.norm_cache {
            return Ok(n);
        }
        let n = self.stream_norm().map_err(to_core_err)?;
        self.norm_cache = Some(n);
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtucker_tensor::dense::DenseTensor;
    use dtucker_tensor::io::save;
    use dtucker_tensor::random::low_rank_plus_noise;
    use dtucker_tensor::unfold::permute;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tmpfile(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("dtucker_store_source_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn check_all_slices(x: &DenseTensor, perm: &[usize], name: &str) {
        let path = tmpfile(name);
        save(x, &path).unwrap();
        let mut src = DtenSliceSource::open_with_perm(&path, perm).unwrap();
        let internal = permute(x, perm).unwrap();
        assert_eq!(src.shape(), internal.shape());
        assert_eq!(src.num_slices(), internal.num_frontal_slices());
        for l in 0..src.num_slices() {
            let got = src.load_slice(l).unwrap();
            let want = internal.frontal_slice(l).unwrap();
            assert_eq!(got, want, "slice {l} of {name} perm {perm:?}");
        }
        assert_eq!(
            src.fro_norm_sq().unwrap().to_bits(),
            x.fro_norm_sq().to_bits(),
            "norm of {name}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_permutation_matches_in_memory() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = low_rank_plus_noise(&[7, 5, 4], &[2, 2, 2], 0.2, &mut rng).unwrap();
        // All 6 permutations of an order-3 tensor exercise every gather
        // strategy: contiguous, row-contiguous, column-contiguous, span.
        for perm in [
            [0usize, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ] {
            check_all_slices(&x, &perm, "p3.dten");
        }
    }

    #[test]
    fn order2_and_order4() {
        let mut rng = StdRng::seed_from_u64(2);
        let x2 = low_rank_plus_noise(&[6, 9], &[2, 2], 0.1, &mut rng).unwrap();
        check_all_slices(&x2, &[0, 1], "p2a.dten");
        check_all_slices(&x2, &[1, 0], "p2b.dten");
        let x4 = low_rank_plus_noise(&[5, 4, 3, 2], &[2, 2, 2, 2], 0.1, &mut rng).unwrap();
        check_all_slices(&x4, &[2, 0, 3, 1], "p4.dten");
        check_all_slices(&x4, &[3, 1, 0, 2], "p4b.dten");
    }

    #[test]
    fn default_open_uses_descending_order() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = low_rank_plus_noise(&[4, 9, 6], &[2, 2, 2], 0.0, &mut rng).unwrap();
        let path = tmpfile("desc.dten");
        save(&x, &path).unwrap();
        let src = DtenSliceSource::open(&path).unwrap();
        assert_eq!(src.shape(), &[9, 6, 4]);
        assert_eq!(src.perm(), &[1, 2, 0]);
        assert_eq!(src.original_shape(), vec![4, 9, 6]);
        assert_eq!(DtenSliceSource::peek_shape(&path).unwrap(), vec![4, 9, 6]);
        assert_eq!(src.path(), path.as_path());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut rng = StdRng::seed_from_u64(4);
        let x = low_rank_plus_noise(&[4, 5, 3], &[2, 2, 2], 0.0, &mut rng).unwrap();
        let path = tmpfile("bad.dten");
        save(&x, &path).unwrap();
        // Bad permutations.
        assert!(DtenSliceSource::open_with_perm(&path, &[0, 1]).is_err());
        assert!(DtenSliceSource::open_with_perm(&path, &[0, 0, 1]).is_err());
        assert!(DtenSliceSource::open_with_perm(&path, &[0, 1, 3]).is_err());
        // Truncated file.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 8]).unwrap();
        assert!(matches!(
            DtenSliceSource::open(&path),
            Err(StoreError::Format(_))
        ));
        // Missing file.
        assert!(matches!(
            DtenSliceSource::open(tmpfile("missing.dten")),
            Err(StoreError::Io(_))
        ));
        // Out-of-range slice.
        std::fs::write(&path, &bytes).unwrap();
        let mut src = DtenSliceSource::open(&path).unwrap();
        assert!(src.load_slice(99).is_err());
        std::fs::remove_file(&path).ok();
    }
}
