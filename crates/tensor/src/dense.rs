//! Dense N-order tensor with Fortran (first-index-fastest) element order.
//!
//! The layout choice follows the MATLAB heritage of the Tucker literature:
//! with the first index fastest, the mode-1 unfolding and — crucially for
//! D-Tucker — the *frontal slices* `X[:, :, i₃, …, i_N]` are contiguous
//! windows of the buffer.

use crate::error::{Result, TensorError};
use dtucker_linalg::matrix::Matrix;
use dtucker_linalg::norms;

/// A dense tensor of `f64` values.
///
/// Element `(i₁, …, i_N)` lives at linear offset
/// `i₁ + I₁·(i₂ + I₂·(i₃ + …))`.
#[derive(Clone, PartialEq)]
pub struct DenseTensor {
    shape: Vec<usize>,
    data: Vec<f64>,
}

/// Product of a shape's dimensions.
pub fn num_elements(shape: &[usize]) -> usize {
    shape.iter().product()
}

/// [`num_elements`] for shapes read from untrusted bytes: `None` when the
/// product overflows `usize`.
pub fn checked_num_elements(shape: &[usize]) -> Option<usize> {
    shape.iter().try_fold(1usize, |n, &d| n.checked_mul(d))
}

impl DenseTensor {
    /// Creates a zero tensor of the given shape.
    ///
    /// Returns an error for an empty shape or any zero dimension.
    pub fn zeros(shape: &[usize]) -> Result<Self> {
        validate_shape("zeros", shape)?;
        Ok(DenseTensor {
            shape: shape.to_vec(),
            data: vec![0.0; num_elements(shape)],
        })
    }

    /// Wraps a data buffer (Fortran element order) with a shape.
    pub fn from_vec(shape: &[usize], data: Vec<f64>) -> Result<Self> {
        validate_shape("from_vec", shape)?;
        if data.len() != num_elements(shape) {
            return Err(TensorError::ShapeMismatch {
                op: "from_vec",
                details: format!(
                    "shape {:?} needs {} elements, got {}",
                    shape,
                    num_elements(shape),
                    data.len()
                ),
            });
        }
        Ok(DenseTensor {
            shape: shape.to_vec(),
            data,
        })
    }

    /// Builds a tensor by evaluating `f` at every multi-index.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(&[usize]) -> f64) -> Result<Self> {
        validate_shape("from_fn", shape)?;
        let n = num_elements(shape);
        let mut data = Vec::with_capacity(n);
        let mut idx = vec![0usize; shape.len()];
        for _ in 0..n {
            data.push(f(&idx));
            increment_index(&mut idx, shape);
        }
        Ok(DenseTensor {
            shape: shape.to_vec(),
            data,
        })
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The tensor's order (number of modes).
    #[inline]
    pub fn order(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    #[inline]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Raw buffer (Fortran element order).
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the tensor and returns the raw buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Linear offset of a multi-index.
    #[inline]
    pub fn linear_index(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.shape.len());
        let mut off = 0usize;
        let mut stride = 1usize;
        for (i, (&ix, &dim)) in idx.iter().zip(self.shape.iter()).enumerate() {
            debug_assert!(ix < dim, "index {ix} out of range for mode {i} (dim {dim})");
            let _ = i;
            off += ix * stride;
            stride *= dim;
        }
        off
    }

    /// Reads the element at a multi-index.
    #[inline]
    pub fn get(&self, idx: &[usize]) -> f64 {
        self.data[self.linear_index(idx)]
    }

    /// Writes the element at a multi-index.
    #[inline]
    pub fn set(&mut self, idx: &[usize], v: f64) {
        let off = self.linear_index(idx);
        self.data[off] = v;
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        norms::fro_norm(&self.data)
    }

    /// Squared Frobenius norm.
    pub fn fro_norm_sq(&self) -> f64 {
        let n = self.fro_norm();
        n * n
    }

    /// Scales all entries in place.
    pub fn scale(&mut self, s: f64) {
        norms::scale(&mut self.data, s);
    }

    /// `self += alpha * other`; shapes must match.
    pub fn axpy(&mut self, alpha: f64, other: &DenseTensor) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "axpy",
                details: format!("{:?} vs {:?}", self.shape, other.shape),
            });
        }
        norms::axpy(alpha, &other.data, &mut self.data);
        Ok(())
    }

    /// `self - other` as a new tensor.
    pub fn sub(&self, other: &DenseTensor) -> Result<DenseTensor> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "sub",
                details: format!("{:?} vs {:?}", self.shape, other.shape),
            });
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| a - b)
            .collect();
        Ok(DenseTensor {
            shape: self.shape.clone(),
            data,
        })
    }

    /// Relative squared reconstruction error `‖self − other‖²_F / ‖self‖²_F`.
    pub fn relative_error_sq(&self, other: &DenseTensor) -> Result<f64> {
        let diff = self.sub(other)?;
        let denom = self.fro_norm_sq();
        Ok(if denom == 0.0 {
            0.0
        } else {
            diff.fro_norm_sq() / denom
        })
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, &v| m.max(v.abs()))
    }

    /// True when every entry is finite (no NaN/±∞).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Reinterprets the buffer with a new shape of equal element count.
    pub fn reshape(&self, shape: &[usize]) -> Result<DenseTensor> {
        validate_shape("reshape", shape)?;
        if num_elements(shape) != self.numel() {
            return Err(TensorError::ShapeMismatch {
                op: "reshape",
                details: format!("{:?} -> {:?}", self.shape, shape),
            });
        }
        Ok(DenseTensor {
            shape: shape.to_vec(),
            data: self.data.clone(),
        })
    }

    /// Extracts the hyper-rectangle with half-open per-mode bounds
    /// `[lo, hi)` as a new tensor of shape `(hi₁−lo₁, …, hi_N−lo_N)`.
    ///
    /// This is the *naive* range extraction: it requires the full tensor to
    /// be resident. The query engine reconstructs the same hyper-rectangle
    /// straight from Tucker factors; this method is its correctness oracle.
    pub fn subtensor(&self, bounds: &[(usize, usize)]) -> Result<DenseTensor> {
        if bounds.len() != self.order() {
            return Err(TensorError::ShapeMismatch {
                op: "subtensor",
                details: format!("{} bounds for order-{} tensor", bounds.len(), self.order()),
            });
        }
        for (n, (&(lo, hi), &dim)) in bounds.iter().zip(self.shape.iter()).enumerate() {
            if lo >= hi || hi > dim {
                return Err(TensorError::ShapeMismatch {
                    op: "subtensor",
                    details: format!("bounds {lo}..{hi} invalid for mode {n} of size {dim}"),
                });
            }
        }
        let out_shape: Vec<usize> = bounds.iter().map(|&(lo, hi)| hi - lo).collect();
        let mut out = DenseTensor::zeros(&out_shape)?;
        // Runs along mode 0 are contiguous in Fortran layout: walk an
        // odometer over the trailing modes and copy one run per tick.
        let strides: Vec<usize> = {
            let mut s = Vec::with_capacity(self.order());
            let mut acc = 1usize;
            for &d in &self.shape {
                s.push(acc);
                acc *= d;
            }
            s
        };
        let run = out_shape[0];
        let nruns: usize = out_shape[1..].iter().product();
        let mut idx = vec![0usize; self.order().saturating_sub(1)];
        let dst = out.as_mut_slice();
        for r in 0..nruns {
            let mut src_off = bounds[0].0;
            for (k, &i) in idx.iter().enumerate() {
                src_off += (bounds[k + 1].0 + i) * strides[k + 1];
            }
            dst[r * run..(r + 1) * run].copy_from_slice(&self.data[src_off..src_off + run]);
            for (k, i) in idx.iter_mut().enumerate() {
                *i += 1;
                if *i < out_shape[k + 1] {
                    break;
                }
                *i = 0;
            }
        }
        Ok(out)
    }

    /// Number of frontal slices `L = I₃ · I₄ ⋯ I_N` (1 for order-2 tensors).
    pub fn num_frontal_slices(&self) -> usize {
        if self.order() <= 2 {
            1
        } else {
            self.shape[2..].iter().product()
        }
    }

    /// Extracts frontal slice `l` as an `I₁ × I₂` row-major matrix.
    ///
    /// Slices are indexed in Fortran order over the trailing modes
    /// (`i₃` fastest).
    pub fn frontal_slice(&self, l: usize) -> Result<Matrix> {
        let (i1, i2) = self.leading_dims()?;
        let ls = self.num_frontal_slices();
        if l >= ls {
            return Err(TensorError::ShapeMismatch {
                op: "frontal_slice",
                details: format!("slice {l} out of range (have {ls})"),
            });
        }
        let block = &self.data[l * i1 * i2..(l + 1) * i1 * i2];
        // Block layout is column-major (i1 fastest); transpose-copy to row-major.
        let mut m = Matrix::zeros(i1, i2);
        const B: usize = 32;
        let out = m.as_mut_slice();
        for cb in (0..i2).step_by(B) {
            let cmax = (cb + B).min(i2);
            for rb in (0..i1).step_by(B) {
                let rmax = (rb + B).min(i1);
                for c in cb..cmax {
                    let col = &block[c * i1..(c + 1) * i1];
                    for r in rb..rmax {
                        out[r * i2 + c] = col[r];
                    }
                }
            }
        }
        Ok(m)
    }

    /// Writes an `I₁ × I₂` row-major matrix into frontal slice `l`.
    pub fn set_frontal_slice(&mut self, l: usize, m: &Matrix) -> Result<()> {
        let (i1, i2) = self.leading_dims()?;
        if m.shape() != (i1, i2) {
            return Err(TensorError::ShapeMismatch {
                op: "set_frontal_slice",
                details: format!("slice is {}x{}, matrix is {:?}", i1, i2, m.shape()),
            });
        }
        if l >= self.num_frontal_slices() {
            return Err(TensorError::ShapeMismatch {
                op: "set_frontal_slice",
                details: format!("slice {l} out of range"),
            });
        }
        let block = &mut self.data[l * i1 * i2..(l + 1) * i1 * i2];
        for c in 0..i2 {
            for r in 0..i1 {
                block[c * i1 + r] = m.get(r, c);
            }
        }
        Ok(())
    }

    /// Assembles a tensor of the given shape from its frontal slices.
    pub fn from_frontal_slices(shape: &[usize], slices: &[Matrix]) -> Result<DenseTensor> {
        let mut t = DenseTensor::zeros(shape)?;
        if slices.len() != t.num_frontal_slices() {
            return Err(TensorError::ShapeMismatch {
                op: "from_frontal_slices",
                details: format!(
                    "shape {:?} has {} slices, got {}",
                    shape,
                    t.num_frontal_slices(),
                    slices.len()
                ),
            });
        }
        for (l, s) in slices.iter().enumerate() {
            t.set_frontal_slice(l, s)?;
        }
        Ok(t)
    }

    /// Extracts the sub-tensor `start..end` along the **last** mode.
    ///
    /// With Fortran layout this is a contiguous window, so the copy is a
    /// single `memcpy`.
    pub fn subtensor_last(&self, start: usize, end: usize) -> Result<DenseTensor> {
        let n = self.order();
        let last = self.shape[n - 1];
        if start >= end || end > last {
            return Err(TensorError::ShapeMismatch {
                op: "subtensor_last",
                details: format!("range {start}..{end} invalid for last dim {last}"),
            });
        }
        let stride: usize = self.shape[..n - 1].iter().product();
        let mut shape = self.shape.clone();
        shape[n - 1] = end - start;
        Ok(DenseTensor {
            shape,
            data: self.data[start * stride..end * stride].to_vec(),
        })
    }

    /// Concatenates tensors along the **last** mode. All leading dims must
    /// agree.
    pub fn concat_last(parts: &[&DenseTensor]) -> Result<DenseTensor> {
        let first = parts.first().ok_or_else(|| TensorError::ShapeMismatch {
            op: "concat_last",
            details: "no parts given".into(),
        })?;
        let n = first.order();
        let lead = &first.shape[..n - 1];
        let mut last = 0usize;
        let mut data = Vec::new();
        for p in parts {
            if p.order() != n || &p.shape[..n - 1] != lead {
                return Err(TensorError::ShapeMismatch {
                    op: "concat_last",
                    details: format!("{:?} vs {:?}", first.shape, p.shape),
                });
            }
            last += p.shape[n - 1];
            data.extend_from_slice(&p.data);
        }
        let mut shape = lead.to_vec();
        shape.push(last);
        Ok(DenseTensor { shape, data })
    }

    fn leading_dims(&self) -> Result<(usize, usize)> {
        if self.order() < 2 {
            return Err(TensorError::InvalidMode {
                mode: 1,
                order: self.order(),
            });
        }
        Ok((self.shape[0], self.shape[1]))
    }
}

impl std::fmt::Debug for DenseTensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DenseTensor(shape={:?}, numel={}, ‖·‖={:.4})",
            self.shape,
            self.numel(),
            self.fro_norm()
        )
    }
}

fn validate_shape(op: &'static str, shape: &[usize]) -> Result<()> {
    if shape.is_empty() {
        return Err(TensorError::ShapeMismatch {
            op,
            details: "empty shape".into(),
        });
    }
    if shape.contains(&0) {
        return Err(TensorError::ShapeMismatch {
            op,
            details: format!("zero dimension in {:?}", shape),
        });
    }
    Ok(())
}

/// Advances a multi-index one step in Fortran order (first index fastest).
#[inline]
pub fn increment_index(idx: &mut [usize], shape: &[usize]) {
    for (i, dim) in idx.iter_mut().zip(shape.iter()) {
        *i += 1;
        if *i < *dim {
            return;
        }
        *i = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_order() {
        let t = DenseTensor::zeros(&[2, 3, 4]).unwrap();
        assert_eq!(t.shape(), &[2, 3, 4]);
        assert_eq!(t.order(), 3);
        assert_eq!(t.numel(), 24);
        assert!(DenseTensor::zeros(&[]).is_err());
        assert!(DenseTensor::zeros(&[2, 0]).is_err());
    }

    #[test]
    fn fortran_linear_layout() {
        let t = DenseTensor::from_fn(&[2, 3], |idx| (idx[0] * 10 + idx[1]) as f64).unwrap();
        // First index fastest: (0,0),(1,0),(0,1),(1,1),(0,2),(1,2)
        assert_eq!(t.as_slice(), &[0.0, 10.0, 1.0, 11.0, 2.0, 12.0]);
        assert_eq!(t.get(&[1, 2]), 12.0);
    }

    #[test]
    fn from_vec_validates() {
        assert!(DenseTensor::from_vec(&[2, 2], vec![0.0; 4]).is_ok());
        assert!(DenseTensor::from_vec(&[2, 2], vec![0.0; 5]).is_err());
    }

    #[test]
    fn subtensor_extracts_hyper_rectangles() {
        let t = DenseTensor::from_fn(&[4, 3, 5], |idx| {
            (idx[0] * 100 + idx[1] * 10 + idx[2]) as f64
        })
        .unwrap();
        // Full-tensor bounds are the identity.
        let full = t.subtensor(&[(0, 4), (0, 3), (0, 5)]).unwrap();
        assert_eq!(full, t);
        // Interior box.
        let s = t.subtensor(&[(1, 3), (0, 2), (2, 5)]).unwrap();
        assert_eq!(s.shape(), &[2, 2, 3]);
        for i in 0..2 {
            for j in 0..2 {
                for k in 0..3 {
                    assert_eq!(s.get(&[i, j, k]), t.get(&[i + 1, j, k + 2]));
                }
            }
        }
        // Single element and order-1.
        let e = t.subtensor(&[(3, 4), (2, 3), (4, 5)]).unwrap();
        assert_eq!(e.as_slice(), &[t.get(&[3, 2, 4])]);
        let v = DenseTensor::from_vec(&[5], vec![0.0, 1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(v.subtensor(&[(1, 4)]).unwrap().as_slice(), &[1.0, 2.0, 3.0]);
        // Invalid bounds are typed errors.
        assert!(t.subtensor(&[(0, 4), (0, 3)]).is_err());
        assert!(t.subtensor(&[(0, 5), (0, 3), (0, 5)]).is_err());
        assert!(t.subtensor(&[(2, 2), (0, 3), (0, 5)]).is_err());
        assert!(t.subtensor(&[(3, 1), (0, 3), (0, 5)]).is_err());
    }

    #[test]
    fn get_set_round_trip() {
        let mut t = DenseTensor::zeros(&[3, 4, 5]).unwrap();
        t.set(&[2, 1, 3], 7.5);
        assert_eq!(t.get(&[2, 1, 3]), 7.5);
        assert_eq!(t.get(&[2, 1, 2]), 0.0);
    }

    #[test]
    fn norms_and_arith() {
        let t = DenseTensor::from_vec(&[1, 2], vec![3.0, 4.0]).unwrap();
        assert!((t.fro_norm() - 5.0).abs() < 1e-12);
        assert!((t.fro_norm_sq() - 25.0).abs() < 1e-9);
        let mut u = t.clone();
        u.scale(2.0);
        assert_eq!(u.as_slice(), &[6.0, 8.0]);
        u.axpy(-1.0, &t).unwrap();
        assert_eq!(u.as_slice(), &[3.0, 4.0]);
        let d = u.sub(&t).unwrap();
        assert_eq!(d.fro_norm(), 0.0);
        assert_eq!(t.relative_error_sq(&u).unwrap(), 0.0);
        assert!(u.axpy(1.0, &DenseTensor::zeros(&[2, 1]).unwrap()).is_err());
    }

    #[test]
    fn max_abs_finds_largest_magnitude() {
        let t = DenseTensor::from_vec(&[2, 2], vec![-1.0, 2.0, -3.0, 0.5]).unwrap();
        assert_eq!(t.max_abs(), 3.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = DenseTensor::from_fn(&[2, 3], |idx| (idx[0] + 10 * idx[1]) as f64).unwrap();
        let r = t.reshape(&[3, 2]).unwrap();
        assert_eq!(r.as_slice(), t.as_slice());
        assert!(t.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn frontal_slice_extraction() {
        // 2x3x2 tensor, values encode their index.
        let t = DenseTensor::from_fn(&[2, 3, 2], |idx| {
            (idx[0] * 100 + idx[1] * 10 + idx[2]) as f64
        })
        .unwrap();
        assert_eq!(t.num_frontal_slices(), 2);
        let s0 = t.frontal_slice(0).unwrap();
        assert_eq!(s0.shape(), (2, 3));
        assert_eq!(s0.get(1, 2), 120.0);
        let s1 = t.frontal_slice(1).unwrap();
        assert_eq!(s1.get(0, 1), 11.0);
        assert!(t.frontal_slice(2).is_err());
    }

    #[test]
    fn frontal_slice_round_trip() {
        let t = DenseTensor::from_fn(&[4, 5, 3, 2], |idx| {
            idx.iter()
                .enumerate()
                .map(|(i, &x)| (i + 1) * x)
                .sum::<usize>() as f64
        })
        .unwrap();
        assert_eq!(t.num_frontal_slices(), 6);
        let slices: Vec<Matrix> = (0..6).map(|l| t.frontal_slice(l).unwrap()).collect();
        let rebuilt = DenseTensor::from_frontal_slices(&[4, 5, 3, 2], &slices).unwrap();
        assert_eq!(rebuilt, t);
    }

    #[test]
    fn set_frontal_slice_validates() {
        let mut t = DenseTensor::zeros(&[2, 2, 2]).unwrap();
        assert!(t.set_frontal_slice(0, &Matrix::zeros(3, 2)).is_err());
        assert!(t.set_frontal_slice(5, &Matrix::zeros(2, 2)).is_err());
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        t.set_frontal_slice(1, &m).unwrap();
        assert_eq!(t.get(&[0, 1, 1]), 2.0);
        assert_eq!(t.get(&[1, 0, 1]), 3.0);
    }

    #[test]
    fn order2_has_one_slice() {
        let t = DenseTensor::from_fn(&[3, 4], |idx| (idx[0] + idx[1]) as f64).unwrap();
        assert_eq!(t.num_frontal_slices(), 1);
        let s = t.frontal_slice(0).unwrap();
        assert_eq!(s.shape(), (3, 4));
        assert_eq!(s.get(2, 3), 5.0);
    }

    #[test]
    fn subtensor_and_concat_last() {
        let t = DenseTensor::from_fn(&[2, 3, 4], |idx| idx[2] as f64).unwrap();
        let a = t.subtensor_last(0, 2).unwrap();
        let b = t.subtensor_last(2, 4).unwrap();
        assert_eq!(a.shape(), &[2, 3, 2]);
        assert_eq!(b.get(&[0, 0, 0]), 2.0);
        let joined = DenseTensor::concat_last(&[&a, &b]).unwrap();
        assert_eq!(joined, t);
        assert!(t.subtensor_last(3, 3).is_err());
        assert!(t.subtensor_last(0, 5).is_err());
        assert!(DenseTensor::concat_last(&[]).is_err());
        let bad = DenseTensor::zeros(&[3, 3, 1]).unwrap();
        assert!(DenseTensor::concat_last(&[&a, &bad]).is_err());
    }

    #[test]
    fn increment_index_wraps() {
        let shape = [2, 3];
        let mut idx = vec![0, 0];
        let mut seen = Vec::new();
        for _ in 0..6 {
            seen.push(idx.clone());
            increment_index(&mut idx, &shape);
        }
        assert_eq!(
            seen,
            vec![
                vec![0, 0],
                vec![1, 0],
                vec![0, 1],
                vec![1, 1],
                vec![0, 2],
                vec![1, 2]
            ]
        );
        assert_eq!(idx, vec![0, 0]); // wrapped around
    }

    #[test]
    fn debug_format_mentions_shape() {
        let t = DenseTensor::zeros(&[2, 2]).unwrap();
        let s = format!("{t:?}");
        assert!(s.contains("[2, 2]"));
    }
}
