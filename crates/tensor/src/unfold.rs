//! Mode-n matricization (unfolding) and its inverse.
//!
//! Kolda–Bader convention: the mode-`n` unfolding `X₍ₙ₎` is the
//! `I_n × Π_{k≠n} I_k` matrix whose column index is
//! `j = Σ_{k≠n} i_k · J_k` with `J_k = Π_{m<k, m≠n} I_m`.

use crate::dense::{num_elements, DenseTensor};
use crate::error::{Result, TensorError};
use dtucker_linalg::matrix::Matrix;

/// Column strides `J_k` of the mode-`n` unfolding (with `J_n = 0` so mode
/// `n` never contributes to the column index).
fn unfold_col_strides(shape: &[usize], mode: usize) -> Vec<usize> {
    let mut strides = vec![0usize; shape.len()];
    let mut acc = 1usize;
    for (k, &dim) in shape.iter().enumerate() {
        if k == mode {
            continue;
        }
        strides[k] = acc;
        acc *= dim;
    }
    strides
}

/// Computes the mode-`n` unfolding of `x` as a row-major matrix.
pub fn unfold(x: &DenseTensor, mode: usize) -> Result<Matrix> {
    let shape = x.shape();
    let order = shape.len();
    if mode >= order {
        return Err(TensorError::InvalidMode { mode, order });
    }
    let rows = shape[mode];
    let cols = x.numel() / rows;
    let strides = unfold_col_strides(shape, mode);

    let mut out = Matrix::zeros(rows, cols);
    let odat = out.as_mut_slice();
    let data = x.as_slice();

    // Walk the buffer once in Fortran order, maintaining (row, col)
    // incrementally: bumping index k adds strides[k] to the column (or 1 to
    // the row when k == mode); wrapping subtracts the full extent again.
    let mut idx = vec![0usize; order];
    let mut row = 0usize;
    let mut col = 0usize;
    for &v in data {
        odat[row * cols + col] = v;
        // Inline increment with incremental (row, col) bookkeeping.
        for k in 0..order {
            idx[k] += 1;
            if k == mode {
                row += 1;
            } else {
                col += strides[k];
            }
            if idx[k] < shape[k] {
                break;
            }
            idx[k] = 0;
            if k == mode {
                row = 0;
            } else {
                col -= strides[k] * shape[k];
            }
        }
    }
    Ok(out)
}

/// Inverse of [`unfold`]: folds a mode-`n` matricization back into a tensor
/// of the given shape.
pub fn fold(m: &Matrix, mode: usize, shape: &[usize]) -> Result<DenseTensor> {
    let order = shape.len();
    if mode >= order {
        return Err(TensorError::InvalidMode { mode, order });
    }
    let rows = shape[mode];
    let total = num_elements(shape);
    if rows == 0 || m.rows() != rows || m.rows() * m.cols() != total {
        return Err(TensorError::ShapeMismatch {
            op: "fold",
            details: format!(
                "matrix {:?} does not match mode-{mode} of {:?}",
                m.shape(),
                shape
            ),
        });
    }
    let cols = m.cols();
    let strides = unfold_col_strides(shape, mode);
    let mut t = DenseTensor::zeros(shape)?;
    let data = t.as_mut_slice();
    let mdat = m.as_slice();

    let mut idx = vec![0usize; order];
    let mut row = 0usize;
    let mut col = 0usize;
    for v in data.iter_mut() {
        *v = mdat[row * cols + col];
        for k in 0..order {
            idx[k] += 1;
            if k == mode {
                row += 1;
            } else {
                col += strides[k];
            }
            if idx[k] < shape[k] {
                break;
            }
            idx[k] = 0;
            if k == mode {
                row = 0;
            } else {
                col -= strides[k] * shape[k];
            }
        }
    }
    Ok(t)
}

/// Permutes the modes of a tensor: output mode `p` is input mode
/// `order[p]`. `order` must be a permutation of `0..N`.
pub fn permute(x: &DenseTensor, order: &[usize]) -> Result<DenseTensor> {
    let n = x.order();
    check_permutation(order, n)?;
    let in_shape = x.shape().to_vec();
    let out_shape: Vec<usize> = order.iter().map(|&p| in_shape[p]).collect();

    // Output stride (Fortran) of input axis k = stride of the output
    // position holding k.
    let mut out_strides_by_pos = vec![1usize; n];
    for p in 1..n {
        out_strides_by_pos[p] = out_strides_by_pos[p - 1] * out_shape[p - 1];
    }
    let mut ostride_of_input_axis = vec![0usize; n];
    for (p, &axis) in order.iter().enumerate() {
        ostride_of_input_axis[axis] = out_strides_by_pos[p];
    }

    let mut out = DenseTensor::zeros(&out_shape)?;
    let odat = out.as_mut_slice();
    let mut idx = vec![0usize; n];
    let mut ooff = 0usize;
    for &v in x.as_slice() {
        odat[ooff] = v;
        for k in 0..n {
            idx[k] += 1;
            ooff += ostride_of_input_axis[k];
            if idx[k] < in_shape[k] {
                break;
            }
            idx[k] = 0;
            ooff -= ostride_of_input_axis[k] * in_shape[k];
        }
    }
    Ok(out)
}

/// Checks that `perm` is a permutation of `0..n`: the one check shared by
/// [`permute`], the slice sources and the stored sliced form.
pub fn check_permutation(perm: &[usize], n: usize) -> Result<()> {
    let mut seen = vec![false; n];
    let ok = perm.len() == n
        && perm
            .iter()
            .all(|&p| p < n && !std::mem::replace(&mut seen[p], true));
    if !ok {
        return Err(TensorError::ShapeMismatch {
            op: "permute",
            details: format!("{perm:?} is not a permutation of 0..{n}"),
        });
    }
    Ok(())
}

/// Returns the permutation that sorts the modes by descending
/// dimensionality, breaking ties by mode index (stable). This is the
/// reordering D-Tucker applies so the two largest modes form the slices.
pub fn descending_mode_order(shape: &[usize]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..shape.len()).collect();
    order.sort_by(|&a, &b| shape[b].cmp(&shape[a]).then(a.cmp(&b)));
    order
}

/// Inverts a permutation: `inverse[p[i]] = i`.
pub fn inverse_permutation(p: &[usize]) -> Vec<usize> {
    let mut inv = vec![0usize; p.len()];
    for (i, &pi) in p.iter().enumerate() {
        inv[pi] = i;
    }
    inv
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example_tensor() -> DenseTensor {
        // Kolda & Bader's 3x4x2 running example: entries 1..24 in Fortran
        // order.
        DenseTensor::from_vec(&[3, 4, 2], (1..=24).map(|v| v as f64).collect()).unwrap()
    }

    #[test]
    fn unfold_mode0_matches_kolda() {
        let x = example_tensor();
        let m = unfold(&x, 0).unwrap();
        assert_eq!(m.shape(), (3, 8));
        // X_(1) row 0: 1 4 7 10 13 16 19 22
        assert_eq!(m.row(0), &[1.0, 4.0, 7.0, 10.0, 13.0, 16.0, 19.0, 22.0]);
        assert_eq!(m.row(2), &[3.0, 6.0, 9.0, 12.0, 15.0, 18.0, 21.0, 24.0]);
    }

    #[test]
    fn unfold_mode1_matches_kolda() {
        let x = example_tensor();
        let m = unfold(&x, 1).unwrap();
        assert_eq!(m.shape(), (4, 6));
        // X_(2) row 0: 1 2 3 13 14 15
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0, 13.0, 14.0, 15.0]);
        assert_eq!(m.row(3), &[10.0, 11.0, 12.0, 22.0, 23.0, 24.0]);
    }

    #[test]
    fn unfold_mode2_matches_kolda() {
        let x = example_tensor();
        let m = unfold(&x, 2).unwrap();
        assert_eq!(m.shape(), (2, 12));
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 11), 12.0);
        assert_eq!(m.get(1, 0), 13.0);
        assert_eq!(m.get(1, 11), 24.0);
    }

    #[test]
    fn fold_inverts_unfold_all_modes() {
        let x = DenseTensor::from_fn(&[3, 4, 2, 5], |idx| {
            (idx[0] + 7 * idx[1] + 31 * idx[2] + 101 * idx[3]) as f64
        })
        .unwrap();
        for mode in 0..4 {
            let m = unfold(&x, mode).unwrap();
            let back = fold(&m, mode, x.shape()).unwrap();
            assert_eq!(back, x, "mode {mode}");
        }
    }

    #[test]
    fn unfold_rejects_bad_mode() {
        let x = example_tensor();
        assert!(matches!(
            unfold(&x, 3),
            Err(TensorError::InvalidMode { .. })
        ));
        assert!(fold(&Matrix::zeros(3, 8), 3, &[3, 4, 2]).is_err());
        assert!(fold(&Matrix::zeros(2, 8), 0, &[3, 4, 2]).is_err());
    }

    #[test]
    fn permute_reverses() {
        let x = example_tensor();
        let p = permute(&x, &[2, 1, 0]).unwrap();
        assert_eq!(p.shape(), &[2, 4, 3]);
        for i in 0..3 {
            for j in 0..4 {
                for k in 0..2 {
                    assert_eq!(p.get(&[k, j, i]), x.get(&[i, j, k]));
                }
            }
        }
        // Round-trip through the inverse permutation.
        let back = permute(&p, &inverse_permutation(&[2, 1, 0])).unwrap();
        assert_eq!(back, x);
    }

    #[test]
    fn permute_identity_is_noop() {
        let x = example_tensor();
        assert_eq!(permute(&x, &[0, 1, 2]).unwrap(), x);
    }

    #[test]
    fn permute_validates() {
        let x = example_tensor();
        assert!(permute(&x, &[0, 1]).is_err());
        assert!(permute(&x, &[0, 0, 1]).is_err());
        assert!(permute(&x, &[0, 1, 3]).is_err());
    }

    #[test]
    fn permute_4d_random_round_trip() {
        let x = DenseTensor::from_fn(&[2, 3, 4, 5], |idx| {
            (idx[0] * 1000 + idx[1] * 100 + idx[2] * 10 + idx[3]) as f64
        })
        .unwrap();
        let order = [3, 0, 2, 1];
        let p = permute(&x, &order).unwrap();
        assert_eq!(p.shape(), &[5, 2, 4, 3]);
        assert_eq!(p.get(&[4, 1, 3, 2]), x.get(&[1, 2, 3, 4]));
        let back = permute(&p, &inverse_permutation(&order)).unwrap();
        assert_eq!(back, x);
    }

    #[test]
    fn descending_order_and_inverse() {
        assert_eq!(descending_mode_order(&[10, 50, 20]), vec![1, 2, 0]);
        assert_eq!(descending_mode_order(&[5, 5, 3]), vec![0, 1, 2]);
        assert_eq!(inverse_permutation(&[1, 2, 0]), vec![2, 0, 1]);
    }

    #[test]
    fn unfold_preserves_fro_norm() {
        let x = example_tensor();
        for mode in 0..3 {
            let m = unfold(&x, mode).unwrap();
            assert!((m.fro_norm() - x.fro_norm()).abs() < 1e-12);
        }
    }
}
