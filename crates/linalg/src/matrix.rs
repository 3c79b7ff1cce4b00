//! Dense row-major `f64` matrix.
//!
//! This is the workhorse type of the whole workspace. It is deliberately
//! simple — a shape plus a contiguous `Vec<f64>` — so that the hot kernels in
//! [`crate::gemm`] can operate on raw slices without bounds checks in inner
//! loops.

use crate::error::{LinalgError, Result};

/// A dense matrix of `f64` values stored in row-major order.
///
/// Element `(r, c)` lives at `data[r * cols + c]`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// Returns an error if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                op: "Matrix::from_vec",
                details: format!(
                    "{}x{} needs {} elements, got {}",
                    rows,
                    cols,
                    rows * cols,
                    data.len()
                ),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix by evaluating `f(r, c)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a square matrix with `diag` on the main diagonal.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m.data[i * n + i] = d;
        }
        m
    }

    /// Builds a matrix from row slices. All rows must have equal length.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != ncols {
                return Err(LinalgError::DimensionMismatch {
                    op: "Matrix::from_rows",
                    details: format!("row {} has length {}, expected {}", i, row.len(), ncols),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the underlying row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix and returns its storage.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Reads entry `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Writes entry `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows);
        let c = self.cols;
        &mut self.data[r * c..(r + 1) * c]
    }

    /// Copies column `c` into a fresh vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        debug_assert!(c < self.cols);
        (0..self.rows)
            .map(|r| self.data[r * self.cols + c])
            .collect()
    }

    /// Overwrites column `c` with `values`.
    pub fn set_col(&mut self, c: usize, values: &[f64]) {
        debug_assert_eq!(values.len(), self.rows);
        for (r, &v) in values.iter().enumerate() {
            self.data[r * self.cols + c] = v;
        }
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        // Tile the transpose to stay cache-friendly for large operands.
        const B: usize = 32;
        for rb in (0..self.rows).step_by(B) {
            for cb in (0..self.cols).step_by(B) {
                let rmax = (rb + B).min(self.rows);
                let cmax = (cb + B).min(self.cols);
                for r in rb..rmax {
                    for c in cb..cmax {
                        out.data[c * self.rows + r] = self.data[r * self.cols + c];
                    }
                }
            }
        }
        out
    }

    /// Extracts the sub-matrix with rows `r0..r1` and columns `c0..c1`.
    pub fn submatrix(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Matrix {
        debug_assert!(r0 <= r1 && r1 <= self.rows);
        debug_assert!(c0 <= c1 && c1 <= self.cols);
        let mut out = Matrix::zeros(r1 - r0, c1 - c0);
        for r in r0..r1 {
            out.as_mut_slice()[(r - r0) * (c1 - c0)..(r - r0 + 1) * (c1 - c0)]
                .copy_from_slice(&self.data[r * self.cols + c0..r * self.cols + c1]);
        }
        out
    }

    /// Keeps only the first `k` columns.
    pub fn truncate_cols(&self, k: usize) -> Matrix {
        debug_assert!(k <= self.cols);
        self.submatrix(0, self.rows, 0, k)
    }

    /// Horizontal concatenation `[self | other]`.
    pub fn hcat(&self, other: &Matrix) -> Result<Matrix> {
        if self.rows != other.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "hcat",
                details: format!("{} rows vs {} rows", self.rows, other.rows),
            });
        }
        let cols = self.cols + other.cols;
        let mut out = Matrix::zeros(self.rows, cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        Ok(out)
    }

    /// Vertical concatenation `[self; other]`.
    pub fn vcat(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "vcat",
                details: format!("{} cols vs {} cols", self.cols, other.cols),
            });
        }
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Ok(Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        })
    }

    /// In-place scalar multiplication.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// `self + other`, returning a new matrix.
    pub fn add(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// `self - other`, returning a new matrix.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    /// `self += alpha * other` in place.
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(LinalgError::DimensionMismatch {
                op: "axpy",
                details: format!("{:?} vs {:?}", self.shape(), other.shape()),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    fn zip_with(
        &self,
        other: &Matrix,
        op: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(LinalgError::DimensionMismatch {
                op,
                details: format!("{:?} vs {:?}", self.shape(), other.shape()),
            });
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Frobenius norm `sqrt(Σ aᵢⱼ²)`.
    ///
    /// Uses scaled accumulation so that very large or very small entries do
    /// not overflow/underflow the running sum.
    pub fn fro_norm(&self) -> f64 {
        crate::norms::fro_norm(&self.data)
    }

    /// Largest absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, &v| m.max(v.abs()))
    }

    /// Multiplies `self * v` for a vector `v` of length `cols`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "matvec",
                details: format!("matrix {}x{}, vector {}", self.rows, self.cols, v.len()),
            });
        }
        let mut out = vec![0.0; self.rows];
        for r in 0..self.rows {
            let row = self.row(r);
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(v.iter()) {
                acc += a * b;
            }
            out[r] = acc;
        }
        Ok(out)
    }

    /// Multiplies `selfᵀ * v` for a vector `v` of length `rows`.
    pub fn t_matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "t_matvec",
                details: format!("matrix {}x{}, vector {}", self.rows, self.cols, v.len()),
            });
        }
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            let row = self.row(r);
            let s = v[r];
            for (o, &a) in out.iter_mut().zip(row.iter()) {
                *o += s * a;
            }
        }
        Ok(out)
    }

    /// True when `|self - other|` is entry-wise within `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }

    /// Maximum entry-wise absolute difference, or `f64::INFINITY` on shape
    /// mismatch.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        if self.shape() != other.shape() {
            return f64::INFINITY;
        }
        self.data
            .iter()
            .zip(other.data.iter())
            .fold(0.0f64, |m, (&a, &b)| m.max((a - b).abs()))
    }

    /// Checks column orthonormality: `‖selfᵀ self − I‖_max ≤ tol`.
    pub fn has_orthonormal_cols(&self, tol: f64) -> bool {
        let g = crate::gemm::t_matmul(self, self);
        let mut max_dev = 0.0f64;
        for r in 0..g.rows() {
            for c in 0..g.cols() {
                let target = if r == c { 1.0 } else { 0.0 };
                max_dev = max_dev.max((g.get(r, c) - target).abs());
            }
        }
        max_dev <= tol
    }
}

impl std::fmt::Debug for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8usize;
        for r in 0..self.rows.min(max_rows) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:>12.5} ", self.get(r, c))?;
            }
            if self.cols > 8 {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > max_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));

        let i = Matrix::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i.get(r, c), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn from_fn_layout_is_row_major() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f64);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(m.get(1, 2), 12.0);
    }

    #[test]
    fn from_rows_validates_lengths() {
        let ok = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(ok.get(1, 0), 3.0);
        assert!(Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).is_err());
    }

    #[test]
    fn transpose_round_trip() {
        let m = Matrix::from_fn(5, 7, |r, c| (r * 7 + c) as f64);
        let t = m.transpose();
        assert_eq!(t.shape(), (7, 5));
        assert_eq!(t.get(3, 4), m.get(4, 3));
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn transpose_large_tiled() {
        let m = Matrix::from_fn(65, 130, |r, c| (r * 1000 + c) as f64);
        let t = m.transpose();
        for r in 0..65 {
            for c in 0..130 {
                assert_eq!(t.get(c, r), m.get(r, c));
            }
        }
    }

    #[test]
    fn col_get_set() {
        let mut m = Matrix::zeros(3, 2);
        m.set_col(1, &[1.0, 2.0, 3.0]);
        assert_eq!(m.col(1), vec![1.0, 2.0, 3.0]);
        assert_eq!(m.col(0), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn submatrix_and_truncate() {
        let m = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f64);
        let s = m.submatrix(1, 3, 2, 4);
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s.get(0, 0), m.get(1, 2));
        assert_eq!(s.get(1, 1), m.get(2, 3));
        assert_eq!(m.truncate_cols(2).shape(), (4, 2));
    }

    #[test]
    fn hcat_vcat() {
        let a = Matrix::from_fn(2, 2, |r, c| (r * 2 + c) as f64);
        let b = Matrix::from_fn(2, 1, |r, _| 100.0 + r as f64);
        let h = a.hcat(&b).unwrap();
        assert_eq!(h.shape(), (2, 3));
        assert_eq!(h.get(1, 2), 101.0);
        let v = a.vcat(&a).unwrap();
        assert_eq!(v.shape(), (4, 2));
        assert_eq!(v.get(3, 1), a.get(1, 1));
        assert!(a.hcat(&Matrix::zeros(3, 1)).is_err());
        assert!(a.vcat(&Matrix::zeros(1, 3)).is_err());
    }

    #[test]
    fn arithmetic() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Matrix::identity(2);
        assert_eq!(a.add(&b).unwrap().get(0, 0), 2.0);
        assert_eq!(a.sub(&b).unwrap().get(1, 1), 3.0);
        let mut c = a.clone();
        c.axpy(2.0, &b).unwrap();
        assert_eq!(c.get(0, 0), 3.0);
        assert!(a.add(&Matrix::zeros(3, 3)).is_err());
        let mut d = a.clone();
        d.scale(0.5);
        assert_eq!(d.get(0, 1), 1.0);
    }

    #[test]
    fn norms() {
        let a = Matrix::from_vec(1, 2, vec![3.0, 4.0]).unwrap();
        assert!((a.fro_norm() - 5.0).abs() < 1e-12);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    fn matvec_and_transposed() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(a.matvec(&[1.0, 0.0, -1.0]).unwrap(), vec![-2.0, -2.0]);
        assert_eq!(a.t_matvec(&[1.0, 1.0]).unwrap(), vec![5.0, 7.0, 9.0]);
        assert!(a.matvec(&[1.0]).is_err());
        assert!(a.t_matvec(&[1.0]).is_err());
    }

    #[test]
    fn approx_eq_and_diff() {
        let a = Matrix::identity(2);
        let mut b = a.clone();
        b.set(0, 1, 1e-9);
        assert!(a.approx_eq(&b, 1e-8));
        assert!(!a.approx_eq(&b, 1e-10));
        assert!((a.max_abs_diff(&b) - 1e-9).abs() < 1e-18);
        assert_eq!(a.max_abs_diff(&Matrix::zeros(3, 3)), f64::INFINITY);
    }

    #[test]
    fn from_diag_places_values() {
        let d = Matrix::from_diag(&[1.0, 2.0, 3.0]);
        assert_eq!(d.get(1, 1), 2.0);
        assert_eq!(d.get(0, 1), 0.0);
    }
}
