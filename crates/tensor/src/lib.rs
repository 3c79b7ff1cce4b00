//! # dtucker-tensor
//!
//! Dense and sparse tensor substrate for the `dtucker` workspace.
//!
//! * [`dense::DenseTensor`] — Fortran-ordered dense tensors whose frontal
//!   slices (the unit of D-Tucker's compression) are contiguous;
//! * [`unfold`] — Kolda-convention mode-n matricization, folding, mode
//!   permutation;
//! * [`ttm`] — n-mode products as batched GEMMs over buffer windows;
//! * [`sparse::SparseTensor`] — COO tensors for the MACH baseline;
//! * [`random`] — generic random/low-rank tensor generators;
//! * [`io`] — a small self-describing binary format.
//!
//! ## Example
//!
//! ```
//! use dtucker_tensor::dense::DenseTensor;
//! use dtucker_tensor::{ttm, unfold};
//! use dtucker_linalg::Matrix;
//!
//! let x = DenseTensor::from_fn(&[4, 3, 2], |idx| idx[0] as f64).unwrap();
//! let a = Matrix::identity(4);
//! let y = ttm::ttm(&x, &a, 0).unwrap();
//! assert_eq!(y.shape(), &[4, 3, 2]);
//! let m = unfold::unfold(&x, 1).unwrap();
//! assert_eq!(m.shape(), (3, 8));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)]

/// The Fortran-order `DenseTensor` type.
pub mod dense;
/// Typed tensor errors.
pub mod error;
/// The `.dten` file format and atomic writes.
pub mod io;
/// Seeded random tensors and low-rank-plus-noise models.
pub mod random;
/// COO sparse tensors and sparse TTM.
pub mod sparse;
/// Tensor-times-matrix products and chains.
pub mod ttm;
/// Mode-n unfoldings and permutations.
pub mod unfold;

pub use dense::DenseTensor;
pub use error::{Result, TensorError};
pub use sparse::SparseTensor;
