//! # dtucker-linalg
//!
//! From-scratch dense linear algebra for the `dtucker` workspace.
//!
//! The offline crate set available to this project contains neither BLAS
//! bindings nor `ndarray`, so everything a Tucker decomposition needs is
//! implemented here, in safe Rust, with an eye on the operations D-Tucker is
//! actually bound by:
//!
//! * [`matrix::Matrix`] — dense row-major `f64` matrices;
//! * [`gemm`] — blocked, multi-threaded matrix products (`AB`, `AᵀB`, `ABᵀ`,
//!   Gram products);
//! * [`qr`] — Householder thin QR, orthonormalization, least squares;
//! * [`svd`] — accurate one-sided-Jacobi SVD plus Gram-matrix routes for
//!   truncated factors;
//! * [`eig`] — symmetric eigendecomposition (Householder tridiagonalization
//!   + QL) and its top-k variant;
//! * [`rsvd`] — randomized SVD (the D-Tucker approximation-phase kernel);
//! * [`cholesky`] — SPD factorization and solves;
//! * [`random`] — Gaussian test matrices (Marsaglia polar method);
//! * [`norms`] — overflow-safe norms and slice helpers.
//!
//! ## Example
//!
//! ```
//! use dtucker_linalg::{Matrix, gemm, svd};
//!
//! let a = Matrix::from_fn(8, 3, |r, c| (r * 3 + c) as f64);
//! let d = svd::svd(&a).unwrap();
//! let rec = d.reconstruct();
//! assert!(rec.approx_eq(&a, 1e-9));
//! let gram = gemm::t_matmul(&a, &a);
//! assert_eq!(gram.shape(), (3, 3));
//! ```

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]
// Numerical kernels index several arrays with one loop counter; iterator
// rewrites would obscure the textbook algorithms without changing codegen.
#![allow(clippy::needless_range_loop)]

/// Cholesky factorization and SPD solves.
pub mod cholesky;
/// Symmetric eigendecomposition (tridiagonal QL).
pub mod eig;
/// Typed linear-algebra errors.
pub mod error;
/// Cache-blocked, packed, multi-threaded GEMM.
pub mod gemm;
/// The dense row-major `Matrix` type.
pub mod matrix;
/// Frobenius norms and stable accumulators.
pub mod norms;
/// Elementwise matrix arithmetic and operator overloads.
pub mod ops;
/// The shared worker pool driving all parallel kernels.
pub mod pool;
/// Householder QR factorization.
pub mod qr;
/// Seeded Gaussian test/sketch matrices.
pub mod random;
/// Randomized SVD (range finder + small SVD).
pub mod rsvd;
/// One-sided Jacobi SVD and truncated variants.
pub mod svd;
/// Golub–Reinsch bidiagonal SVD.
pub mod svd_gr;

pub use error::{LinalgError, Result};
pub use matrix::Matrix;
pub use svd::Svd;
