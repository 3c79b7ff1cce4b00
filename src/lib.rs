//! # dtucker
//!
//! Facade crate re-exporting the whole D-Tucker workspace — the Rust
//! reproduction of *"D-Tucker: Fast and Memory-Efficient Tucker
//! Decomposition for Dense Tensors"* (Jang & Kang, ICDE 2020).
//!
//! ```
//! use dtucker::{DTucker, DTuckerConfig};
//! use dtucker::data::{generate, Dataset, Scale};
//!
//! let x = generate(Dataset::AirQuality, Scale::Ci, 0).unwrap();
//! let out = DTucker::new(DTuckerConfig::uniform(4, 3)).decompose(&x).unwrap();
//! assert!(out.decomposition.relative_error_sq(&x).unwrap() < 0.2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Baseline Tucker methods (HOOI, HOSVD, MACH, RTD, Tucker-ts/ttmts).
pub use dtucker_baselines as baselines;
/// The D-Tucker algorithm (approximation/initialization/iteration phases).
pub use dtucker_core as core;
/// Synthetic workload generators standing in for the evaluation datasets.
pub use dtucker_data as data;
/// Dense linear algebra substrate (matrices, GEMM, QR, SVD, eigen, rSVD).
pub use dtucker_linalg as linalg;
/// Factored reconstruction queries against stored decompositions.
pub use dtucker_query as query;
/// Concurrent HTTP query serving over stored artifacts.
pub use dtucker_serve as serve;
/// Sketching substrate (FFT, CountSketch, TensorSketch).
pub use dtucker_sketch as sketch;
/// Out-of-core slice sourcing and persistent artifacts (checkpoint/resume).
pub use dtucker_store as store;
/// Dense/sparse tensors, matricization, n-mode products.
pub use dtucker_tensor as tensor;

pub use dtucker_core::{
    decompose_to_target_error, ConvergenceTrace, DTucker, DTuckerConfig, DTuckerOutput,
    DTuckerStream, InMemorySource, InitStrategy, SliceSource, SliceSvdKind, SlicedTensor,
    SweepState, TuckerDecomp,
};
pub use dtucker_linalg::Matrix;
pub use dtucker_query::{QueryEngine, Range, SharedQueryEngine};
pub use dtucker_serve::{ServeConfig, Server};
pub use dtucker_store::{ArtifactStore, DtenSliceSource, HooiCheckpoint};
pub use dtucker_tensor::DenseTensor;
