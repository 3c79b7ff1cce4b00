//! # dtucker-core
//!
//! A Rust implementation of **D-Tucker** (Jang & Kang, *D-Tucker: Fast and
//! Memory-Efficient Tucker Decomposition for Dense Tensors*, ICDE 2020).
//!
//! D-Tucker computes a rank-(J₁,…,J_N) Tucker decomposition of a large
//! dense tensor in three phases, none of which ever runs ALS on the raw
//! tensor:
//!
//! 1. **approximation** ([`slices`]) — the tensor is viewed as
//!    `L = I₃⋯I_N` frontal slices (after reordering modes so the two
//!    largest lead) and each slice is compressed with a randomized SVD;
//! 2. **initialization** ([`init`]) — factor matrices are seeded directly
//!    from the slice SVDs;
//! 3. **iteration** ([`iterate`]) — HOOI-style ALS whose n-mode products
//!    are all evaluated through the slice factors.
//!
//! The [`dtucker::DTucker`] type orchestrates the three phases;
//! [`streaming::DTuckerStream`] extends the method to temporally growing
//! tensors (the paper's future-work direction).
//!
//! ```
//! use dtucker_core::{DTucker, DTuckerConfig};
//! use dtucker_tensor::random::low_rank_plus_noise;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let x = low_rank_plus_noise(&[40, 30, 20], &[5, 5, 5], 0.05, &mut rng).unwrap();
//! let out = DTucker::new(DTuckerConfig::uniform(5, 3)).decompose(&x).unwrap();
//! println!(
//!     "error {:.4}, {} sweeps, compression {:.1}x",
//!     out.decomposition.relative_error_sq(&x).unwrap(),
//!     out.trace.iterations(),
//!     out.sliced.compression_ratio(),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)]

/// Decomposition configuration (`DTuckerConfig`) and per-phase knobs.
pub mod config;
/// The three-phase D-Tucker orchestrator.
pub mod dtucker;
/// Typed errors shared by every core phase.
pub mod error;
/// Crash-atomic file writing shared by store, CLI, and bench writers.
pub mod fsutil;
/// Phase 2: factor initialization from the slice SVDs.
pub mod init;
/// Phase 3: HOOI-style iteration evaluated through the slice factors.
pub mod iterate;
/// The workspace's one JSON writer.
pub mod json;
/// Per-phase timing profiles (`PhaseProfile`), error profiles and
/// anomaly helpers.
pub mod profile;
/// Phase 1: frontal-slice randomized-SVD approximation.
pub mod slices;
/// `SliceSource` out-of-core sourcing abstractions.
pub mod source;
/// Streaming D-Tucker for temporally growing tensors.
pub mod streaming;
/// Convergence traces recorded during iteration.
pub mod trace;
/// The Tucker decomposition container and reconstruction helpers.
pub mod tucker;

pub use config::{DTuckerConfig, SliceSvdKind};
pub use dtucker::{decompose_to_target_error, DTucker, DTuckerOutput, InitStrategy};
pub use error::{CoreError, Result};
pub use iterate::{SweepHook, SweepSnapshot, SweepState};
pub use profile::{anomalous_indices, error_profile_last_mode, PhaseProfile};
pub use slices::{SliceSvd, SlicedTensor};
pub use source::{InMemorySource, SliceSource};
pub use streaming::DTuckerStream;
pub use trace::ConvergenceTrace;
pub use tucker::TuckerDecomp;
