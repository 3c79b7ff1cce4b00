//! # dtucker-store
//!
//! Out-of-core input and persistent artifacts for the D-Tucker pipeline.
//!
//! Two pillars:
//!
//! 1. **Out-of-core slice sourcing** — [`DtenSliceSource`] reads frontal
//!    slices of a (virtually permuted) tensor straight from a `.dten` file,
//!    so the approximation phase runs in `O(I₁·I₂·chunk + compressed)`
//!    memory and produces decompositions **bit-identical** to the in-memory
//!    path. The [`SliceSource`] trait itself lives in `dtucker-core`
//!    (re-exported here) so the core never depends on this crate.
//! 2. **Persistent artifacts** — a versioned, CRC-checked container
//!    ([`format`]) for compressed tensors, Tucker decompositions, and HOOI
//!    checkpoints; [`ArtifactStore`] manages a directory of them with
//!    atomic writes, and [`HooiCheckpoint`] makes long iteration runs
//!    kill-safe: resuming reproduces the uninterrupted run bit for bit.
//!
//! ```no_run
//! use dtucker_core::{DTucker, DTuckerConfig, SlicedTensor};
//! use dtucker_store::{ArtifactStore, DtenSliceSource};
//!
//! // Compress a tensor file without ever materializing it in memory…
//! let mut src = DtenSliceSource::open("big.dten")?;
//! let cfg = DTuckerConfig::uniform(10, 3);
//! let st = SlicedTensor::compress_source(&mut src, &cfg)?;
//! // …persist the compressed artifact, decompose, persist the result.
//! let store = ArtifactStore::open("artifacts")?;
//! store.save_sliced("big", &st)?;
//! let out = DTucker::new(cfg).decompose_sliced(&st)?;
//! store.save_decomposition("big-decomp", &out.decomposition)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Resumable HOOI checkpoints.
pub mod checkpoint;
/// CRC-32/IEEE integrity checksums.
pub mod crc;
/// Typed store errors.
pub mod error;
/// The `.dts` artifact container and payload codecs.
pub mod format;
/// Out-of-core slice sources backed by `.dten` files.
pub mod source;
/// The on-disk artifact store (save/load/list).
pub mod store;

pub use checkpoint::HooiCheckpoint;
pub use crc::{crc32, Crc32};
pub use error::{Result, StoreError};
pub use format::{
    decode_sliced, decode_tucker, encode_sliced, encode_tucker, ArtifactKind, MAGIC, VERSION,
};
pub use source::DtenSliceSource;
pub use store::{
    probe, read_checkpoint, read_decomposition, read_sliced, write_checkpoint, write_decomposition,
    write_sliced, ArtifactStore,
};

// Re-export the sourcing trait and in-core implementations so users of this
// crate see the whole out-of-core story in one place.
pub use dtucker_core::source::{InMemorySource, SliceSource};
