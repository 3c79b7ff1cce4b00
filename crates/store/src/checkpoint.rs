//! HOOI checkpoint/resume.
//!
//! A checkpoint captures everything the iteration phase needs to continue
//! after a crash: the completed sweep count, the factor matrices (internal
//! mode order), the convergence trace (the stopping rule compares against
//! the previous sweep's fit), and enough of the run's identity — sliced
//! shape, permutation, target ranks, seed, tolerance, sweep budget — to
//! refuse resuming against the wrong artifact or configuration. Because
//! every ALS sweep is a deterministic function of `(factors, trace)` and
//! the compressed tensor, a resumed run converges to the **bit-identical**
//! factors of the uninterrupted run.
//!
//! Checkpoint payload (inside the standard container, kind 3):
//!
//! ```text
//! sweep      u64
//! shape      vec<u64>    internal shape of the sliced tensor
//! perm       vec<u64>
//! ranks      vec<u64>    target ranks, original mode order
//! seed       u64
//! tolerance  f64
//! max_iters  u64
//! factors    u64 count, then matrix × count (internal order)
//! sweep_fits vec<f64>
//! converged  u64         0 or 1
//! ```

use crate::error::{Result, StoreError};
use crate::format::{
    decode_container, encode_container, put_f64_vec, put_f64s, put_matrix, put_u64, put_usize_vec,
    ArtifactKind, Reader,
};
use dtucker_core::iterate::{SweepSnapshot, SweepState};
use dtucker_core::{ConvergenceTrace, DTuckerConfig, SlicedTensor};
use dtucker_linalg::matrix::Matrix;

/// A persisted mid-run state of the HOOI iteration phase.
#[derive(Debug, Clone)]
pub struct HooiCheckpoint {
    /// Completed sweeps.
    pub sweep: usize,
    /// Internal shape of the sliced tensor the run was iterating on.
    pub shape: Vec<usize>,
    /// Mode permutation of that sliced tensor.
    pub perm: Vec<usize>,
    /// Target multilinear ranks, in **original** mode order.
    pub ranks: Vec<usize>,
    /// RNG seed of the run.
    pub seed: u64,
    /// Convergence tolerance of the run.
    pub tolerance: f64,
    /// Sweep budget of the run.
    pub max_iters: usize,
    /// Factor matrices, internal mode order.
    pub factors: Vec<Matrix>,
    /// Convergence record of the completed sweeps.
    pub trace: ConvergenceTrace,
}

impl HooiCheckpoint {
    /// Captures a checkpoint from a sweep snapshot plus the run identity.
    pub fn from_snapshot(snap: &SweepSnapshot<'_>, st: &SlicedTensor, cfg: &DTuckerConfig) -> Self {
        HooiCheckpoint {
            sweep: snap.sweep,
            shape: st.shape().to_vec(),
            perm: st.perm().to_vec(),
            ranks: cfg.ranks.clone(),
            seed: cfg.seed,
            tolerance: cfg.tolerance,
            max_iters: cfg.max_iters,
            factors: snap.factors.to_vec(),
            trace: snap.trace.clone(),
        }
    }

    /// Serializes into a complete artifact container.
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Vec::new();
        put_u64(&mut p, self.sweep as u64);
        put_usize_vec(&mut p, &self.shape);
        put_usize_vec(&mut p, &self.perm);
        put_usize_vec(&mut p, &self.ranks);
        put_u64(&mut p, self.seed);
        put_f64s(&mut p, &[self.tolerance]);
        put_u64(&mut p, self.max_iters as u64);
        put_u64(&mut p, self.factors.len() as u64);
        for f in &self.factors {
            put_matrix(&mut p, f);
        }
        put_f64_vec(&mut p, &self.trace.sweep_fits);
        put_u64(&mut p, self.trace.converged as u64);
        encode_container(ArtifactKind::Checkpoint, &p)
    }

    /// Decodes a checkpoint container (checksum validated).
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let (kind, payload) = decode_container(bytes)?;
        if kind != ArtifactKind::Checkpoint {
            return Err(StoreError::Mismatch(format!(
                "expected a HOOI checkpoint, found a {}",
                kind.describe()
            )));
        }
        let mut r = Reader::new(payload);
        let sweep = r.len(0, "sweep")?;
        let shape = r.usize_vec("shape")?;
        let perm = r.usize_vec("perm")?;
        let ranks = r.usize_vec("ranks")?;
        let seed = r.u64("seed")?;
        let tolerance = r.f64("tolerance")?;
        let max_iters = r.len(0, "max_iters")?;
        let n = r.len(1, "factor count")?;
        let mut factors = Vec::with_capacity(n);
        for m in 0..n {
            factors.push(r.matrix(&format!("factor {m}"))?);
        }
        let sweep_fits = r.f64_vec("sweep fits")?;
        let converged = match r.u64("converged")? {
            0 => false,
            1 => true,
            other => {
                return Err(StoreError::Format(format!(
                    "converged flag is {other}, expected 0 or 1"
                )))
            }
        };
        r.finish("checkpoint")?;
        if shape.len() < 2 || shape.len() != perm.len() || factors.len() != shape.len() {
            return Err(StoreError::Format(format!(
                "inconsistent checkpoint: order {} / perm {} / {} factors",
                shape.len(),
                perm.len(),
                factors.len()
            )));
        }
        if sweep_fits.len() != sweep {
            return Err(StoreError::Format(format!(
                "checkpoint at sweep {sweep} carries {} fits",
                sweep_fits.len()
            )));
        }
        Ok(HooiCheckpoint {
            sweep,
            shape,
            perm,
            ranks,
            seed,
            tolerance,
            max_iters,
            factors,
            trace: ConvergenceTrace {
                sweep_fits,
                converged,
            },
        })
    }

    /// Verifies this checkpoint belongs to a run over `st` with `cfg`.
    /// Factor shapes are checked again by the core on resume; this guards
    /// the run identity (wrong artifact, changed configuration).
    pub fn validate_against(&self, st: &SlicedTensor, cfg: &DTuckerConfig) -> Result<()> {
        if self.shape != st.shape() || self.perm != st.perm() {
            return Err(StoreError::Mismatch(format!(
                "checkpoint is for shape {:?} perm {:?}, artifact has {:?} perm {:?}",
                self.shape,
                self.perm,
                st.shape(),
                st.perm()
            )));
        }
        if self.ranks != cfg.ranks {
            return Err(StoreError::Mismatch(format!(
                "checkpoint targets ranks {:?}, configuration asks {:?}",
                self.ranks, cfg.ranks
            )));
        }
        if self.seed != cfg.seed {
            return Err(StoreError::Mismatch(format!(
                "checkpoint seed {} != configured seed {}",
                self.seed, cfg.seed
            )));
        }
        if self.tolerance.to_bits() != cfg.tolerance.to_bits() {
            return Err(StoreError::Mismatch(format!(
                "checkpoint tolerance {} != configured {}",
                self.tolerance, cfg.tolerance
            )));
        }
        Ok(())
    }

    /// Converts into the core's resumable iteration state.
    pub fn into_state(self) -> SweepState {
        SweepState {
            sweep: self.sweep,
            factors: self.factors,
            trace: self.trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtucker_core::DTucker;
    use dtucker_tensor::random::low_rank_plus_noise;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_pieces() -> (SlicedTensor, DTuckerConfig, HooiCheckpoint) {
        let mut rng = StdRng::seed_from_u64(5);
        let x = low_rank_plus_noise(&[14, 11, 6], &[2, 2, 2], 0.1, &mut rng).unwrap();
        let mut cfg = DTuckerConfig::uniform(2, 3).with_seed(6);
        cfg.tolerance = 0.0;
        cfg.max_iters = 4;
        let st = SlicedTensor::compress(&x, &cfg).unwrap();
        let mut saved = None;
        DTucker::new(cfg.clone())
            .decompose_sliced_resumable(&st, None, &mut |snap| {
                if snap.sweep == 2 {
                    saved = Some(HooiCheckpoint::from_snapshot(&snap, &st, &cfg));
                }
                Ok(())
            })
            .unwrap();
        (st, cfg, saved.unwrap())
    }

    #[test]
    fn round_trip_preserves_everything() {
        let (_, _, ck) = run_pieces();
        let back = HooiCheckpoint::decode(&ck.encode()).unwrap();
        assert_eq!(back.sweep, 2);
        assert_eq!(back.shape, ck.shape);
        assert_eq!(back.perm, ck.perm);
        assert_eq!(back.ranks, ck.ranks);
        assert_eq!(back.seed, ck.seed);
        assert_eq!(back.tolerance.to_bits(), ck.tolerance.to_bits());
        assert_eq!(back.max_iters, ck.max_iters);
        for (a, b) in back.factors.iter().zip(ck.factors.iter()) {
            assert_eq!(a, b);
        }
        assert_eq!(back.trace.sweep_fits, ck.trace.sweep_fits);
        assert_eq!(back.trace.converged, ck.trace.converged);
        let state = back.into_state();
        assert_eq!(state.sweep, 2);
    }

    #[test]
    fn validates_run_identity() {
        let (st, cfg, ck) = run_pieces();
        assert!(ck.validate_against(&st, &cfg).is_ok());
        let mut wrong = cfg.clone();
        wrong.seed = 999;
        assert!(matches!(
            ck.validate_against(&st, &wrong),
            Err(StoreError::Mismatch(_))
        ));
        let mut wrong = cfg.clone();
        wrong.ranks = vec![3, 3, 3];
        assert!(ck.validate_against(&st, &wrong).is_err());
        let mut wrong = cfg.clone();
        wrong.tolerance = 0.5;
        assert!(ck.validate_against(&st, &wrong).is_err());
        let mut other = ck.clone();
        other.shape[0] += 1;
        assert!(other.validate_against(&st, &cfg).is_err());
    }

    #[test]
    fn rejects_inconsistent_payloads() {
        let (_, _, ck) = run_pieces();
        // Lie about the sweep count vs the trace length.
        let mut bad = ck.clone();
        bad.sweep = 5;
        assert!(HooiCheckpoint::decode(&bad.encode()).is_err());
        // Wrong kind.
        let (st, ..) = run_pieces();
        let sliced_bytes = crate::format::encode_sliced(&st);
        assert!(matches!(
            HooiCheckpoint::decode(&sliced_bytes),
            Err(StoreError::Mismatch(_))
        ));
    }
}
