//! The `.dts` artifact container and payload codecs.
//!
//! Every persistent artifact shares one little-endian container:
//!
//! ```text
//! magic        4 bytes   "DTAR"
//! version      u16       1
//! kind         u16       1 = sliced tensor, 2 = Tucker decomposition,
//!                        3 = HOOI checkpoint
//! payload_len  u64
//! payload      payload_len bytes (kind-specific, see below)
//! crc32        u32       CRC-32/IEEE over ALL preceding bytes
//! ```
//!
//! Payloads are built from four primitives: `u64`, `f64`, `vec<u64>` and
//! `vec<f64>` (vectors are a `u64` length followed by the elements), plus a
//! matrix (`rows u64, cols u64, data rows·cols × f64` row-major) and a
//! dense tensor (`shape vec<u64>, data numel × f64` Fortran order).
//!
//! * **sliced** — `shape vec, perm vec, slice_rank u64, num_slices u64,
//!   {u matrix, s vec<f64>, v matrix} × num_slices, norm_x_sq f64`;
//! * **tucker** — `core tensor, num_factors u64, factor matrix ×
//!   num_factors`;
//! * **checkpoint** — see [`crate::checkpoint`].
//!
//! Decoding is total: corrupt, truncated, or adversarial bytes produce a
//! typed [`StoreError`], never a panic or an outsized allocation (lengths
//! are validated against the bytes actually present before allocating).

use crate::crc::crc32;
use crate::error::{Result, StoreError};
use dtucker_core::slices::{SliceSvd, SlicedTensor};
use dtucker_core::tucker::TuckerDecomp;
use dtucker_linalg::matrix::Matrix;
use dtucker_tensor::dense::{checked_num_elements, DenseTensor};

/// Container magic.
pub const MAGIC: &[u8; 4] = b"DTAR";
/// Highest container version this build reads and the version it writes.
pub const VERSION: u16 = 1;
/// Container overhead: magic + version + kind + payload_len + crc32.
pub const OVERHEAD: usize = 4 + 2 + 2 + 8 + 4;

/// Total copy of the first 8 bytes of `b` into a fixed array (zero-padded
/// if short). Every caller has already length-checked `b`, but the total
/// form keeps the decoder panic-free on any input.
pub(crate) fn arr8(b: &[u8]) -> [u8; 8] {
    let mut out = [0u8; 8];
    let n = b.len().min(8);
    out[..n].copy_from_slice(&b[..n]);
    out
}

/// Total copy of the first 4 bytes of `b` into a fixed array (zero-padded
/// if short).
pub(crate) fn arr4(b: &[u8]) -> [u8; 4] {
    let mut out = [0u8; 4];
    let n = b.len().min(4);
    out[..n].copy_from_slice(&b[..n]);
    out
}

/// What a container holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ArtifactKind {
    /// A compressed [`SlicedTensor`].
    Sliced,
    /// A [`TuckerDecomp`].
    Tucker,
    /// A HOOI checkpoint ([`crate::checkpoint::HooiCheckpoint`]).
    Checkpoint,
}

impl ArtifactKind {
    fn to_u16(self) -> u16 {
        match self {
            ArtifactKind::Sliced => 1,
            ArtifactKind::Tucker => 2,
            ArtifactKind::Checkpoint => 3,
        }
    }

    fn from_u16(v: u16) -> Result<Self> {
        match v {
            1 => Ok(ArtifactKind::Sliced),
            2 => Ok(ArtifactKind::Tucker),
            3 => Ok(ArtifactKind::Checkpoint),
            other => Err(StoreError::Format(format!("unknown artifact kind {other}"))),
        }
    }

    /// Conventional file extension (`sliced.dts`, …) — all kinds share
    /// `.dts`; the header, not the name, is authoritative.
    pub fn describe(self) -> &'static str {
        match self {
            ArtifactKind::Sliced => "sliced tensor",
            ArtifactKind::Tucker => "Tucker decomposition",
            ArtifactKind::Checkpoint => "HOOI checkpoint",
        }
    }
}

/// Wraps a payload in the container (header + checksum).
pub fn encode_container(kind: ArtifactKind, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(OVERHEAD + payload.len());
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&kind.to_u16().to_le_bytes());
    put_u64(&mut buf, payload.len() as u64);
    buf.extend_from_slice(payload);
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// Validates a container (magic, version, length, checksum) and returns
/// its kind and payload.
pub fn decode_container(bytes: &[u8]) -> Result<(ArtifactKind, &[u8])> {
    if bytes.len() < OVERHEAD {
        return Err(StoreError::Format(format!(
            "{} bytes is too short for a container",
            bytes.len()
        )));
    }
    if &bytes[0..4] != MAGIC {
        return Err(StoreError::Format(format!("bad magic {:?}", &bytes[0..4])));
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version > VERSION || version == 0 {
        return Err(StoreError::UnsupportedVersion {
            found: version,
            supported: VERSION,
        });
    }
    let kind = ArtifactKind::from_u16(u16::from_le_bytes([bytes[6], bytes[7]]))?;
    let payload_len = u64::from_le_bytes(arr8(&bytes[8..16])) as usize;
    let expected = OVERHEAD
        .checked_add(payload_len)
        .ok_or_else(|| StoreError::Format("payload length overflows".into()))?;
    if bytes.len() != expected {
        return Err(StoreError::Format(format!(
            "container is {} bytes but header promises {expected}",
            bytes.len()
        )));
    }
    let body = &bytes[..bytes.len() - 4];
    let stored = u32::from_le_bytes(arr4(&bytes[bytes.len() - 4..]));
    let computed = crc32(body);
    if stored != computed {
        return Err(StoreError::Corrupt { stored, computed });
    }
    Ok((kind, &bytes[16..16 + payload_len]))
}

// ---------------------------------------------------------------------------
// Payload primitives.
// ---------------------------------------------------------------------------

/// Bounded little-endian reader over a payload. Every accessor checks the
/// remaining length first, so malformed payloads fail cleanly.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.buf.len() < n {
            return Err(StoreError::Format(format!(
                "truncated {what}: need {n} bytes, have {}",
                self.buf.len()
            )));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    pub(crate) fn u64(&mut self, what: &str) -> Result<u64> {
        Ok(u64::from_le_bytes(arr8(self.take(8, what)?)))
    }

    /// A `u64` that must fit in `usize` and be a plausible element count
    /// for the bytes still present (`bytes_per_item` each).
    pub(crate) fn len(&mut self, bytes_per_item: usize, what: &str) -> Result<usize> {
        let raw = self.u64(what)?;
        let n = usize::try_from(raw)
            .map_err(|_| StoreError::Format(format!("{what} length {raw} overflows")))?;
        if n.checked_mul(bytes_per_item)
            .map(|need| need > self.buf.len())
            .unwrap_or(true)
        {
            return Err(StoreError::Format(format!(
                "{what} claims {n} items but only {} bytes remain",
                self.buf.len()
            )));
        }
        Ok(n)
    }

    pub(crate) fn f64(&mut self, what: &str) -> Result<f64> {
        Ok(f64::from_le_bytes(arr8(self.take(8, what)?)))
    }

    pub(crate) fn usize_vec(&mut self, what: &str) -> Result<Vec<usize>> {
        let n = self.len(8, what)?;
        let raw = self.take(n * 8, what)?;
        let mut out = Vec::with_capacity(n);
        for chunk in raw.chunks_exact(8) {
            let v = u64::from_le_bytes(arr8(chunk));
            out.push(
                usize::try_from(v).map_err(|_| {
                    StoreError::Format(format!("{what} element {v} overflows usize"))
                })?,
            );
        }
        Ok(out)
    }

    pub(crate) fn f64_vec_exact(&mut self, n: usize, what: &str) -> Result<Vec<f64>> {
        let need = n
            .checked_mul(8)
            .ok_or_else(|| StoreError::Format(format!("{what} size overflows")))?;
        let raw = self.take(need, what)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(arr8(c)))
            .collect())
    }

    pub(crate) fn f64_vec(&mut self, what: &str) -> Result<Vec<f64>> {
        let n = self.len(8, what)?;
        self.f64_vec_exact(n, what)
    }

    pub(crate) fn matrix(&mut self, what: &str) -> Result<Matrix> {
        let rows = self.len(1, &format!("{what} rows"))?;
        let cols = self.len(1, &format!("{what} cols"))?;
        let n = rows
            .checked_mul(cols)
            .ok_or_else(|| StoreError::Format(format!("{what} dims overflow")))?;
        let data = self.f64_vec_exact(n, what)?;
        Matrix::from_vec(rows, cols, data).map_err(|e| StoreError::Format(format!("{what}: {e}")))
    }

    pub(crate) fn tensor(&mut self, what: &str) -> Result<DenseTensor> {
        let shape = self.usize_vec(&format!("{what} shape"))?;
        let numel = checked_num_elements(&shape)
            .ok_or_else(|| StoreError::Format(format!("{what} shape overflows")))?;
        let data = self.f64_vec_exact(numel, what)?;
        DenseTensor::from_vec(&shape, data).map_err(StoreError::Tensor)
    }

    pub(crate) fn finish(self, what: &str) -> Result<()> {
        if !self.buf.is_empty() {
            return Err(StoreError::Format(format!(
                "{} trailing bytes after {what}",
                self.buf.len()
            )));
        }
        Ok(())
    }
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64s(buf: &mut Vec<u8>, v: &[f64]) {
    for &x in v {
        buf.extend_from_slice(&x.to_le_bytes());
    }
}

pub(crate) fn put_usize_vec(buf: &mut Vec<u8>, v: &[usize]) {
    put_u64(buf, v.len() as u64);
    for &x in v {
        put_u64(buf, x as u64);
    }
}

pub(crate) fn put_f64_vec(buf: &mut Vec<u8>, v: &[f64]) {
    put_u64(buf, v.len() as u64);
    put_f64s(buf, v);
}

pub(crate) fn put_matrix(buf: &mut Vec<u8>, m: &Matrix) {
    put_u64(buf, m.rows() as u64);
    put_u64(buf, m.cols() as u64);
    put_f64s(buf, m.as_slice());
}

pub(crate) fn put_tensor(buf: &mut Vec<u8>, t: &DenseTensor) {
    put_usize_vec(buf, t.shape());
    put_f64s(buf, t.as_slice());
}

// ---------------------------------------------------------------------------
// Sliced tensors.
// ---------------------------------------------------------------------------

/// Serializes a [`SlicedTensor`] into a complete container.
pub fn encode_sliced(st: &SlicedTensor) -> Vec<u8> {
    let mut p = Vec::with_capacity(64 + st.memory_bytes() + st.num_slices() * 48);
    put_usize_vec(&mut p, st.shape());
    put_usize_vec(&mut p, st.perm());
    put_u64(&mut p, st.slice_rank() as u64);
    put_u64(&mut p, st.num_slices() as u64);
    for sl in st.slices() {
        put_matrix(&mut p, &sl.u);
        put_f64_vec(&mut p, &sl.s);
        put_matrix(&mut p, &sl.v);
    }
    put_f64s(&mut p, &[st.norm_x_sq()]);
    encode_container(ArtifactKind::Sliced, &p)
}

/// Decodes a [`SlicedTensor`] container (checksum and structural
/// validation included).
pub fn decode_sliced(bytes: &[u8]) -> Result<SlicedTensor> {
    let (kind, payload) = decode_container(bytes)?;
    if kind != ArtifactKind::Sliced {
        return Err(StoreError::Mismatch(format!(
            "expected a sliced tensor, found a {}",
            kind.describe()
        )));
    }
    let mut r = Reader::new(payload);
    let shape = r.usize_vec("shape")?;
    let perm = r.usize_vec("perm")?;
    let slice_rank = r.len(1, "slice_rank")?;
    let num_slices = r.len(1, "num_slices")?;
    let mut slices = Vec::with_capacity(num_slices);
    for l in 0..num_slices {
        let u = r.matrix(&format!("slice {l} U"))?;
        let s = r.f64_vec(&format!("slice {l} s"))?;
        let v = r.matrix(&format!("slice {l} V"))?;
        slices.push(SliceSvd { u, s, v });
    }
    let norm_x_sq = r.f64("norm")?;
    r.finish("sliced tensor")?;
    SlicedTensor::from_parts(shape, perm, slice_rank, slices, norm_x_sq)
        .map_err(|e| StoreError::Format(e.to_string()))
}

// ---------------------------------------------------------------------------
// Tucker decompositions.
// ---------------------------------------------------------------------------

/// Serializes a [`TuckerDecomp`] into a complete container.
pub fn encode_tucker(d: &TuckerDecomp) -> Vec<u8> {
    let mut p = Vec::new();
    put_tensor(&mut p, &d.core);
    put_u64(&mut p, d.factors.len() as u64);
    for f in &d.factors {
        put_matrix(&mut p, f);
    }
    encode_container(ArtifactKind::Tucker, &p)
}

/// Decodes a [`TuckerDecomp`] container, validating shape consistency.
pub fn decode_tucker(bytes: &[u8]) -> Result<TuckerDecomp> {
    let (kind, payload) = decode_container(bytes)?;
    if kind != ArtifactKind::Tucker {
        return Err(StoreError::Mismatch(format!(
            "expected a Tucker decomposition, found a {}",
            kind.describe()
        )));
    }
    let mut r = Reader::new(payload);
    let core = r.tensor("core")?;
    let n = r.len(1, "num factors")?;
    let mut factors = Vec::with_capacity(n);
    for m in 0..n {
        factors.push(r.matrix(&format!("factor {m}"))?);
    }
    r.finish("Tucker decomposition")?;
    let d = TuckerDecomp { core, factors };
    d.validate()
        .map_err(|e| StoreError::Format(e.to_string()))?;
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtucker_core::{DTucker, DTuckerConfig};
    use dtucker_tensor::random::low_rank_plus_noise;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample() -> (SlicedTensor, TuckerDecomp) {
        let mut rng = StdRng::seed_from_u64(1);
        let x = low_rank_plus_noise(&[12, 10, 5], &[2, 2, 2], 0.05, &mut rng).unwrap();
        let out = DTucker::new(DTuckerConfig::uniform(2, 3).with_seed(2))
            .decompose(&x)
            .unwrap();
        (out.sliced, out.decomposition)
    }

    #[test]
    fn sliced_round_trip_is_bit_exact() {
        let (st, _) = sample();
        let bytes = encode_sliced(&st);
        let back = decode_sliced(&bytes).unwrap();
        assert_eq!(back.shape(), st.shape());
        assert_eq!(back.perm(), st.perm());
        assert_eq!(back.slice_rank(), st.slice_rank());
        assert_eq!(back.norm_x_sq().to_bits(), st.norm_x_sq().to_bits());
        for (a, b) in back.slices().iter().zip(st.slices().iter()) {
            assert_eq!(a.u, b.u);
            assert_eq!(a.s, b.s);
            assert_eq!(a.v, b.v);
        }
    }

    #[test]
    fn tucker_round_trip_is_bit_exact() {
        let (_, d) = sample();
        let bytes = encode_tucker(&d);
        let back = decode_tucker(&bytes).unwrap();
        assert_eq!(back.core.shape(), d.core.shape());
        assert_eq!(back.core.as_slice(), d.core.as_slice());
        assert_eq!(back.factors.len(), d.factors.len());
        for (a, b) in back.factors.iter().zip(d.factors.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn kind_mismatch_is_typed() {
        let (st, d) = sample();
        assert!(matches!(
            decode_tucker(&encode_sliced(&st)),
            Err(StoreError::Mismatch(_))
        ));
        assert!(matches!(
            decode_sliced(&encode_tucker(&d)),
            Err(StoreError::Mismatch(_))
        ));
    }

    #[test]
    fn container_rejects_damage() {
        let (st, _) = sample();
        let clean = encode_sliced(&st);

        // Too short.
        assert!(matches!(
            decode_container(&clean[..OVERHEAD - 1]),
            Err(StoreError::Format(_))
        ));
        // Bad magic.
        let mut b = clean.clone();
        b[0] = b'X';
        assert!(matches!(decode_sliced(&b), Err(StoreError::Format(_))));
        // Future version.
        let mut b = clean.clone();
        b[4] = 0xFF;
        assert!(matches!(
            decode_sliced(&b),
            Err(StoreError::UnsupportedVersion { .. })
        ));
        // Header length lies.
        let mut b = clean.clone();
        b[8] ^= 0x01;
        assert!(decode_sliced(&b).is_err());
        // Body bit-flip → checksum catches it.
        let mut b = clean.clone();
        let mid = b.len() / 2;
        b[mid] ^= 0x40;
        assert!(matches!(decode_sliced(&b), Err(StoreError::Corrupt { .. })));
        // CRC bit-flip → checksum catches it.
        let mut b = clean.clone();
        let last = b.len() - 1;
        b[last] ^= 0x40;
        assert!(matches!(decode_sliced(&b), Err(StoreError::Corrupt { .. })));
        // Truncated payload.
        assert!(decode_sliced(&clean[..clean.len() - 9]).is_err());
    }

    #[test]
    fn reader_guards_lengths() {
        // A payload claiming a gigantic vector must fail before allocating.
        let mut p = Vec::new();
        put_u64(&mut p, u64::MAX);
        let bytes = encode_container(ArtifactKind::Sliced, &p);
        assert!(matches!(decode_sliced(&bytes), Err(StoreError::Format(_))));

        // Trailing garbage after a valid structure is rejected.
        let (st, _) = sample();
        let clean = encode_sliced(&st);
        let (_, payload) = decode_container(&clean).unwrap();
        let mut extended = payload.to_vec();
        extended.extend_from_slice(&[0u8; 8]);
        let bytes = encode_container(ArtifactKind::Sliced, &extended);
        assert!(matches!(decode_sliced(&bytes), Err(StoreError::Format(_))));
    }
}
