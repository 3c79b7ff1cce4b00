//! Binary tensor serialization.
//!
//! A minimal self-describing little-endian format (`.dten`):
//!
//! ```text
//! magic   4 bytes  "DTEN"
//! version u32      1
//! order   u32
//! dims    order × u64
//! data    numel × f64   (Fortran element order)
//! ```

use crate::dense::{checked_num_elements, num_elements, DenseTensor};
use crate::error::{Result, TensorError};
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const MAGIC: &[u8; 4] = b"DTEN";
const VERSION: u32 = 1;
/// Values converted per staging buffer by [`read_f64s`] and the encoder.
const STAGE: usize = 1024;

/// Byte length of a `.dten` header for an order-`n` tensor (magic +
/// version + order + dims). The f64 payload starts at this offset.
pub fn header_len(order: usize) -> u64 {
    12 + order as u64 * 8
}

/// Writes the `.dten` encoding of `t` (header, then the payload in
/// Fortran order) to `w`. [`to_bytes`] and [`save`] both go through it.
fn encode(t: &DenseTensor, w: &mut impl Write) -> std::io::Result<()> {
    let mut head = Vec::with_capacity(header_len(t.order()) as usize);
    head.extend_from_slice(MAGIC);
    head.extend_from_slice(&VERSION.to_le_bytes());
    head.extend_from_slice(&(t.order() as u32).to_le_bytes());
    for &d in t.shape() {
        head.extend_from_slice(&(d as u64).to_le_bytes());
    }
    w.write_all(&head)?;
    let mut stage = [0u8; STAGE * 8];
    for chunk in t.as_slice().chunks(STAGE) {
        for (dst, v) in stage.chunks_exact_mut(8).zip(chunk) {
            dst.copy_from_slice(&v.to_le_bytes());
        }
        w.write_all(&stage[..chunk.len() * 8])?;
    }
    Ok(())
}

/// Serializes a tensor into a byte vector.
pub fn to_bytes(t: &DenseTensor) -> Vec<u8> {
    let mut buf = Vec::with_capacity((header_len(t.order()) as usize) + t.numel() * 8);
    // Writing into a `Vec<u8>` cannot fail.
    let _ = encode(t, &mut buf);
    buf
}

/// Byte length of a whole `.dten` file holding a tensor of `shape`, or
/// `None` when it does not fit in a `u64` (a corrupt or hostile header).
pub fn file_len(shape: &[usize]) -> Option<u64> {
    let numel = u64::try_from(checked_num_elements(shape)?).ok()?;
    numel.checked_mul(8)?.checked_add(header_len(shape.len()))
}

/// Deserializes a tensor from bytes produced by [`to_bytes`].
pub fn from_bytes(mut buf: &[u8]) -> Result<DenseTensor> {
    let shape = read_header(&mut buf)?;
    let available = buf.len() as u64;
    read_payload(&mut buf, shape, available)
}

/// Reads the payload of a tensor of `shape` that has `available` bytes
/// left after its header; a truncated or trailing payload is a format
/// error, checked before anything is allocated.
fn read_payload(r: &mut impl Read, shape: Vec<usize>, available: u64) -> Result<DenseTensor> {
    let n = num_elements(&shape);
    let expected = n as u64 * 8;
    if available != expected {
        return Err(TensorError::Format(format!(
            "payload has {available} bytes, expected {expected}"
        )));
    }
    let mut data = vec![0.0; n];
    read_f64s(r, &mut data)?;
    DenseTensor::from_vec(&shape, data)
}

/// Fills `out` with little-endian f64 values read from `r`, converting
/// through a fixed staging buffer so no byte copy of the data is held.
pub fn read_f64s(r: &mut impl Read, out: &mut [f64]) -> std::io::Result<()> {
    let mut stage = [0u8; STAGE * 8];
    for chunk in out.chunks_mut(STAGE) {
        let bytes = &mut stage[..chunk.len() * 8];
        r.read_exact(bytes)?;
        for (dst, src) in chunk.iter_mut().zip(bytes.chunks_exact(8)) {
            let mut b = [0u8; 8];
            b.copy_from_slice(src);
            *dst = f64::from_le_bytes(b);
        }
    }
    Ok(())
}

/// Reads and validates a `.dten` header from a reader positioned at the
/// start of the file, returning the shape. After this call the reader is
/// positioned at the f64 payload (offset [`header_len`]). Out-of-core
/// readers use this to learn the shape without loading the data. A shape
/// whose [`file_len`] overflows is a format error, so callers may size the
/// payload with unchecked arithmetic.
pub fn read_header(r: &mut impl Read) -> Result<Vec<usize>> {
    let mut head = [0u8; 12];
    read_exact_or(r, &mut head, "header")?;
    let word = |i: usize| u32::from_le_bytes([head[i], head[i + 1], head[i + 2], head[i + 3]]);
    if &head[..4] != MAGIC {
        return Err(TensorError::Format(format!("bad magic {:?}", &head[..4])));
    }
    let version = word(4);
    if version != VERSION {
        return Err(TensorError::Format(format!(
            "unsupported version {version}"
        )));
    }
    let order = word(8) as usize;
    if order == 0 || order > 16 {
        return Err(TensorError::Format(format!("implausible order {order}")));
    }
    let mut dims = [0u8; 16 * 8];
    read_exact_or(r, &mut dims[..order * 8], "dims")?;
    let mut shape = Vec::with_capacity(order);
    for raw in dims[..order * 8].chunks_exact(8) {
        let mut d = [0u8; 8];
        d.copy_from_slice(raw);
        let d = usize::try_from(u64::from_le_bytes(d))
            .map_err(|_| TensorError::Format("dimension overflows usize".into()))?;
        if d == 0 {
            return Err(TensorError::Format("zero dimension".into()));
        }
        shape.push(d);
    }
    if file_len(&shape).is_none() {
        return Err(TensorError::Format(format!(
            "shape {shape:?} overflows the element count"
        )));
    }
    Ok(shape)
}

fn read_exact_or(r: &mut impl Read, buf: &mut [u8], what: &str) -> Result<()> {
    r.read_exact(buf).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => TensorError::Format(format!("truncated {what}")),
        _ => TensorError::Io(e.to_string()),
    })
}

/// Writes `bytes` to `path` **atomically** and durably: the data goes to a
/// freshly named temporary file in the same directory, is flushed and
/// fsynced, then renamed over the destination, and the directory (`.` for
/// a bare file name) is fsynced so the rename itself survives a crash. A
/// crash mid-write leaves either the old file or nothing — never a torn
/// artifact; once this returns `Ok`, the new file is on disk. Any error,
/// including from the directory fsync, is returned. All dtucker file writers
/// (`.dten` tensors and the `dtucker-store` artifact formats) go through
/// this helper or [`save`], which shares its body.
pub fn atomic_write(path: impl AsRef<Path>, bytes: &[u8]) -> std::io::Result<()> {
    atomic_write_with(path.as_ref(), |w| w.write_all(bytes))
}

/// The one atomic-write body: `write` streams into the buffered temp file.
fn atomic_write_with(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
) -> std::io::Result<()> {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir: PathBuf = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let name = path
        .file_name()
        .ok_or_else(|| std::io::Error::other(format!("no file name in {}", path.display())))?;
    let tmp = dir.join(format!(
        ".{}.tmp.{}.{}",
        name.to_string_lossy(),
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed),
    ));
    let result = (|| {
        // This IS the atomic-write helper every other writer must route
        // through; the raw create targets the private temp file.
        // dtucker-lint: allow(atomic-write-required)
        let mut w = BufWriter::with_capacity(1 << 16, File::create(&tmp)?);
        write(&mut w)?;
        w.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result?;
    File::open(&dir)?.sync_all()
}

/// Writes a tensor to a file, streaming it into the atomic temp file (see
/// [`atomic_write`]) without building its bytes in memory first.
pub fn save(t: &DenseTensor, path: impl AsRef<Path>) -> Result<()> {
    Ok(atomic_write_with(path.as_ref(), |w| encode(t, w))?)
}

/// Reads a tensor from a file straight into its value buffer.
pub fn load(path: impl AsRef<Path>) -> Result<DenseTensor> {
    let mut f = File::open(path)?;
    let shape = read_header(&mut f)?;
    let available = f.metadata()?.len().saturating_sub(header_len(shape.len()));
    read_payload(&mut f, shape, available)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> DenseTensor {
        DenseTensor::from_fn(&[3, 4, 2], |idx| {
            idx[0] as f64 + idx[1] as f64 * 0.5 - idx[2] as f64 * 2.25
        })
        .unwrap()
    }

    #[test]
    fn bytes_round_trip() {
        let t = example();
        let bytes = to_bytes(&t);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn file_round_trip() {
        let t = example();
        let dir = std::env::temp_dir().join("dtucker_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tensor.dten");
        save(&t, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back, t);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = to_bytes(&example());
        bytes[0] = b'X';
        assert!(matches!(from_bytes(&bytes), Err(TensorError::Format(_))));
    }

    #[test]
    fn rejects_bad_version() {
        let mut bytes = to_bytes(&example());
        bytes[4] = 99;
        assert!(from_bytes(&bytes).is_err());
    }

    #[test]
    fn rejects_truncation() {
        let bytes = to_bytes(&example());
        assert!(from_bytes(&bytes[..10]).is_err());
        assert!(from_bytes(&bytes[..bytes.len() - 8]).is_err());
        assert!(from_bytes(&[]).is_err());
    }

    #[test]
    fn rejects_zero_dim_and_bad_order() {
        let mut buf = b"DTEN".to_vec();
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&3u64.to_le_bytes());
        assert!(from_bytes(&buf).is_err());

        let mut buf = b"DTEN".to_vec();
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&99u32.to_le_bytes()); // implausible order
        assert!(from_bytes(&buf).is_err());
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = load("/nonexistent/place/t.dten").unwrap_err();
        assert!(matches!(err, TensorError::Io(_)));
    }

    #[test]
    fn read_header_streams_shape() {
        let t = example();
        let bytes = to_bytes(&t);
        let mut r = &bytes[..];
        let shape = read_header(&mut r).unwrap();
        assert_eq!(shape, vec![3, 4, 2]);
        // Reader is now positioned at the payload.
        assert_eq!(r.len() as u64, bytes.len() as u64 - header_len(3));
        let mut first = [0u8; 8];
        r.read_exact(&mut first).unwrap();
        assert_eq!(f64::from_le_bytes(first), t.as_slice()[0]);
        // Truncated header is a Format error, not a panic.
        let mut short = &bytes[..6];
        assert!(matches!(
            read_header(&mut short),
            Err(TensorError::Format(_))
        ));
    }

    #[test]
    fn atomic_write_replaces_and_cleans_up() {
        let dir = std::env::temp_dir().join("dtucker_atomic_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.bin");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        // No temp files are left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
        // A destination without a file name errors instead of panicking.
        assert!(atomic_write("/", b"x").is_err());
    }

    #[test]
    fn atomic_write_to_bare_and_nested_paths() {
        // A bare relative name resolves against the working directory,
        // whose fsync goes through `.`.
        let bare = format!("dtucker_atomic_bare_{}.bin", std::process::id());
        atomic_write(&bare, b"bare").unwrap();
        assert_eq!(std::fs::read(&bare).unwrap(), b"bare");
        std::fs::remove_file(&bare).unwrap();

        let dir = std::env::temp_dir().join("dtucker_atomic_nested/a/b");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.bin");
        atomic_write(&path, b"nested").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"nested");
        save(&example(), &path).unwrap();
        assert_eq!(load(&path).unwrap(), example());
        std::fs::remove_dir_all(std::env::temp_dir().join("dtucker_atomic_nested")).ok();
    }
}
