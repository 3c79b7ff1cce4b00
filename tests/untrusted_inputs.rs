//! Decoders of untrusted bytes size their work from dimensions they read:
//! a `.dten` header's dims, a `.dts` sliced shape, a Tucker core shape, a
//! checkpoint's factor sizes. Whatever those numbers are, decoding must end
//! in a value or a typed error — never an overflow panic (debug builds) or
//! a wrapped product that lets an impossible shape through (release).

use dtucker_core::iterate::SweepSnapshot;
use dtucker_core::{DTucker, DTuckerConfig};
use dtucker_store::format::{decode_container, encode_container};
use dtucker_store::{
    decode_sliced, decode_tucker, encode_sliced, encode_tucker, ArtifactKind, DtenSliceSource,
    HooiCheckpoint, StoreError,
};
use dtucker_tensor::io;
use dtucker_tensor::random::low_rank_plus_noise;
use dtucker_tensor::TensorError;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

/// A `.dten` file: header for `dims`, then `values`.
fn dten(dims: &[u64], values: &[f64]) -> Vec<u8> {
    let mut b = b"DTEN".to_vec();
    b.extend_from_slice(&1u32.to_le_bytes());
    b.extend_from_slice(&(dims.len() as u32).to_le_bytes());
    for d in dims {
        b.extend_from_slice(&d.to_le_bytes());
    }
    for v in values {
        b.extend_from_slice(&v.to_le_bytes());
    }
    b
}

/// `.dten` inputs whose element count overflows: `2³²·2³²` is 28 bytes
/// claiming an empty payload once wrapped, and `(2⁶³+1)·2·1` wraps to 2,
/// matching the two values that follow.
fn crafted_dten() -> Vec<Vec<u8>> {
    vec![
        dten(&[1 << 32, 1 << 32], &[]),
        dten(&[(1 << 63) + 1, 2, 1], &[1.0, 2.0]),
    ]
}

#[test]
fn overflowing_dten_headers_are_format_errors() {
    let dir = std::env::temp_dir().join(format!("dtucker_untrusted_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (i, bytes) in crafted_dten().iter().enumerate() {
        assert!(
            matches!(io::from_bytes(bytes), Err(TensorError::Format(_))),
            "case {i}: from_bytes must reject the header"
        );
        let path = dir.join(format!("crafted{i}.dten"));
        std::fs::write(&path, bytes).unwrap();
        assert!(
            matches!(
                DtenSliceSource::open(&path),
                Err(StoreError::Tensor(TensorError::Format(_)))
            ),
            "case {i}: DtenSliceSource::open must reject the header"
        );
        assert!(matches!(io::load(&path), Err(TensorError::Format(_))));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `save` writes exactly the documented `.dten` layout: `DTEN`, u32
/// version 1, u32 order, u64 dims, then the little-endian f64 payload in
/// Fortran order. `load` reads it back and rejects a payload one value
/// short or one byte long with a format error.
#[test]
fn dten_files_have_the_documented_layout() {
    let dir = std::env::temp_dir().join(format!("dtucker_dten_layout_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("x.dten");
    // Element (i, j, k) of a 3×2×2 tensor is 100i + 10j + k + 0.5; Fortran
    // order runs i fastest, then j, then k.
    let x = dtucker_tensor::DenseTensor::from_fn(&[3, 2, 2], |ix| {
        (100 * ix[0] + 10 * ix[1] + ix[2]) as f64 + 0.5
    })
    .unwrap();
    io::save(&x, &path).unwrap();
    let mut want = b"DTEN".to_vec();
    want.extend_from_slice(&[1, 0, 0, 0, 3, 0, 0, 0]);
    for d in [3u8, 2, 2] {
        want.extend_from_slice(&[d, 0, 0, 0, 0, 0, 0, 0]);
    }
    for k in 0..2 {
        for j in 0..2 {
            for i in 0..3 {
                let v = (100 * i + 10 * j + k) as f64 + 0.5;
                want.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
    }
    let written = std::fs::read(&path).unwrap();
    assert_eq!(written, want);
    assert_eq!(io::load(&path).unwrap(), x);

    let short = &written[..written.len() - 8];
    let mut long = written.clone();
    long.push(0);
    for bytes in [short, &long[..]] {
        std::fs::write(&path, bytes).unwrap();
        assert!(matches!(io::load(&path), Err(TensorError::Format(_))));
        assert!(matches!(io::from_bytes(bytes), Err(TensorError::Format(_))));
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The CLI prints its usage text after an argument error only: bad data
/// (here a `.dten` whose element count overflows) gets the error line
/// alone. Both exit with code 2.
#[test]
fn cli_prints_usage_only_for_argument_errors() {
    let cli = env!("CARGO_BIN_EXE_dtucker-cli");
    let dir = std::env::temp_dir().join(format!("dtucker_cli_usage_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("overflow.dten");
    std::fs::write(&path, &crafted_dten()[0]).unwrap();
    assert_eq!(std::fs::metadata(&path).unwrap().len(), 28);
    let run = |args: &[&std::ffi::OsStr]| {
        let out = std::process::Command::new(cli).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        String::from_utf8(out.stderr).unwrap()
    };

    let err = run(&["info".as_ref(), "--input".as_ref(), path.as_os_str()]);
    assert!(err.contains("overflows the element count"), "{err}");
    assert!(!err.contains("usage:"), "{err}");

    let err = run(&["frobnicate".as_ref()]);
    assert!(err.contains("unknown subcommand"), "{err}");
    assert!(err.contains("usage:"), "{err}");
    let err = run(&["info".as_ref()]);
    assert!(
        err.contains("--input is required") && err.contains("usage:"),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn overflowing_sliced_shape_is_a_format_error() {
    // Shape [2, 2, 2⁶³, 2]: the trailing modes' slice count wraps to 0,
    // which matches the zero slices stored.
    let mut p = Vec::new();
    let mut put = |v: u64| p.extend_from_slice(&v.to_le_bytes());
    for v in [4, 2, 2, 1 << 63, 2] {
        put(v); // shape
    }
    for v in [4, 0, 1, 2, 3] {
        put(v); // perm
    }
    put(1); // slice rank
    put(0); // slice count
    p.extend_from_slice(&0.0f64.to_le_bytes()); // ‖X‖²
    let bytes = encode_container(ArtifactKind::Sliced, &p);
    assert!(matches!(decode_sliced(&bytes), Err(StoreError::Format(_))));
}

/// Order-4 sliced, Tucker and checkpoint artifacts of one small run.
fn artifacts() -> &'static [(ArtifactKind, Vec<u8>); 3] {
    static ARTIFACTS: OnceLock<[(ArtifactKind, Vec<u8>); 3]> = OnceLock::new();
    ARTIFACTS.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(3);
        let x = low_rank_plus_noise(&[6, 5, 3, 2], &[2, 2, 2, 2], 0.05, &mut rng).unwrap();
        let cfg = DTuckerConfig::uniform(2, 4).with_seed(4);
        let out = DTucker::new(cfg.clone()).decompose(&x).unwrap();
        let snap = SweepSnapshot {
            sweep: out.trace.sweep_fits.len(),
            factors: &out.decomposition.factors,
            trace: &out.trace,
            done: true,
        };
        let checkpoint = HooiCheckpoint::from_snapshot(&snap, &out.sliced, &cfg).encode();
        [
            (ArtifactKind::Sliced, encode_sliced(&out.sliced)),
            (ArtifactKind::Tucker, encode_tucker(&out.decomposition)),
            (ArtifactKind::Checkpoint, checkpoint),
        ]
    })
}

/// Words written over payload fields: the edges of `u64` arithmetic.
/// Indices past the table stand for small integers.
const EDGE_WORDS: [u64; 8] = [0, 1, 2, 1 << 32, 1 << 62, 1 << 63, (1 << 63) + 1, u64::MAX];

/// How many leading payload words hold the artifacts' headers (shapes,
/// permutations, ranks, counts); half of all edits land there.
const HEAD_WORDS: usize = 24;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    /// The container checksum rejects random bytes before any structural
    /// check runs, so this edits payload words and re-seals the container:
    /// every edit reaches the payload decoder.
    #[test]
    fn resealed_word_edits_never_panic(
        kind in 0usize..3,
        edits in proptest::collection::vec(
            (any::<bool>(), any::<usize>(), 0usize..EDGE_WORDS.len() + 16),
            1..=3,
        ),
    ) {
        let (expected_kind, bytes) = &artifacts()[kind];
        let (found_kind, payload) = decode_container(bytes).unwrap();
        prop_assert_eq!(found_kind, *expected_kind);
        let mut payload = payload.to_vec();
        let words = payload.len() / 8;
        for &(head, at, value) in &edits {
            let w = if head { at % HEAD_WORDS.min(words) } else { at % words };
            let word = EDGE_WORDS
                .get(value)
                .copied()
                .unwrap_or_else(|| (value - EDGE_WORDS.len()) as u64);
            payload[w * 8..w * 8 + 8].copy_from_slice(&word.to_le_bytes());
        }
        let sealed = encode_container(found_kind, &payload);
        let _ = decode_sliced(&sealed);
        let _ = decode_tucker(&sealed);
        let _ = HooiCheckpoint::decode(&sealed);
    }
}
