//! The two slice sources over original-order data — `InMemorySource`
//! (a borrowed tensor) and `DtenSliceSource` (a `.dten` file) — gather
//! every permuted frontal slice in place. Under every mode permutation
//! they must serve exactly the slices of the materialized permuted tensor,
//! the exact norm, and therefore bit-identical compressed tensors at any
//! chunk size.

use dtucker_core::{DTuckerConfig, InMemorySource, SliceSource, SlicedTensor};
use dtucker_store::{encode_sliced, DtenSliceSource};
use dtucker_tensor::random::low_rank_plus_noise;
use dtucker_tensor::unfold::permute;
use dtucker_tensor::{io, DenseTensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Every permutation of `0..n`.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for shorter in permutations(n - 1) {
        for at in 0..n {
            let mut p = shorter.clone();
            p.insert(at, n - 1);
            out.push(p);
        }
    }
    out
}

fn bits(m: &dtucker_linalg::Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

fn check_sources(x: &DenseTensor, tag: &str) {
    let dir = std::env::temp_dir().join(format!(
        "dtucker_slice_sources_{tag}_{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("x.dten");
    io::save(x, &path).unwrap();
    let norm = x.fro_norm_sq().to_bits();

    let perms = permutations(x.order());
    assert_eq!(perms.len(), (1..=x.order()).product::<usize>());
    for perm in &perms {
        let internal = permute(x, perm).unwrap();
        let mut mem = InMemorySource::with_perm(x, perm).unwrap();
        let mut disk = DtenSliceSource::open_with_perm(&path, perm).unwrap();
        for src in [&mut mem as &mut dyn SliceSource, &mut disk] {
            assert_eq!(src.shape(), internal.shape(), "{tag} {perm:?}");
            assert_eq!(src.num_slices(), internal.num_frontal_slices());
            for l in 0..src.num_slices() {
                assert_eq!(
                    bits(&src.load_slice(l).unwrap()),
                    bits(&internal.frontal_slice(l).unwrap()),
                    "{tag} {perm:?} slice {l}"
                );
            }
            assert!(src.load_slice(src.num_slices()).is_err());
            assert_eq!(src.fro_norm_sq().unwrap().to_bits(), norm, "{tag} {perm:?}");
        }

        for chunk in [1, 3, 0] {
            let cfg = DTuckerConfig::uniform(2, x.order())
                .with_seed(9)
                .with_chunk_slices(chunk);
            let from_mem = SlicedTensor::compress_source(
                &mut InMemorySource::with_perm(x, perm).unwrap(),
                &cfg,
            )
            .unwrap();
            let from_disk = SlicedTensor::compress_source(
                &mut DtenSliceSource::open_with_perm(&path, perm).unwrap(),
                &cfg,
            )
            .unwrap();
            assert_eq!(
                encode_sliced(&from_mem),
                encode_sliced(&from_disk),
                "{tag} {perm:?} chunk {chunk}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn order3_sources_serve_the_permuted_slices_under_every_permutation() {
    let mut rng = StdRng::seed_from_u64(1);
    let x = low_rank_plus_noise(&[7, 5, 4], &[2, 2, 2], 0.2, &mut rng).unwrap();
    check_sources(&x, "order3");
}

#[test]
fn order4_sources_serve_the_permuted_slices_under_every_permutation() {
    let mut rng = StdRng::seed_from_u64(2);
    let x = low_rank_plus_noise(&[5, 4, 3, 2], &[2, 2, 2, 2], 0.2, &mut rng).unwrap();
    check_sources(&x, "order4");
}

#[test]
fn sources_reject_non_permutations() {
    let mut rng = StdRng::seed_from_u64(3);
    let x = low_rank_plus_noise(&[4, 3, 2], &[2, 2, 2], 0.0, &mut rng).unwrap();
    for bad in [&[0, 1][..], &[0, 0, 1], &[0, 1, 3], &[0, 1, 2, 3]] {
        assert!(InMemorySource::with_perm(&x, bad).is_err(), "{bad:?}");
    }
    let vector = DenseTensor::from_vec(&[3], vec![1.0, 2.0, 3.0]).unwrap();
    assert!(InMemorySource::new(&vector).is_err());
}
