//! Experiment E10 — out-of-core compression through `DtenSliceSource`.
//!
//! Writes the dataset to a `.dten` file, then re-compresses it straight
//! from disk at several chunk sizes, comparing against the in-memory
//! baseline. The compressed result must be **bit-identical** at every
//! chunk size (per-slice seeds make the work partition-invariant), while
//! peak working memory scales with `chunk × I₁ × I₂` instead of the full
//! tensor. Raw numbers go to `BENCH_outofcore.json` at the repo root.
//!
//! Usage: `cargo run -p dtucker-bench --release --bin exp_outofcore --
//!         [--scale ci|bench|paper] [--rank J] [--seed S] [--dataset NAME]
//!         [--json PATH]`

use dtucker_bench::{bench_json, secs, time, Args, BenchHeader, Field, Table};
use dtucker_core::{DTuckerConfig, SliceSource, SlicedTensor};
use dtucker_data::{generate, parse_scale, Dataset, Scale};
use dtucker_store::{encode_sliced, DtenSliceSource};
use dtucker_tensor::io;
use std::time::Duration;

struct Measurement {
    chunk: usize,
    compress: Duration,
    peak_bytes: usize,
    identical: bool,
}

fn main() {
    let args = Args::capture();
    let scale = args
        .get("scale")
        .map(|s| parse_scale(s).expect("bad --scale"))
        .unwrap_or(Scale::Ci);
    let rank: usize = args.get_or("rank", 5);
    let seed: u64 = args.get_or("seed", 0);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json_path = args
        .get("json")
        .unwrap_or("BENCH_outofcore.json")
        .to_string();
    let ds = args
        .get("dataset")
        .map(|n| Dataset::parse(n).expect("unknown --dataset"))
        .unwrap_or(Dataset::Boats);

    let x = generate(ds, scale, seed).expect("dataset generation failed");
    let rank = rank.min(*x.shape().iter().min().expect("non-empty shape"));
    let dense_bytes = x.numel() * 8;

    let dir = std::env::temp_dir().join(format!("dtucker_outofcore_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let dten = dir.join("input.dten");
    io::save(&x, &dten).expect("writing .dten");

    println!(
        "## E10: out-of-core compression on '{}' ({:?}, {:.1} MB dense)",
        ds.name(),
        x.shape(),
        dense_bytes as f64 / 1e6
    );
    println!(
        "(rank {rank}, seed {seed}; slices stream from {})\n",
        dten.display()
    );

    // In-memory baseline: the reference bit pattern every chunked run
    // must reproduce.
    let cfg = DTuckerConfig::uniform(rank, x.order()).with_seed(seed);
    let (baseline, base_time) = time(|| SlicedTensor::compress(&x, &cfg).expect("compression"));
    let baseline_bytes = encode_sliced(&baseline);
    let num_slices = baseline.num_slices();
    let compressed = baseline.memory_bytes();

    let mut table = Table::new(&["chunk", "compress_s", "peak_mb", "vs_dense", "identical"])
        .with_csv("e10_outofcore");
    table.row(&[
        "in-mem".into(),
        secs(base_time),
        format!("{:.2}", (dense_bytes + compressed) as f64 / 1e6),
        "1.0x".into(),
        "true".into(),
    ]);

    let mut runs: Vec<Measurement> = Vec::new();
    let mut chunk = 1usize;
    loop {
        let cfg = DTuckerConfig::uniform(rank, x.order())
            .with_seed(seed)
            .with_chunk_slices(chunk);
        let mut src = DtenSliceSource::open(&dten).expect("opening .dten source");
        let slice_bytes = src.slice_bytes();
        let (st, compress) =
            time(|| SlicedTensor::compress_source(&mut src, &cfg).expect("compression"));
        let identical = encode_sliced(&st) == baseline_bytes;
        // Peak working set: the chunk of dense slices in flight plus the
        // growing compressed output (the dense tensor is never resident).
        let peak_bytes = chunk.min(num_slices) * slice_bytes + st.memory_bytes();
        table.row(&[
            chunk.to_string(),
            secs(compress),
            format!("{:.2}", peak_bytes as f64 / 1e6),
            format!("{:.1}x", dense_bytes as f64 / peak_bytes.max(1) as f64),
            identical.to_string(),
        ]);
        runs.push(Measurement {
            chunk,
            compress,
            peak_bytes,
            identical,
        });
        if chunk >= num_slices {
            break;
        }
        chunk = (chunk * 4).min(num_slices);
    }
    table.print();

    let all_identical = runs.iter().all(|m| m.identical);
    let header = BenchHeader {
        experiment: "e10_outofcore",
        dataset: ds.name(),
        shape: x.shape(),
        rank: ("rank", Field::U64(rank as u64)),
        seed,
        hardware_threads: cores,
    };
    let extra = [
        ("dense_bytes", Field::U64(dense_bytes as u64)),
        ("compressed_bytes", Field::U64(compressed as u64)),
    ];
    let rows: Vec<_> = runs
        .iter()
        .map(|m| {
            vec![
                ("chunk_slices", Field::U64(m.chunk as u64)),
                ("compress_s", Field::F64(m.compress.as_secs_f64())),
                ("peak_bytes", Field::U64(m.peak_bytes as u64)),
                ("identical_to_inmemory", Field::Bool(m.identical)),
            ]
        })
        .collect();
    dtucker_core::fsutil::atomic_write_str(&json_path, &bench_json(&header, &extra, &rows))
        .expect("writing BENCH_outofcore.json");
    println!("\nWrote {json_path}");
    println!("Expected shape: bit-identical output at every chunk size, with peak");
    println!("memory shrinking toward 'compressed + one chunk of slices'.");
    std::fs::remove_dir_all(&dir).ok();
    assert!(all_identical, "chunked compression diverged from in-memory");
}
