//! Experiment E9 — thread scaling of the **whole** D-Tucker pipeline.
//!
//! All three phases fan their per-slice work out over the shared worker
//! pool (`dtucker_linalg::pool`), so this sweep runs `DTucker::decompose`
//! at each thread count, reads approximation, initialization, and
//! iteration time from its phase profile, checks that the final
//! decomposition is bit-identical to the serial run, and writes the raw
//! numbers to `BENCH_threads.json` at the repo root.
//!
//! Usage: `cargo run -p dtucker-bench --release --bin exp_threads --
//!         [--scale ci|bench|paper] [--rank J] [--seed S] [--dataset NAME]
//!         [--max-threads T] [--json PATH]`

use dtucker_bench::{bench_json, secs, Args, BenchHeader, Field, Table};
use dtucker_core::{DTucker, DTuckerConfig, SlicedTensor};
use dtucker_data::{generate, parse_scale, Dataset, Scale};
use std::time::Duration;

struct Measurement {
    threads: usize,
    approx: Duration,
    init: Duration,
    iter: Duration,
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
    let max_threads: usize = args.get_or("max-threads", cores.max(4));
    let json_path = args.get("json").unwrap_or("BENCH_threads.json").to_string();
    let ds = args
        .get("dataset")
        .map(|n| Dataset::parse(n).expect("unknown --dataset"))
        .unwrap_or(Dataset::Boats);

    let x = generate(ds, scale, seed).expect("dataset generation failed");
    let rank = rank.min(*x.shape().iter().min().expect("non-empty shape"));
    println!(
        "## E9: full-pipeline thread scaling on '{}' ({:?}, {} hardware threads)",
        ds.name(),
        x.shape(),
        cores
    );
    println!("(rank {rank}, seed {seed}; per-slice seeds make results thread-count independent)\n");

    let mut table = Table::new(&[
        "threads",
        "approx_s",
        "init_s",
        "iter_s",
        "total_s",
        "speedup",
        "identical",
    ])
    .with_csv("e9_threads");

    // Untimed warm-up: fault in the dataset pages and JIT the CPU up to
    // speed so the serial baseline isn't inflated by first-touch costs.
    {
        let cfg = DTuckerConfig::uniform(rank, x.order()).with_seed(seed);
        let _ = SlicedTensor::compress(&x, &cfg).expect("warm-up compression");
    }

    let mut runs: Vec<Measurement> = Vec::new();
    let mut serial_bits: Option<Vec<u64>> = None;
    let mut t = 1usize;
    while t <= max_threads.max(1) {
        let cfg = DTuckerConfig::uniform(rank, x.order())
            .with_seed(seed)
            .with_threads(t);
        let out = DTucker::new(cfg).decompose(&x).expect("decomposition");
        let d = &out.decomposition;
        let mut bits: Vec<u64> = d.core.as_slice().iter().map(|v| v.to_bits()).collect();
        for f in &d.factors {
            bits.extend(f.as_slice().iter().map(|v| v.to_bits()));
        }
        let identical = match &serial_bits {
            Some(b0) => *b0 == bits,
            None => {
                serial_bits = Some(bits);
                true
            }
        };
        let phase = |name| out.timings.get(name).unwrap_or_default();
        runs.push(Measurement {
            threads: t,
            approx: phase("core.approx"),
            init: phase("core.init"),
            iter: phase("core.iterate"),
            identical,
        });
        t *= 2;
    }

    let total0 = total(&runs[0]);
    for m in &runs {
        table.row(&[
            m.threads.to_string(),
            secs(m.approx),
            secs(m.init),
            secs(m.iter),
            secs(total(m)),
            format!(
                "{:.2}x",
                total0.as_secs_f64() / total(m).as_secs_f64().max(1e-9)
            ),
            m.identical.to_string(),
        ]);
    }
    table.print();

    let header = BenchHeader {
        experiment: "e9_threads",
        dataset: ds.name(),
        shape: x.shape(),
        rank: ("rank", Field::U64(rank as u64)),
        seed,
        hardware_threads: cores,
    };
    let rows: Vec<_> = runs
        .iter()
        .map(|m| {
            let tot = total(m).as_secs_f64();
            vec![
                ("threads", Field::U64(m.threads as u64)),
                ("approx_s", Field::F64(m.approx.as_secs_f64())),
                ("init_s", Field::F64(m.init.as_secs_f64())),
                ("iter_s", Field::F64(m.iter.as_secs_f64())),
                ("total_s", Field::F64(tot)),
                ("speedup", Field::F64(total0.as_secs_f64() / tot.max(1e-9))),
                ("identical_to_serial", Field::Bool(m.identical)),
            ]
        })
        .collect();
    dtucker_core::fsutil::atomic_write_str(&json_path, &bench_json(&header, &[], &rows))
        .expect("writing BENCH_threads.json");
    println!("\nWrote {json_path}");
    println!("Expected shape: near-linear speedup until the core count is exhausted,");
    println!("with a bit-identical decomposition at every thread count.");
}

fn total(m: &Measurement) -> Duration {
    m.approx + m.init + m.iter
}
