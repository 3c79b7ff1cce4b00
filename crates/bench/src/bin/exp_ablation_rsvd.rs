//! Experiment E8 — approximation-phase ablation: exact vs randomized slice
//! SVDs, and the effect of oversampling / power iterations on the
//! randomized route.
//!
//! Usage: `cargo run -p dtucker-bench --release --bin exp_ablation_rsvd --
//!         [--scale ci|bench|paper] [--rank J] [--seed S] [--dataset NAME]`

use dtucker_bench::{secs, time, Args, Table};
use dtucker_core::{DTucker, DTuckerConfig, SliceSvdKind};
use dtucker_data::{generate, parse_scale, Dataset, Scale};

fn main() {
    let args = Args::capture();
    let scale = args
        .get("scale")
        .map(|s| parse_scale(s).expect("bad --scale"))
        .unwrap_or(Scale::Ci);
    let rank: usize = args.get_or("rank", 5);
    let seed: u64 = args.get_or("seed", 0);
    let ds = args
        .get("dataset")
        .map(|n| Dataset::parse(n).expect("unknown --dataset"))
        .unwrap_or(Dataset::Hsi);

    let x = generate(ds, scale, seed).expect("dataset generation failed");
    let rank = rank.min(*x.shape().iter().min().expect("non-empty shape"));
    println!(
        "## E8: approximation-phase ablation on '{}' (shape {:?})",
        ds.name(),
        x.shape()
    );
    println!("(rank {rank}, seed {seed})\n");

    let mut table = Table::new(&[
        "variant",
        "oversample",
        "power_iters",
        "approx_s",
        "total_s",
        "rel_error",
    ])
    .with_csv("e8_ablation_rsvd");

    let mut run = |label: &str, kind: SliceSvdKind, oversample: usize, power: usize| {
        let mut cfg = DTuckerConfig::uniform(rank, x.order()).with_seed(seed);
        cfg.slice_svd = kind;
        cfg.oversample = oversample;
        cfg.power_iters = power;
        let (out, total) = time(|| DTucker::new(cfg).decompose(&x));
        let out = out.expect("run failed");
        let err = out.decomposition.relative_error_sq(&x).expect("error eval");
        table.row(&[
            label.into(),
            oversample.to_string(),
            power.to_string(),
            secs(out.timings.get("core.approx").unwrap_or_default()),
            secs(total),
            format!("{err:.5}"),
        ]);
    };

    run("exact-svd", SliceSvdKind::Exact, 0, 0);
    for &(os, p) in &[(0usize, 0usize), (5, 0), (5, 1), (5, 2), (10, 1), (10, 2)] {
        run("randomized", SliceSvdKind::Randomized, os, p);
    }
    table.print();
    println!("\nExpected shape: randomized slice SVDs approach exact-SVD accuracy once");
    println!("oversampling ≥ 5 and one power iteration are used, at a fraction of the");
    println!("approximation-phase cost on large slices.");
}
