//! Experiment E5 — per-phase breakdown of D-Tucker: approximation vs
//! initialization vs iteration wall-clock time, per-sweep time, and the
//! sweep counts. Demonstrates the paper's claim that the one-off
//! approximation phase dominates while iterations are cheap.
//!
//! Usage: `cargo run -p dtucker-bench --release --bin exp_phases --
//!         [--scale ci|bench|paper] [--rank J] [--seed S]`

use dtucker_bench::{secs, Args, Table};
use dtucker_core::{DTucker, DTuckerConfig};
use dtucker_data::{generate, parse_scale, Dataset, Scale};

fn main() {
    let args = Args::capture();
    let scale = args
        .get("scale")
        .map(|s| parse_scale(s).expect("bad --scale"))
        .unwrap_or(Scale::Ci);
    let rank: usize = args.get_or("rank", 5);
    let seed: u64 = args.get_or("seed", 0);
    let datasets: Vec<Dataset> = match args.get("dataset") {
        Some(name) => vec![Dataset::parse(name).expect("unknown --dataset")],
        None => Dataset::ALL.to_vec(),
    };

    println!("## E5: D-Tucker per-phase breakdown");
    println!("(scale {scale:?}, rank {rank}, seed {seed})\n");

    let mut table = Table::new(&[
        "dataset",
        "approx_s",
        "init_s",
        "iter_s",
        "sweeps",
        "per_sweep_s",
        "total_s",
        "rel_error",
    ])
    .with_csv("e5_phases");

    for ds in datasets {
        let x = generate(ds, scale, seed).expect("dataset generation failed");
        let rank = rank.min(*x.shape().iter().min().expect("non-empty shape"));
        let cfg = DTuckerConfig::uniform(rank, x.order()).with_seed(seed);
        let out = DTucker::new(cfg).decompose(&x).expect("dtucker failed");
        let sweeps = out.trace.iterations().max(1);
        let err = out
            .decomposition
            .relative_error_sq(&x)
            .expect("error eval failed");
        let phase = |name| out.timings.get(name).unwrap_or_default();
        table.row(&[
            ds.name().into(),
            secs(phase("core.approx")),
            secs(phase("core.init")),
            secs(phase("core.iterate")),
            sweeps.to_string(),
            format!("{:.4}", phase("core.iterate").as_secs_f64() / sweeps as f64),
            secs(out.timings.total()),
            format!("{:.4}", err),
        ]);
    }
    table.print();
    println!("\nExpected shape (paper): the approximation phase (one pass of slice rSVDs)");
    println!("dominates total time; each ALS sweep on the compressed slices is far");
    println!("cheaper, so answering further decompositions at other ranks is nearly free.");
}
