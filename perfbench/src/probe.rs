//! Host-contention probe: a fixed, vectorizable kernel owned by the
//! benchmark (not the program's GEMM), small enough to stay in L2.
//!
//! Timed before and after each workload run. If the probe's rate drops
//! while a workload slows, the host was contended; if the probe holds
//! steady, the slowdown is the program's.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Elements per operand: two 128 KiB `f64` arrays, L2-resident.
const LEN: usize = 16 * 1024;
/// Kernel passes per timed sample.
const PASSES: usize = 32;

/// Median GFLOP/s of `y ← a·x + y` over samples taken for `budget`.
pub fn axpy_gflops(budget: Duration) -> f64 {
    let x: Vec<f64> = (0..LEN).map(|i| (i % 17) as f64 * 0.25).collect();
    let mut y = vec![1.0f64; LEN];
    let a = black_box(1e-12);
    // Warm-up: fault the pages in and let the core leave any idle state.
    let warm = Instant::now();
    while warm.elapsed() < budget / 3 {
        for (yi, xi) in y.iter_mut().zip(black_box(&x)) {
            *yi += a * xi;
        }
        black_box(&mut y);
    }
    let mut rates = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget || rates.len() < 5 {
        let t = Instant::now();
        for _ in 0..PASSES {
            for (yi, xi) in y.iter_mut().zip(black_box(&x)) {
                *yi += a * xi;
            }
            black_box(&mut y);
        }
        let secs = t.elapsed().as_secs_f64();
        rates.push((2 * LEN * PASSES) as f64 / secs / 1e9);
    }
    crate::stats::median(&rates)
}
