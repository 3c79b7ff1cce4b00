//! `decompose-traffic`: closed-loop D-Tucker decompositions of the traffic
//! analog, each written to the artifact store.

use crate::check::{ORTHONORMAL_TOL, REL_ERROR_CEILING};
use crate::report::{median_scaled, peak_rss_mb, Metrics, Op, Report, Summary};
use crate::trace::Tracer;
use crate::Ctx;
use dtucker_core::init::initialize_threaded;
use dtucker_core::iterate::iterate_from;
use dtucker_core::{
    DTucker, DTuckerConfig, InMemorySource, SliceSource, SlicedTensor, SweepState, TuckerDecomp,
};
use dtucker_data::{generate, Dataset, Scale};
use dtucker_linalg::gemm::matmul;
use dtucker_linalg::matrix::Matrix;
use dtucker_linalg::random::gaussian_matrix;
use dtucker_linalg::rsvd::{rsvd, RsvdConfig};
use dtucker_linalg::svd::leading_left_singular_vectors;
use dtucker_store::ArtifactStore;
use dtucker_tensor::dense::DenseTensor;
use dtucker_tensor::unfold::{inverse_permutation, permute};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::time::{Duration, Instant};

/// Target rank of every mode.
pub const RANK: usize = 10;
/// Store name of the decomposition artifact.
pub const ARTIFACT: &str = "traffic";
/// A decomposition counts as on time within this many milliseconds.
pub const DEADLINE_MS: f64 = 2000.0;
/// The reported tail: a run holds 30–40 decompositions, so p70 is the
/// highest percentile with about ten samples beyond it.
pub const TAIL_PCT: f64 = 70.0;
/// Repetitions of the GEMM probe per traced decomposition.
const GEMM_REPS: usize = 20;

/// The workload's input: the traffic analog at the `bench` preset.
pub fn input(seed: u64) -> Result<DenseTensor, String> {
    generate(Dataset::Traffic, Scale::Bench, seed).map_err(|e| e.to_string())
}

/// The decomposition configuration: rank 10, default tolerance, one
/// thread (the paper's protocol).
pub fn config() -> DTuckerConfig {
    DTuckerConfig::uniform(RANK, 3).with_threads(1)
}

/// `‖X − X̂‖/‖X‖`.
pub fn rel_error(d: &TuckerDecomp, x: &DenseTensor) -> Result<f64, String> {
    d.relative_error_sq(x)
        .map(f64::sqrt)
        .map_err(|e| e.to_string())
}

/// Builds the rank-10 artifact served by `query-ranges` and
/// `serve-keepalive` in a child process (so its memory peak
/// does not count against the measured process) and returns the
/// decomposition's relative error.
pub fn prepare_artifact(ctx: &Ctx, store_dir: &Path) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let t = Instant::now();
    let out = std::process::Command::new(exe)
        .arg("prepare")
        .arg("--seed")
        .arg(ctx.seed.to_string())
        .arg("--store")
        .arg(store_dir)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the artifact preparation: {e}"))?;
    if !out.status.success() {
        return Err(format!("artifact preparation failed: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let rel = text
        .lines()
        .find_map(|l| l.strip_prefix("rel_error "))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .ok_or("artifact preparation printed no rel_error")?;
    println!(
        "artifact prepared in {:.2} s (rel_error {rel:.5})",
        t.elapsed().as_secs_f64()
    );
    Ok(rel)
}

/// The child side of [`prepare_artifact`]: decompose the seed's traffic
/// tensor at rank 10 and save it to `store_dir`.
pub fn prepare(seed: u64, store_dir: &Path) -> Result<(), String> {
    let x = input(seed)?;
    let out = DTucker::new(config())
        .decompose(&x)
        .map_err(|e| e.to_string())?;
    let rel = rel_error(&out.decomposition, &x)?;
    ArtifactStore::open(store_dir)
        .and_then(|s| s.save_decomposition(ARTIFACT, &out.decomposition))
        .map_err(|e| e.to_string())?;
    println!("rel_error {rel}");
    Ok(())
}

/// Runs the three phases through their public entry points, with a span
/// around each and one per ALS sweep. Same calls, same result as
/// `DTucker::decompose`.
fn traced_decompose(
    tr: &mut Tracer,
    op: u64,
    x: &DenseTensor,
    cfg: &DTuckerConfig,
) -> Result<(TuckerDecomp, SlicedTensor, usize), String> {
    let sliced = tr
        .span("core.approx", op, || SlicedTensor::compress(x, cfg))
        .map_err(|e| e.to_string())?;
    let perm = sliced.perm().to_vec();
    let ranks: Vec<usize> = perm.iter().map(|&p| cfg.ranks[p]).collect();
    let init = tr
        .span("core.init", op, || {
            initialize_threaded(&sliced, &ranks, cfg.threads)
        })
        .map_err(|e| e.to_string())?;
    let id = tr.begin("core.iterate", op);
    let start = Instant::now();
    let mut sweep_ends = Vec::new();
    let out = iterate_from(
        &sliced,
        &ranks,
        SweepState::fresh(init.factors),
        cfg,
        &mut |_| {
            sweep_ends.push(Instant::now());
            Ok(())
        },
    );
    let mut prev = start;
    for &end in &sweep_ends {
        tr.record("core.sweep", op, prev, end);
        prev = end;
    }
    tr.end(id);
    let out = out.map_err(|e| e.to_string())?;
    let mut factors = vec![Matrix::zeros(0, 0); perm.len()];
    for (p, f) in out.factors.into_iter().enumerate() {
        factors[perm[p]] = f;
    }
    let core = permute(&out.core, &inverse_permutation(&perm)).map_err(|e| e.to_string())?;
    Ok((TuckerDecomp { core, factors }, sliced, sweep_ends.len()))
}

/// Per-layer calls made once per traced decomposition, outside its
/// timing: one slice's rSVD, the approximation's tall-skinny GEMM, and the
/// initialization's left-singular-vector solve on the real concatenation.
fn layer_probes(
    tr: &mut Tracer,
    op: u64,
    src: &mut InMemorySource,
    sliced: &SlicedTensor,
    cfg: &DTuckerConfig,
    layers: &mut LayerSamples,
) -> Result<(), String> {
    let l = op as usize % sliced.num_slices();
    let slice = src.load_slice(l).map_err(|e| e.to_string())?;
    let k = sliced.slice_rank();
    let mut rng = StdRng::seed_from_u64(op);
    let rcfg = RsvdConfig {
        rank: k,
        oversample: cfg.oversample,
        power_iters: cfg.power_iters,
    };
    let t = Instant::now();
    tr.span("linalg.rsvd", op, || rsvd(&slice, rcfg, &mut rng))
        .map_err(|e| e.to_string())?;
    layers.rsvd.push(t.elapsed());

    // The range finder's sketch: slice (I₁×I₂) times a Gaussian I₂×(k+p).
    let omega = gaussian_matrix(slice.cols(), k + cfg.oversample, &mut rng);
    let t = Instant::now();
    for _ in 0..GEMM_REPS {
        std::hint::black_box(tr.span("linalg.matmul", op, || matmul(&slice, &omega)));
    }
    let flops = 2.0 * (slice.rows() * slice.cols() * omega.cols() * GEMM_REPS) as f64;
    layers
        .gemm_gflops
        .push(flops / t.elapsed().as_secs_f64() / 1e9);

    // Initialization's concatenation [U₁Σ₁ | … | U_LΣ_L].
    let rows = sliced.shape()[0];
    let mut concat = Matrix::zeros(rows, sliced.num_slices() * k);
    for (i, s) in sliced.slices().iter().enumerate() {
        let us = s.us();
        for r in 0..rows {
            concat.row_mut(r)[i * k..i * k + us.cols()].copy_from_slice(us.row(r));
        }
    }
    let j1 = cfg.ranks[sliced.perm()[0]];
    let t = Instant::now();
    tr.span("linalg.lsv", op, || {
        leading_left_singular_vectors(&concat, j1)
    })
    .map_err(|e| e.to_string())?;
    layers.lsv.push(t.elapsed());
    if layers.shapes.is_empty() {
        layers.shapes = format!(
            "slice {}x{}, sketch {}x{}, concatenation {}x{}",
            slice.rows(),
            slice.cols(),
            omega.rows(),
            omega.cols(),
            concat.rows(),
            concat.cols()
        );
    }
    Ok(())
}

#[derive(Default)]
struct LayerSamples {
    rsvd: Vec<Duration>,
    gemm_gflops: Vec<f64>,
    lsv: Vec<Duration>,
    sweeps: Vec<f64>,
    compressed_mb: Vec<f64>,
    artifact_bytes: Vec<f64>,
    load: Vec<Duration>,
    shapes: String,
}

/// Runs the workload for `seconds` (at least three decompositions).
pub fn run(ctx: &Ctx, seconds: f64, traced: bool) -> Result<Report, String> {
    let store_dir = ctx.scratch("decompose-store")?;
    let mut setup = Vec::new();
    let mut x = None;
    for _ in 0..ctx.setup_reps() {
        let t = Instant::now();
        x = Some(input(ctx.seed)?);
        ArtifactStore::open(&store_dir).map_err(|e| e.to_string())?;
        setup.push(t.elapsed().as_secs_f64());
    }
    let x = x.ok_or("no set-up repetition ran")?;
    let store = ArtifactStore::open(&store_dir).map_err(|e| e.to_string())?;
    let cfg = config();
    let solver = DTucker::new(cfg.clone());
    let mut tr = Tracer::new(Instant::now());
    let mut src = if traced {
        Some(
            InMemorySource::with_perm(
                &x,
                &dtucker_tensor::unfold::descending_mode_order(x.shape()),
            )
            .map_err(|e| e.to_string())?,
        )
    } else {
        None
    };
    let mut layers = LayerSamples::default();

    let mut ops = Vec::new();
    let mut rel_errors = Vec::new();
    let mut failed = 0;
    let mut incorrect = 0;
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut op = 0u64;
    while op < 3 || start.elapsed().as_secs_f64() < seconds {
        op += 1;
        let trace_op = traced && op.is_multiple_of(2);
        let t0 = Instant::now();
        let outcome: Result<(TuckerDecomp, Option<(SlicedTensor, usize)>), String> = if trace_op {
            let id = tr.begin("bench.decompose", op);
            let r = traced_decompose(&mut tr, op, &x, &cfg).and_then(|(d, s, n)| {
                tr.span("store.save", op, || store.save_decomposition(ARTIFACT, &d))
                    .map_err(|e| e.to_string())?;
                Ok((d, Some((s, n))))
            });
            tr.end(id);
            r
        } else {
            solver
                .decompose(&x)
                .map_err(|e| e.to_string())
                .and_then(|out| {
                    store
                        .save_decomposition(ARTIFACT, &out.decomposition)
                        .map_err(|e| e.to_string())?;
                    Ok((out.decomposition, None))
                })
        };
        let latency = t0.elapsed();
        let (d, extra) = match outcome {
            Ok(v) => v,
            Err(e) => {
                eprintln!("decompose-traffic: operation {op} failed: {e}");
                failed += 1;
                ops.push(Op {
                    latency_ms: latency.as_secs_f64() * 1e3,
                    ok: false,
                    client: 0,
                });
                continue;
            }
        };
        if trace_op {
            &mut traced_ms
        } else {
            &mut plain_ms
        }
        .push(latency.as_secs_f64() * 1e3);

        // Checks, outside the timing: error under the ceiling, orthonormal
        // factors.
        let err = rel_error(&d, &x)?;
        let ok = err <= REL_ERROR_CEILING && d.factors_orthonormal(ORTHONORMAL_TOL);
        if !ok {
            eprintln!("decompose-traffic: INCORRECT decomposition {op}: rel_error {err}");
            incorrect += 1;
            failed += 1;
        }
        rel_errors.push(err);
        ops.push(Op {
            latency_ms: latency.as_secs_f64() * 1e3,
            ok,
            client: 0,
        });

        if let (Some((sliced, sweeps)), Some(src)) = (extra, src.as_mut()) {
            layers.sweeps.push(sweeps as f64);
            layers
                .compressed_mb
                .push(sliced.memory_bytes() as f64 / (1 << 20) as f64);
            let path = store.path(ARTIFACT);
            layers
                .artifact_bytes
                .push(std::fs::metadata(&path).map_err(|e| e.to_string())?.len() as f64);
            let t = Instant::now();
            let back = tr
                .span("store.load", op, || store.load_decomposition(ARTIFACT))
                .map_err(|e| e.to_string())?;
            layers.load.push(t.elapsed());
            if back.core.as_slice() != d.core.as_slice() {
                eprintln!("decompose-traffic: INCORRECT store round trip {op}");
                incorrect += 1;
            }
            layer_probes(&mut tr, op, src, &sliced, &cfg, &mut layers)?;
        }
    }
    let busy_s: f64 = ops.iter().map(|o| o.latency_ms).sum::<f64>() / 1e3;
    let summary = Summary {
        ops: &ops,
        attempted: op,
        clients: 1,
        deadline_ms: DEADLINE_MS,
        tail_pct: TAIL_PCT,
        busy_s,
        setup_s: &setup,
        rel_error: crate::stats::median(&rel_errors),
        peak_rss_mb: peak_rss_mb("self"),
    };
    println!(
        "decompose-traffic: {} decompositions of {:?} at rank {RANK}, threads 1, over {:.1} s",
        ops.len(),
        x.shape(),
        start.elapsed().as_secs_f64()
    );
    println!("  {}", summary.tail_note());
    let mut report = Report {
        attempted: op,
        failed,
        incorrect,
        end_to_end: summary.metrics(),
        layers: Metrics::default(),
    };
    if traced {
        let l = &mut report.layers;
        l.set(
            "core.approx_ms",
            median_scaled(&tr.durations("core.approx"), 1e3),
            "ms",
        );
        l.set(
            "core.init_ms",
            median_scaled(&tr.durations("core.init"), 1e3),
            "ms",
        );
        l.set(
            "core.iterate_ms",
            median_scaled(&tr.durations("core.iterate"), 1e3),
            "ms",
        );
        l.set(
            "core.sweep_ms",
            median_scaled(&tr.durations("core.sweep"), 1e3),
            "ms",
        );
        l.set("core.sweeps", crate::stats::median(&layers.sweeps), "count");
        l.set(
            "core.compressed_mb",
            crate::stats::median(&layers.compressed_mb),
            "MB",
        );
        l.set(
            "core.decompose_self_ms",
            median_scaled(&tr.self_times("bench.decompose"), 1e3),
            "ms",
        );
        l.set(
            "store.save_ms",
            median_scaled(&tr.durations("store.save"), 1e3),
            "ms",
        );
        l.set(
            "store.artifact_bytes",
            crate::stats::median(&layers.artifact_bytes),
            "bytes",
        );
        l.set("store.load_ms", median_scaled(&layers.load, 1e3), "ms");
        l.set(
            "linalg.rsvd_slice_us",
            median_scaled(&layers.rsvd, 1e6),
            "us",
        );
        l.set(
            "linalg.gemm_gflops",
            crate::stats::median(&layers.gemm_gflops),
            "GFLOP/s",
        );
        l.set("linalg.lsv_ms", median_scaled(&layers.lsv, 1e3), "ms");
        crate::set_overhead(l, &plain_ms, &traced_ms);
        println!("decompose-traffic layer shapes: {}", layers.shapes);
        tr.write_jsonl(&ctx.trace_path("decompose-traffic"))
            .map_err(|e| e.to_string())?;
    }
    Ok(report)
}
