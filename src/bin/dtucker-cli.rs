//! Command-line front door for the dtucker workspace.
//!
//! ```text
//! dtucker-cli generate    --dataset boats --scale ci --seed 0 --out x.dten
//! dtucker-cli info        --input x.dten
//! dtucker-cli compress    --input x.dten --rank J [--chunk C] [--seed S] --out art.dts
//! dtucker-cli decompose   --input x.dten | --sliced art.dts  --rank J
//!                         [--method dtucker|hooi|hosvd|st-hosvd|mach|rtd] [--seed S]
//!                         [--save-core core.dten] [--save-decomp d.dts]
//!                         [--checkpoint ck.dts [--checkpoint-every N]]
//! dtucker-cli resume      --sliced art.dts --checkpoint ck.dts [--save-decomp d.dts]
//! dtucker-cli reconstruct --decomp d.dts | --sliced art.dts  --out xhat.dten [--range SPEC]
//! dtucker-cli query       --decomp d.dts  --at i,j,k | --range SPEC | --stdin
//!                         [--agg sum|mean|fro] [--out box.dten] [--cache-mb N]
//!                         [--profile] [--verify] [--format text|json]
//! dtucker-cli list        --store DIR [--format text|json]
//! dtucker-cli serve       --store DIR [--addr HOST:PORT] [--threads N]
//!                         [--cache-mb N] [--max-inflight N]
//! ```
//!
//! `compress` never materializes the input tensor: slices stream from the
//! `.dten` file in bounded chunks, and the result is bit-identical to the
//! in-memory path. `decompose --checkpoint` makes long runs kill-safe;
//! `resume` continues them to the same factors the uninterrupted run
//! would have produced.
//!
//! `query` serves values straight from the factored form — the full
//! tensor is never materialized (except under `--verify`, which checks
//! every answer against naive reconstruction). A range `SPEC` is one
//! comma-separated term per mode: `i`, `lo:hi`, `lo:`, `:hi`, or `:`
//! (e.g. `3,0:10,:`). `--stdin` reads one spec per line and serves them
//! as a batch, reordered so queries sharing a contraction prefix hit the
//! partial-contraction cache. `--format json` emits the exact same
//! encoding the HTTP server uses (one shared writer), with diagnostics on
//! stderr so piped stdout stays pure JSON.
//!
//! `serve` starts the std-only HTTP/1.1 server over every Tucker artifact
//! in a store directory (see DESIGN.md §12 for the API); `list` shows a
//! store's contents, with per-file warnings on stderr.

use dtucker::serve::json::{write_aggregate, write_result, JsonWriter};
use dtucker::serve::{load_store_artifacts, ServeConfig, Server};
use dtucker::{
    ArtifactStore, DTucker, DTuckerConfig, DTuckerOutput, DenseTensor, QueryEngine, Range,
    SliceSource, SlicedTensor,
};
use dtucker_baselines::{hooi, hosvd, mach, rtd, st_hosvd, HooiConfig, MachConfig, RtdConfig};
use dtucker_data::{generate, parse_scale, Dataset};
use dtucker_store::{self as store, DtenSliceSource, HooiCheckpoint};
use dtucker_tensor::io;
use std::process::ExitCode;
use std::time::Instant;

fn opt(args: &[String], key: &str) -> Option<String> {
    let flag = format!("--{key}");
    args.iter()
        .position(|a| a == &flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Why a subcommand stopped. Both kinds exit with code 2; only a bad
/// command line is followed by the usage text.
#[derive(Debug)]
enum Failure {
    /// Missing, unknown or malformed arguments.
    Usage(String),
    /// An error while running: unreadable input, bad data, a failed write.
    Run(String),
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure::Run(msg)
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Usage(msg) | Failure::Run(msg) => f.write_str(msg),
        }
    }
}

fn usage(msg: impl Into<String>) -> Failure {
    Failure::Usage(msg.into())
}

fn print_usage() {
    eprintln!("usage:");
    eprintln!(
        "  dtucker-cli generate    --dataset <name> [--scale ci|bench|paper] [--seed S] --out <file>"
    );
    eprintln!("  dtucker-cli info      --input <file>");
    eprintln!(
        "  dtucker-cli compress    --input <x.dten> --rank J [--chunk C] [--seed S] --out <art.dts>"
    );
    eprintln!("  dtucker-cli decompose --input <x.dten> | --sliced <art.dts>  --rank J");
    eprintln!("                        [--method NAME] [--seed S] [--save-core <file>]");
    eprintln!("                        [--save-decomp <d.dts>] [--checkpoint <ck.dts> [--checkpoint-every N]]");
    eprintln!(
        "  dtucker-cli resume    --sliced <art.dts> --checkpoint <ck.dts> [--save-decomp <d.dts>]"
    );
    eprintln!("  dtucker-cli reconstruct --decomp <d.dts> | --sliced <art.dts>  --out <xhat.dten> [--range SPEC]");
    eprintln!("  dtucker-cli query     --decomp <d.dts>  --at i,j,k | --range SPEC | --stdin");
    eprintln!("                        [--agg sum|mean|fro] [--out <box.dten>] [--cache-mb N] [--profile] [--verify]");
    eprintln!("                        [--format text|json]");
    eprintln!("  dtucker-cli list      --store <dir> [--format text|json]");
    eprintln!("  dtucker-cli serve     --store <dir> [--addr HOST:PORT] [--threads N] [--cache-mb N] [--max-inflight N]");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args),
        Some("info") => cmd_info(&args),
        Some("compress") => cmd_compress(&args),
        Some("decompose") => cmd_decompose(&args),
        Some("resume") => cmd_resume(&args),
        Some("reconstruct") => cmd_reconstruct(&args),
        Some("query") => cmd_query(&args),
        Some("list") => cmd_list(&args),
        Some("serve") => cmd_serve(&args),
        _ => Err(usage("missing or unknown subcommand")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(failure) => {
            eprintln!("error: {failure}");
            if let Failure::Usage(_) = failure {
                eprintln!();
                print_usage();
            }
            ExitCode::from(2)
        }
    }
}

/// Runs the checkpointable D-Tucker path, writing a checkpoint artifact
/// every `every` sweeps (and at the final sweep) when a path is given.
fn run_resumable(
    sliced: &SlicedTensor,
    cfg: &DTuckerConfig,
    resume: Option<dtucker::SweepState>,
    ckpt: Option<&str>,
    every: usize,
) -> Result<DTuckerOutput, String> {
    let solver = DTucker::new(cfg.clone());
    let mut written = 0usize;
    let out = solver
        .decompose_sliced_resumable(sliced, resume, &mut |snap| {
            if let Some(path) = ckpt {
                if snap.sweep % every.max(1) == 0 || snap.done {
                    let ck = HooiCheckpoint::from_snapshot(&snap, sliced, cfg);
                    store::write_checkpoint(path, &ck).map_err(|e| {
                        dtucker::core::CoreError::InvalidConfig {
                            details: format!("checkpoint write failed: {e}"),
                        }
                    })?;
                    written += 1;
                }
            }
            Ok(())
        })
        .map_err(|e| e.to_string())?;
    if let Some(path) = ckpt {
        println!("checkpoint  {written} snapshot(s) written to {path}");
    }
    Ok(out)
}

fn cmd_generate(args: &[String]) -> Result<(), Failure> {
    let Some(name) = opt(args, "dataset") else {
        return Err(usage("--dataset is required"));
    };
    let Some(ds) = Dataset::parse(&name) else {
        return Err(usage("unknown dataset"));
    };
    let scale = parse_scale(&opt(args, "scale").unwrap_or_else(|| "ci".into()))
        .map_err(|e| usage(e.to_string()))?;
    let seed: u64 = opt(args, "seed").and_then(|v| v.parse().ok()).unwrap_or(0);
    let Some(out) = opt(args, "out") else {
        return Err(usage("--out is required"));
    };

    let t0 = Instant::now();
    let x = generate(ds, scale, seed).map_err(|e| e.to_string())?;
    io::save(&x, &out).map_err(|e| e.to_string())?;
    println!(
        "wrote {out}: {:?}, {:.1} MB, generated in {:.2}s",
        x.shape(),
        x.numel() as f64 * 8.0 / 1e6,
        t0.elapsed().as_secs_f64()
    );
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), Failure> {
    let Some(input) = opt(args, "input") else {
        return Err(usage("--input is required"));
    };
    let x = io::load(&input).map_err(|e| e.to_string())?;
    println!("{input}:");
    println!("  shape   {:?} (order {})", x.shape(), x.order());
    println!(
        "  numel   {} ({:.1} MB)",
        x.numel(),
        x.numel() as f64 * 8.0 / 1e6
    );
    println!("  ‖X‖_F   {:.6}", x.fro_norm());
    println!("  max|x|  {:.6}", x.max_abs());
    println!("  finite  {}", x.is_finite());
    Ok(())
}

fn cmd_compress(args: &[String]) -> Result<(), Failure> {
    let Some(input) = opt(args, "input") else {
        return Err(usage("--input is required"));
    };
    let Some(rank) = opt(args, "rank").and_then(|v| v.parse::<usize>().ok()) else {
        return Err(usage("--rank J is required"));
    };
    let Some(out) = opt(args, "out") else {
        return Err(usage("--out is required"));
    };
    let chunk: usize = opt(args, "chunk").and_then(|v| v.parse().ok()).unwrap_or(0);
    let seed: u64 = opt(args, "seed").and_then(|v| v.parse().ok()).unwrap_or(0);

    let mut src = DtenSliceSource::open(&input).map_err(|e| e.to_string())?;
    let n = src.shape().len();
    let j = rank.min(*src.shape().iter().min().expect("non-empty shape"));
    if j < rank {
        eprintln!("note: rank clamped to {j} (smallest mode)");
    }
    let cfg = DTuckerConfig::uniform(j, n)
        .with_seed(seed)
        .with_chunk_slices(chunk);

    let t0 = Instant::now();
    let st = SlicedTensor::compress_source(&mut src, &cfg).map_err(|e| e.to_string())?;
    store::write_sliced(&out, &st).map_err(|e| e.to_string())?;
    println!("input       {input} {:?}", src.original_shape());
    println!(
        "slices      {} of rank {} (chunked {} at a time)",
        st.num_slices(),
        st.slice_rank(),
        cfg.effective_chunk_slices(st.num_slices())
    );
    println!("time        {:.3}s", t0.elapsed().as_secs_f64());
    println!(
        "compressed  {:.2} MB ({:.1}x smaller than dense), written to {out}",
        st.memory_bytes() as f64 / 1e6,
        st.compression_ratio()
    );
    Ok(())
}

fn cmd_decompose(args: &[String]) -> Result<(), Failure> {
    let input = opt(args, "input");
    let sliced_path = opt(args, "sliced");
    if input.is_some() == sliced_path.is_some() {
        return Err(usage("exactly one of --input / --sliced is required"));
    }
    let Some(rank) = opt(args, "rank").and_then(|v| v.parse::<usize>().ok()) else {
        return Err(usage("--rank J is required"));
    };
    let method = opt(args, "method").unwrap_or_else(|| "dtucker".into());
    let seed: u64 = opt(args, "seed").and_then(|v| v.parse().ok()).unwrap_or(0);
    let ckpt = opt(args, "checkpoint");
    let every: usize = opt(args, "checkpoint-every")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    if ckpt.is_some() && method != "dtucker" {
        return Err(usage("--checkpoint is only supported for --method dtucker"));
    }

    // Dense tensor (when given a `.dten`) and compressed representation
    // (always, for the dtucker path).
    let x = match &input {
        Some(path) => Some(io::load(path).map_err(|e| e.to_string())?),
        None => None,
    };

    let t0 = Instant::now();
    let d = if method == "dtucker" {
        let st = match (&x, &sliced_path) {
            (Some(x), _) => {
                let n = x.order();
                let j = rank.min(*x.shape().iter().min().expect("non-empty shape"));
                if j < rank {
                    eprintln!("note: rank clamped to {j} (smallest mode)");
                }
                let cfg = DTuckerConfig::uniform(j, n).with_seed(seed);
                let mut src = dtucker::InMemorySource::new(x).map_err(|e| e.to_string())?;
                SlicedTensor::compress_source(&mut src, &cfg).map_err(|e| e.to_string())?
            }
            (None, Some(path)) => store::read_sliced(path).map_err(|e| e.to_string())?,
            (None, None) => unreachable!("validated above"),
        };
        let n = st.shape().len();
        let j = rank
            .min(*st.shape().iter().min().expect("non-empty shape"))
            .min(st.slice_rank());
        if j < rank && x.is_none() {
            eprintln!("note: rank clamped to {j} (smallest mode / slice rank)");
        }
        let cfg = DTuckerConfig::uniform(j, n).with_seed(seed);
        let out = run_resumable(&st, &cfg, None, ckpt.as_deref(), every)?;
        println!(
            "iterations  {} (converged: {})",
            out.trace.iterations(),
            out.trace.converged
        );
        out.decomposition
    } else {
        let Some(x) = &x else {
            return Err(usage(
                "baseline methods need a dense --input (not --sliced)",
            ));
        };
        let n = x.order();
        let j = rank.min(*x.shape().iter().min().expect("non-empty shape"));
        if j < rank {
            eprintln!("note: rank clamped to {j} (smallest mode)");
        }
        let ranks = vec![j; n];
        let result = match method.as_str() {
            "hooi" => {
                let mut c = HooiConfig::new(&ranks);
                c.seed = seed;
                hooi(x, &c).map(|o| o.decomposition)
            }
            "hosvd" => hosvd(x, &ranks).map(|o| o.decomposition),
            "st-hosvd" => st_hosvd(x, &ranks).map(|o| o.decomposition),
            "mach" => {
                let mut c = MachConfig::new(&ranks);
                c.seed = seed;
                mach(x, &c).map(|o| o.decomposition)
            }
            "rtd" => {
                let mut c = RtdConfig::new(&ranks);
                c.seed = seed;
                rtd(x, &c).map(|o| o.decomposition)
            }
            other => return Err(usage(format!("unknown method '{other}'"))),
        };
        result.map_err(|e| e.to_string())?
    };
    let elapsed = t0.elapsed();

    println!("method      {method}");
    println!("ranks       {:?}", d.ranks());
    println!("time        {:.3}s", elapsed.as_secs_f64());
    match &x {
        Some(x) => {
            let e = d.relative_error_sq(x).map_err(|e| e.to_string())?;
            println!("rel. error  {e:.6}");
        }
        None => {
            // No dense tensor in memory: report the projection error
            // implied by ‖X‖² and the core energy.
            let st = store::read_sliced(sliced_path.as_ref().expect("sliced path"))
                .map_err(|e| e.to_string())?;
            println!("proj. error {:.6}", d.projection_error_sq(st.norm_x_sq()));
        }
    }
    let dense_bytes: usize = d.full_shape().iter().product::<usize>() * 8;
    println!(
        "model size  {:.2} MB ({:.1}x smaller than dense)",
        d.memory_bytes() as f64 / 1e6,
        dense_bytes as f64 / d.memory_bytes().max(1) as f64
    );
    if let Some(path) = opt(args, "save-core") {
        io::save(&d.core, &path).map_err(|e| e.to_string())?;
        println!("core        written to {path}");
    }
    if let Some(path) = opt(args, "save-decomp") {
        store::write_decomposition(&path, &d).map_err(|e| e.to_string())?;
        println!("decomp      written to {path}");
    }
    Ok(())
}

fn cmd_resume(args: &[String]) -> Result<(), Failure> {
    let Some(sliced_path) = opt(args, "sliced") else {
        return Err(usage("--sliced is required"));
    };
    let Some(ckpt_path) = opt(args, "checkpoint") else {
        return Err(usage("--checkpoint is required"));
    };
    let every: usize = opt(args, "checkpoint-every")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);

    let st = store::read_sliced(&sliced_path).map_err(|e| e.to_string())?;
    let ck = store::read_checkpoint(&ckpt_path).map_err(|e| e.to_string())?;
    // The checkpoint carries the full run identity; rebuild the exact
    // configuration instead of asking the user to repeat it.
    let mut cfg = DTuckerConfig::new(&ck.ranks).with_seed(ck.seed);
    cfg.tolerance = ck.tolerance;
    cfg.max_iters = ck.max_iters;
    ck.validate_against(&st, &cfg).map_err(|e| e.to_string())?;
    let start_sweep = ck.sweep;
    println!(
        "resuming    sweep {start_sweep} of {} ({ckpt_path})",
        cfg.max_iters
    );

    let t0 = Instant::now();
    let out = run_resumable(&st, &cfg, Some(ck.into_state()), Some(&ckpt_path), every)?;
    let d = out.decomposition;
    println!(
        "iterations  {} (converged: {})",
        out.trace.iterations(),
        out.trace.converged
    );
    println!("ranks       {:?}", d.ranks());
    println!("time        {:.3}s", t0.elapsed().as_secs_f64());
    println!("proj. error {:.6}", d.projection_error_sq(st.norm_x_sq()));
    if let Some(path) = opt(args, "save-decomp") {
        store::write_decomposition(&path, &d).map_err(|e| e.to_string())?;
        println!("decomp      written to {path}");
    }
    Ok(())
}

/// Reconstruction with an optional `--range SPEC`. The `--decomp` path is
/// served by the query engine, so only the requested box is ever
/// materialized; `--sliced` has no factored form to query and expands the
/// compressed representation first. Out-of-bounds or malformed specs are
/// typed errors, never panics, and the output goes through the atomic
/// write helper (temp file + rename) like every other artifact.
fn cmd_reconstruct(args: &[String]) -> Result<(), Failure> {
    let out = opt(args, "out").ok_or_else(|| usage("--out is required"))?;
    let decomp = opt(args, "decomp");
    let sliced = opt(args, "sliced");
    if decomp.is_some() == sliced.is_some() {
        return Err(usage("exactly one of --decomp / --sliced is required"));
    }
    let range = opt(args, "range");

    let t0 = Instant::now();
    let x = if let Some(path) = decomp {
        let mut engine = QueryEngine::open(&path).map_err(|e| e.to_string())?;
        let shape = engine.shape().to_vec();
        let r = match &range {
            Some(spec) => Range::parse(spec, &shape).map_err(|e| e.to_string())?,
            None => Range::full(&shape),
        };
        engine.query(&r).map_err(|e| e.to_string())?
    } else {
        let path = sliced.expect("validated above");
        let st = store::read_sliced(&path).map_err(|e| e.to_string())?;
        let x = st.reconstruct().map_err(|e| e.to_string())?;
        match &range {
            Some(spec) => {
                let r = Range::parse(spec, x.shape()).map_err(|e| e.to_string())?;
                x.subtensor(r.bounds()).map_err(|e| e.to_string())?
            }
            None => x,
        }
    };
    io::save(&x, &out).map_err(|e| e.to_string())?;
    println!(
        "wrote {out}: {:?}, {:.1} MB, reconstructed in {:.2}s",
        x.shape(),
        x.numel() as f64 * 8.0 / 1e6,
        t0.elapsed().as_secs_f64()
    );
    Ok(())
}

/// `--verify` tolerance: the engine and the naive oracle sum in different
/// orders, so equality is up to rounding (scaled by the data magnitude).
const VERIFY_TOL: f64 = 1e-8;

fn check_close(spec: &str, got: &DenseTensor, want: &DenseTensor) -> Result<(), String> {
    let scale = 1.0 + want.max_abs();
    for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
        if (a - b).abs() > VERIFY_TOL * scale {
            return Err(format!("verify failed for '{spec}': {a} vs naive {b}"));
        }
    }
    Ok(())
}

fn check_close_scalar(spec: &str, got: f64, want: f64, scale: f64) -> Result<(), String> {
    if (got - want).abs() > VERIFY_TOL * (1.0 + scale) {
        return Err(format!("verify failed for '{spec}': {got} vs naive {want}"));
    }
    Ok(())
}

/// Serves element/range/batch queries from a decomposition artifact.
fn cmd_query(args: &[String]) -> Result<(), Failure> {
    let decomp_path = opt(args, "decomp").ok_or_else(|| usage("--decomp is required"))?;
    let cache_mb: usize = match opt(args, "cache-mb") {
        Some(v) => v
            .parse()
            .map_err(|_| usage(format!("--cache-mb '{v}' is not a number")))?,
        None => 64,
    };
    let agg = opt(args, "agg");
    if let Some(a) = &agg {
        if !matches!(a.as_str(), "sum" | "mean" | "fro") {
            return Err(usage(format!(
                "unknown --agg '{a}' (expected sum|mean|fro)"
            )));
        }
    }
    let verify = args.iter().any(|a| a == "--verify");
    let profile = args.iter().any(|a| a == "--profile");
    let format = opt(args, "format").unwrap_or_else(|| "text".into());
    let json = match format.as_str() {
        "json" => true,
        "text" => false,
        other => {
            return Err(usage(format!(
                "unknown --format '{other}' (expected text|json)"
            )))
        }
    };
    let at = opt(args, "at");
    let range = opt(args, "range");
    let use_stdin = args.iter().any(|a| a == "--stdin");
    if [at.is_some(), range.is_some(), use_stdin]
        .iter()
        .filter(|&&b| b)
        .count()
        != 1
    {
        return Err(usage("exactly one of --at / --range / --stdin is required"));
    }

    let mut engine = QueryEngine::open_with_cache_bytes(&decomp_path, cache_mb << 20)
        .map_err(|e| e.to_string())?;
    let shape = engine.shape().to_vec();

    // `--at i,j,k` is exactly the 1-element range spec `i,j,k`.
    let specs: Vec<String> = if let Some(idx) = at {
        vec![idx]
    } else if let Some(spec) = range {
        vec![spec]
    } else {
        use std::io::BufRead;
        let mut lines = Vec::new();
        for line in std::io::stdin().lock().lines() {
            let line = line.map_err(|e| e.to_string())?;
            let line = line.trim();
            if !line.is_empty() {
                lines.push(line.to_string());
            }
        }
        lines
    };
    let ranges: Vec<Range> = specs
        .iter()
        .map(|s| Range::parse(s, &shape).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;

    // The oracle for --verify: materialize once, slice per query.
    let naive = if verify {
        Some(engine.decomp().reconstruct().map_err(|e| e.to_string())?)
    } else {
        None
    };

    // In JSON mode every result goes through the same writer the HTTP
    // server uses, wrapped as {"results":[...]} — stdout carries nothing
    // but the document.
    let mut json_out = json.then(|| {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("results");
        w.begin_array();
        w
    });

    let t0 = Instant::now();
    match agg.as_deref() {
        Some(kind) => {
            for (spec, r) in specs.iter().zip(&ranges) {
                let v = match kind {
                    "sum" => engine.sum(r),
                    "mean" => engine.mean(r),
                    _ => engine.fro_norm(r),
                }
                .map_err(|e| e.to_string())?;
                if let Some(full) = &naive {
                    let sub = full.subtensor(r.bounds()).map_err(|e| e.to_string())?;
                    let mass: f64 = sub.as_slice().iter().map(|x| x.abs()).sum();
                    let want = match kind {
                        "sum" => sub.as_slice().iter().sum::<f64>(),
                        "mean" => sub.as_slice().iter().sum::<f64>() / sub.numel() as f64,
                        _ => sub.fro_norm(),
                    };
                    check_close_scalar(spec, v, want, mass)?;
                }
                match &mut json_out {
                    Some(w) => write_aggregate(w, spec, kind, v),
                    None => println!("{spec} {kind} = {v:.12e}"),
                }
            }
        }
        None => {
            let out_path = opt(args, "out");
            if out_path.is_some() && ranges.len() != 1 {
                return Err(usage("--out requires exactly one query"));
            }
            let results = engine.query_batch(&ranges).map_err(|e| e.to_string())?;
            for ((spec, r), t) in specs.iter().zip(&ranges).zip(&results) {
                if let Some(full) = &naive {
                    let sub = full.subtensor(r.bounds()).map_err(|e| e.to_string())?;
                    check_close(spec, t, &sub)?;
                }
                match &mut json_out {
                    Some(w) => write_result(w, spec, t),
                    None if r.numel() == 1 => println!("{spec} = {:.12e}", t.as_slice()[0]),
                    None => println!(
                        "{spec}  shape {:?}  ‖·‖_F = {:.6e}",
                        t.shape(),
                        t.fro_norm()
                    ),
                }
            }
            if let Some(path) = out_path {
                io::save(&results[0], &path).map_err(|e| e.to_string())?;
                if json {
                    eprintln!("wrote {path}");
                } else {
                    println!("wrote {path}");
                }
            }
        }
    }
    if let Some(mut w) = json_out {
        w.end_array();
        w.end_object();
        println!("{}", w.finish());
    }
    let elapsed = t0.elapsed();
    // Diagnostics go to stderr in JSON mode so piped stdout stays a pure
    // document.
    let diag = |line: String| {
        if json {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    };
    if verify {
        diag(format!(
            "verify      OK: {} answer(s) match naive reconstruction",
            specs.len()
        ));
    }
    if profile {
        diag(format!(
            "served      {} quer{} in {:.4}s",
            specs.len(),
            if specs.len() == 1 { "y" } else { "ies" },
            elapsed.as_secs_f64()
        ));
        diag(engine.profile().report());
        let s = engine.cache_stats();
        diag(format!(
            "cache       {} hits / {} misses ({:.0}% hit rate), {} insertions, {} evictions",
            s.hits,
            s.misses,
            100.0 * s.hit_rate(),
            s.insertions,
            s.evictions
        ));
        diag(format!(
            "cache use   {} / {} bytes across {} entr{}",
            engine.cache_used_bytes(),
            engine.cache_budget_bytes(),
            engine.cache_len(),
            if engine.cache_len() == 1 { "y" } else { "ies" }
        ));
    }
    Ok(())
}

/// Lists a store directory's artifacts. Warnings about unreadable or
/// foreign `.dts` files go to stderr so `--format json` stdout stays a
/// clean document for pipelines.
fn cmd_list(args: &[String]) -> Result<(), Failure> {
    let dir = opt(args, "store").ok_or_else(|| usage("--store is required"))?;
    let format = opt(args, "format").unwrap_or_else(|| "text".into());
    if format != "text" && format != "json" {
        return Err(usage(format!(
            "unknown --format '{format}' (expected text|json)"
        )));
    }
    let store = ArtifactStore::open(&dir).map_err(|e| e.to_string())?;
    let (artifacts, skipped) = store.scan().map_err(|e| e.to_string())?;
    for (path, reason) in &skipped {
        eprintln!("warning: skipping {}: {reason}", path.display());
    }
    if format == "json" {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("artifacts");
        w.begin_array();
        for (name, kind) in &artifacts {
            w.begin_object();
            w.key("name");
            w.string(name);
            w.key("kind");
            w.string(&format!("{kind:?}").to_ascii_lowercase());
            w.end_object();
        }
        w.end_array();
        w.end_object();
        println!("{}", w.finish());
    } else {
        for (name, kind) in &artifacts {
            println!("{name}  {}", format!("{kind:?}").to_ascii_lowercase());
        }
        println!("{} artifact(s) in {dir}", artifacts.len());
    }
    Ok(())
}

/// Starts the HTTP server over every Tucker decomposition in a store.
/// Blocks until drained via `POST /shutdown`.
fn cmd_serve(args: &[String]) -> Result<(), Failure> {
    let dir = opt(args, "store").ok_or_else(|| usage("--store is required"))?;
    let mut cfg = ServeConfig::default();
    if let Some(addr) = opt(args, "addr") {
        cfg.addr = addr;
    }
    if let Some(v) = opt(args, "threads") {
        cfg.threads = v
            .parse()
            .map_err(|_| usage(format!("--threads '{v}' is not a number")))?;
    }
    if let Some(v) = opt(args, "cache-mb") {
        let mb: usize = v
            .parse()
            .map_err(|_| usage(format!("--cache-mb '{v}' is not a number")))?;
        cfg.cache_bytes = mb << 20;
    }
    if let Some(v) = opt(args, "max-inflight") {
        cfg.max_inflight = v
            .parse()
            .map_err(|_| usage(format!("--max-inflight '{v}' is not a number")))?;
    }

    let store = ArtifactStore::open(&dir).map_err(|e| e.to_string())?;
    let (artifacts, warnings) = load_store_artifacts(&store).map_err(|e| e.to_string())?;
    for w in &warnings {
        eprintln!("warning: {w}");
    }
    for (name, d) in &artifacts {
        println!(
            "serving     {name}: shape {:?}, ranks {:?}",
            d.full_shape(),
            d.ranks()
        );
    }
    let server = Server::bind(cfg, artifacts).map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    println!("listening on http://{addr}");
    // The e2e harness starts this binary in the background and parses the
    // line above; make sure it is visible before we block in accept.
    use std::io::Write as _;
    std::io::stdout().flush().map_err(|e| e.to_string())?;

    let stats = server.run().map_err(|e| e.to_string())?;
    println!(
        "drained     {} connection(s), {} request(s), {} shed",
        stats.connections, stats.requests, stats.shed
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtucker::tensor::random::random_tucker;
    use dtucker::TuckerDecomp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::path::PathBuf;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    /// Writes a small decomposition artifact and returns its path plus the
    /// naively-reconstructed tensor.
    fn artifact(name: &str) -> (PathBuf, DenseTensor) {
        let dir = std::env::temp_dir().join("dtucker_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}_{}.dts", std::process::id()));
        let mut rng = StdRng::seed_from_u64(11);
        let m = random_tucker(&[6, 5, 4], &[2, 2, 2], &mut rng).unwrap();
        let d = TuckerDecomp {
            core: m.core,
            factors: m.factors,
        };
        let full = d.reconstruct().unwrap();
        store::write_decomposition(&path, &d).unwrap();
        (path, full)
    }

    #[test]
    fn reconstruct_rejects_bad_arguments() {
        let (path, _) = artifact("recon_args");
        let p = path.to_str().unwrap();
        let out = std::env::temp_dir().join("dtucker_cli_tests/never_written.dten");
        let o = out.to_str().unwrap();
        // Missing --out.
        assert!(cmd_reconstruct(&argv(&["reconstruct", "--decomp", p])).is_err());
        // Neither / both sources.
        assert!(cmd_reconstruct(&argv(&["reconstruct", "--out", o])).is_err());
        assert!(cmd_reconstruct(&argv(&[
            "reconstruct",
            "--decomp",
            p,
            "--sliced",
            p,
            "--out",
            o
        ]))
        .is_err());
        // Out-of-bounds and malformed ranges: typed errors, no artifact.
        let e = cmd_reconstruct(&argv(&[
            "reconstruct",
            "--decomp",
            p,
            "--out",
            o,
            "--range",
            "0:99,:,:",
        ]))
        .unwrap_err()
        .to_string();
        assert!(e.contains("exceeds"), "{e}");
        let e = cmd_reconstruct(&argv(&[
            "reconstruct",
            "--decomp",
            p,
            "--out",
            o,
            "--range",
            "0:2,:",
        ]))
        .unwrap_err()
        .to_string();
        assert!(e.contains("modes"), "{e}");
        assert!(cmd_reconstruct(&argv(&[
            "reconstruct",
            "--decomp",
            p,
            "--out",
            o,
            "--range",
            "x,:,:",
        ]))
        .is_err());
        assert!(!out.exists(), "failed reconstruct must not leave output");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reconstruct_range_matches_naive_slice() {
        let (path, full) = artifact("recon_range");
        let p = path.to_str().unwrap();
        let out = std::env::temp_dir().join(format!(
            "dtucker_cli_tests/range_{}.dten",
            std::process::id()
        ));
        let o = out.to_str().unwrap();
        cmd_reconstruct(&argv(&[
            "reconstruct",
            "--decomp",
            p,
            "--out",
            o,
            "--range",
            "1:4,2,:",
        ]))
        .unwrap();
        let got = io::load(o).unwrap();
        let want = full.subtensor(&[(1, 4), (2, 3), (0, 4)]).unwrap();
        assert_eq!(got.shape(), want.shape());
        for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((a - b).abs() < 1e-9);
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn query_rejects_bad_arguments() {
        let (path, _) = artifact("query_args");
        let p = path.to_str().unwrap();
        assert!(cmd_query(&argv(&["query", "--at", "0,0,0"])).is_err());
        // Zero or two selectors.
        assert!(cmd_query(&argv(&["query", "--decomp", p])).is_err());
        assert!(cmd_query(&argv(&[
            "query", "--decomp", p, "--at", "0,0,0", "--range", ":,:,:",
        ]))
        .is_err());
        // Bad aggregate, bad cache size, out-of-bounds element.
        assert!(cmd_query(&argv(&[
            "query", "--decomp", p, "--range", ":,:,:", "--agg", "median",
        ]))
        .is_err());
        assert!(cmd_query(&argv(&[
            "query",
            "--decomp",
            p,
            "--at",
            "0,0,0",
            "--cache-mb",
            "lots",
        ]))
        .is_err());
        let e = cmd_query(&argv(&["query", "--decomp", p, "--at", "6,0,0"]))
            .unwrap_err()
            .to_string();
        assert!(e.contains("exceeds"), "{e}");
        // Missing artifact surfaces the store error.
        assert!(cmd_query(&argv(&[
            "query",
            "--decomp",
            "/no/such.dts",
            "--at",
            "0,0,0"
        ]))
        .is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn query_serves_and_verifies() {
        let (path, full) = artifact("query_ok");
        let p = path.to_str().unwrap();
        // Element, range (+ --out), and aggregates, all under --verify so
        // every answer is checked against the naive oracle.
        cmd_query(&argv(&[
            "query", "--decomp", p, "--at", "3,2,1", "--verify",
        ]))
        .unwrap();
        let out = std::env::temp_dir().join(format!(
            "dtucker_cli_tests/qbox_{}.dten",
            std::process::id()
        ));
        let o = out.to_str().unwrap();
        cmd_query(&argv(&[
            "query",
            "--decomp",
            p,
            "--range",
            "0:3,1:5,2",
            "--verify",
            "--profile",
            "--out",
            o,
        ]))
        .unwrap();
        let got = io::load(o).unwrap();
        let want = full.subtensor(&[(0, 3), (1, 5), (2, 3)]).unwrap();
        for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((a - b).abs() < 1e-9);
        }
        for agg in ["sum", "mean", "fro"] {
            cmd_query(&argv(&[
                "query",
                "--decomp",
                p,
                "--range",
                "1:6,:,0:2",
                "--agg",
                agg,
                "--verify",
            ]))
            .unwrap();
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&out).ok();
    }
}
