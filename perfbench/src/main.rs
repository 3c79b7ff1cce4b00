//! Benchmark of the dtucker workspace: end to end and layer by layer.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--cli PATH] [--work-dir DIR] [--rev REV]
//! ```
//!
//! Workloads (all on the traffic analog at the `bench` preset, generated
//! from `--seed`):
//!
//! * `decompose-traffic` — closed-loop rank-10 decompositions, each saved
//!   to the artifact store;
//! * `query-ranges` — closed-loop in-process range queries of six classes
//!   against a `QueryEngine`;
//! * `serve-keepalive` — an open-loop load generator with two keep-alive
//!   connections against `dtucker-cli serve --threads 1`.
//!
//! With `--trace 0` the last line of stdout is a JSON object holding every
//! end-to-end metric; with `--trace 1` it holds every per-layer metric.
//! Every answer is checked against an oracle computed in the same run; a
//! wrong answer makes the result `"correct": false` and the exit code 3.

mod check;
mod decompose;
mod http;
mod loadgen;
mod mix;
mod probe;
mod queries;
mod report;
mod serve;
mod stats;
mod trace;

use report::{Metrics, Report};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["decompose-traffic", "query-ranges", "serve-keepalive"];

/// How long a traced run spends on each workload other than the one
/// selected, so that every per-layer metric is present in its output.
const COMPANION_SECONDS: f64 = 3.0;

/// Run-wide settings shared by the workloads.
#[derive(Debug)]
pub struct Ctx {
    /// Seed for every generated input.
    pub seed: u64,
    /// Whether this is a traced run.
    pub trace: bool,
    /// The `dtucker-cli` binary serving HTTP.
    pub cli: Option<PathBuf>,
    /// This run's private scratch directory (removed at exit).
    pub dir: PathBuf,
    /// Where span files are written.
    pub out_dir: PathBuf,
}

impl Ctx {
    /// A fresh subdirectory of the run's scratch directory.
    pub fn scratch(&self, name: &str) -> Result<PathBuf, String> {
        let p = self.dir.join(name);
        std::fs::create_dir_all(&p).map_err(|e| format!("create {}: {e}", p.display()))?;
        Ok(p)
    }

    /// Set-up repetitions: several in a measured run (the median is
    /// reported), one in a traced run.
    pub fn setup_reps(&self) -> usize {
        if self.trace {
            1
        } else {
            3
        }
    }

    /// Where the spans of `workload` are written.
    pub fn trace_path(&self, workload: &str) -> PathBuf {
        self.out_dir
            .join(format!("spans-{workload}-seed{}.jsonl", self.seed))
    }
}

/// Records the tracing overhead: how much slower the traced operations of
/// a run were than its untraced ones, in percent of the untraced median.
pub fn set_overhead(layers: &mut Metrics, plain: &[f64], traced: &[f64]) {
    let (p, t) = (stats::median(plain), stats::median(traced));
    layers.set("trace.overhead_pct", (t - p) / p * 100.0, "%");
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    cli: Option<PathBuf>,
    work_dir: PathBuf,
    rev: String,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        cli: None,
        work_dir: PathBuf::from(".bench_build/perfbench"),
        rev: "unknown".into(),
    };
    let mut it = argv.iter();
    let (mut have_seed, mut have_seconds) = (false, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => {
                a.seed = value()?.parse().map_err(|_| "--seed must be an integer")?;
                have_seed = true;
            }
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds must be a number")?;
                have_seconds = true;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
                }
            }
            "--cli" => a.cli = Some(PathBuf::from(value()?)),
            "--work-dir" => a.work_dir = PathBuf::from(value()?),
            "--rev" => a.rev = value()?.clone(),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !have_seed || !have_seconds || a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seed and a positive --seconds are required".into());
    }
    Ok(a)
}

fn run_workload(ctx: &Ctx, name: &str, seconds: f64, traced: bool) -> Result<Report, String> {
    match name {
        "decompose-traffic" => decompose::run(ctx, seconds, traced),
        "query-ranges" => queries::run(ctx, seconds, traced),
        _ => serve::run(ctx, seconds, traced),
    }
}

/// Times the host probe and prints it with the facts needed to
/// tell a contended host from a regression.
fn host_record(args: &Args, when: &str) -> f64 {
    let gflops = probe::axpy_gflops(Duration::from_millis(300));
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let line = format!(
        "{{\"when\":\"{when}\",\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"probe_axpy_gflops\":{gflops},\"hw_threads\":{threads},\"git_rev\":\"{}\"}}",
        args.workload, args.seed, args.trace, args.rev
    );
    println!("host {line}");
    let log = args.work_dir.join("host-probe.jsonl");
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&log)
    {
        use std::io::Write as _;
        let _ = writeln!(f, "{line}");
    }
    gflops
}

fn print_result(report: &Report, metrics: &Metrics) {
    let mut w = dtucker_serve::JsonWriter::new();
    w.begin_object();
    w.key("correct");
    w.boolean(report.incorrect == 0);
    w.key("attempted");
    w.number_u64(report.attempted);
    w.key("failed");
    w.number_u64(report.failed);
    w.key("metrics");
    w.begin_object();
    for (name, &(value, unit)) in &metrics.0 {
        w.key(name);
        w.begin_object();
        w.key("value");
        w.number_f64(value);
        w.key("unit");
        w.string(unit);
        w.end_object();
    }
    w.end_object();
    w.end_object();
    println!("{}", w.finish());
}

fn run(args: &Args, ctx: &Ctx) -> Result<(Report, Metrics), String> {
    let before = host_record(args, "before");
    let main = run_workload(ctx, &args.workload, args.seconds, args.trace)?;
    let mut total = Report {
        attempted: main.attempted,
        failed: main.failed,
        incorrect: main.incorrect,
        ..Report::default()
    };
    let metrics = if args.trace {
        // The selected workload's end-to-end figures under tracing; compare
        // with an untraced run of the same seed for the tracing overhead.
        println!("traced end_to_end {}", render_inline(&main.end_to_end));
        let mut layers = main.layers;
        for other in WORKLOADS.iter().filter(|w| **w != args.workload) {
            let r = run_workload(ctx, other, COMPANION_SECONDS, true)?;
            total.attempted += r.attempted;
            total.failed += r.failed;
            total.incorrect += r.incorrect;
            layers.fill_from(&r.layers);
        }
        layers
    } else {
        main.end_to_end
    };
    let after = host_record(args, "after");
    println!(
        "host probe moved {:+.1}% over the run",
        (after - before) / before * 100.0
    );
    Ok((total, metrics))
}

fn render_inline(m: &Metrics) -> String {
    m.0.iter()
        .map(|(k, (v, u))| format!("{k}={v:.6}{u}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// `perfbench prepare --seed N --store DIR`: builds a workload's artifact
/// (run as a child process by the workloads that serve one).
fn prepare_main(argv: &[String]) -> ExitCode {
    let (seed, store) = match argv {
        [s, seed, d, dir] if s == "--seed" && d == "--store" => (seed.parse::<u64>().ok(), dir),
        _ => (None, &String::new()),
    };
    let Some(seed) = seed else {
        eprintln!("perfbench prepare: usage: prepare --seed N --store DIR");
        return ExitCode::from(2);
    };
    match decompose::prepare(seed, Path::new(store)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench prepare: {e}");
            ExitCode::from(1)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("prepare") {
        return prepare_main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = args
        .work_dir
        .join(format!("run-{}-{}", std::process::id(), args.seed));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        trace: args.trace,
        cli: args.cli.clone(),
        dir: dir.clone(),
        out_dir: args.work_dir.clone(),
    };
    let outcome = run(&args, &ctx);
    remove_dir(&dir);
    match outcome {
        Ok((report, metrics)) => {
            print_result(&report, &metrics);
            if report.incorrect > 0 {
                eprintln!(
                    "perfbench: {} answer(s) disagreed with the oracle",
                    report.incorrect
                );
                ExitCode::from(3)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn remove_dir(dir: &Path) {
    if let Err(e) = std::fs::remove_dir_all(dir) {
        eprintln!("perfbench: cannot remove {}: {e}", dir.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_and_are_checked() {
        let a = parse_args(&argv(
            "--workload query-ranges --seed 7 --seconds 2.5 --trace 1",
        ))
        .expect("valid");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 2.5, true));
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload query-ranges --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv(
            "--workload query-ranges --seed 1 --seconds 0 --trace 0"
        ))
        .is_err());
        assert!(parse_args(&argv(
            "--workload query-ranges --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&argv(
            "--workload query-ranges --seed 1 --seconds 1 --bogus"
        ))
        .is_err());
    }
}
