//! Experiment E12 — closed-loop load test of the HTTP serving subsystem.
//!
//! Decomposes a dataset, then starts `dtucker-serve` in-process and
//! drives it with N closed-loop clients (each client sends one request
//! over a keep-alive connection, waits for the full response, repeats)
//! for a fixed window per configuration. Sweeps worker thread counts at a
//! fixed admission cap, then admission caps at a fixed thread count, and
//! reports throughput, p50/p99/max latency, requests per client, and the
//! shed rate for each combination. Per-client counts and the maximum show
//! starvation that a pooled percentile hides: a client that waits the
//! whole window contributes one sample or none. Every response body is
//! checked against the expected prefix from the shared JSON encoder, so
//! correctness rides along with the numbers. Raw results go to
//! `BENCH_serve.json` at the repo root.
//!
//! Usage: `cargo run -p dtucker-bench --release --bin exp_serve --
//!         [--scale ci|bench|paper] [--rank J] [--seed S] [--dataset NAME]
//!         [--clients N] [--duration-ms MS] [--json PATH]`

use dtucker_bench::{Args, Table};
use dtucker_core::{DTucker, DTuckerConfig, TuckerDecomp};
use dtucker_data::{generate, parse_scale, Dataset, Scale};
use dtucker_serve::{ServeConfig, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

struct Measurement {
    threads: usize,
    max_inflight: usize,
    clients: usize,
    requests: u64,
    per_client: Vec<u64>,
    shed: u64,
    throughput_rps: f64,
    p50: Duration,
    p99: Duration,
    max: Duration,
}

impl Measurement {
    /// Requests answered per client, joined by `sep`.
    fn per_client(&self, sep: &str) -> String {
        self.per_client
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(sep)
    }
}

/// Reads one HTTP response frame (headers + Content-Length body) off a
/// keep-alive connection. Returns the body, or None if the peer closed.
fn read_response(s: &mut TcpStream) -> Option<(u16, String)> {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        match s.read(&mut byte) {
            Ok(1) => head.push(byte[0]),
            _ => return None,
        }
    }
    let head = String::from_utf8_lossy(&head).to_string();
    let status: u16 = head.split(' ').nth(1)?.parse().ok()?;
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))?
        .trim()
        .parse()
        .ok()?;
    let mut body = vec![0u8; len];
    s.read_exact(&mut body).ok()?;
    Some((status, String::from_utf8_lossy(&body).to_string()))
}

/// One closed-loop client: request, wait, repeat until the deadline.
/// Returns per-request latencies and the number of shed (503) answers.
fn client_loop(addr: SocketAddr, specs: &[String], deadline: Instant) -> (Vec<Duration>, u64) {
    let mut latencies = Vec::new();
    let mut shed = 0u64;
    let mut conn: Option<TcpStream> = None;
    let mut i = 0usize;
    while Instant::now() < deadline {
        let s = match &mut conn {
            Some(s) => s,
            None => match TcpStream::connect(addr) {
                Ok(s) => {
                    s.set_read_timeout(Some(Duration::from_secs(10))).ok();
                    s.set_nodelay(true).ok();
                    conn.insert(s)
                }
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                }
            },
        };
        let spec = &specs[i % specs.len()];
        i += 1;
        let t0 = Instant::now();
        let req = format!("GET /q/demo?range={spec} HTTP/1.1\r\n\r\n");
        if s.write_all(req.as_bytes()).is_err() {
            conn = None;
            continue;
        }
        match read_response(s) {
            Some((200, body)) => {
                latencies.push(t0.elapsed());
                assert!(
                    body.starts_with(&format!("{{\"spec\":\"{spec}\"")),
                    "unexpected body for '{spec}': {body}"
                );
            }
            Some((503, _)) => {
                shed += 1;
                conn = None;
                std::thread::sleep(Duration::from_millis(1));
            }
            _ => conn = None,
        }
    }
    (latencies, shed)
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Runs one (threads, max_inflight) configuration for `window`.
fn run_combo(
    d: &TuckerDecomp,
    threads: usize,
    max_inflight: usize,
    clients: usize,
    window: Duration,
    specs: &[String],
) -> Measurement {
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        threads,
        max_inflight,
        ..ServeConfig::default()
    };
    let server = Server::bind(cfg, vec![("demo".to_string(), d.clone())]).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let app = server.app();
    let handle = std::thread::spawn(move || server.run().expect("server run"));

    let deadline = Instant::now() + window;
    let t0 = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let specs: Vec<String> = specs
                .iter()
                .cloned()
                .cycle()
                .skip(c)
                .take(specs.len())
                .collect();
            std::thread::spawn(move || client_loop(addr, &specs, deadline))
        })
        .collect();
    let mut latencies = Vec::new();
    let mut per_client = Vec::with_capacity(clients);
    let mut shed = 0u64;
    for w in workers {
        let (l, s) = w.join().expect("client thread");
        per_client.push(l.len() as u64);
        latencies.extend(l);
        shed += s;
    }
    let elapsed = t0.elapsed();
    app.begin_drain();
    let stats = handle.join().expect("server thread");

    latencies.sort();
    Measurement {
        threads,
        max_inflight,
        clients,
        requests: latencies.len() as u64,
        per_client,
        shed: shed.max(stats.shed),
        throughput_rps: latencies.len() as f64 / elapsed.as_secs_f64(),
        p50: percentile(&latencies, 0.50),
        p99: percentile(&latencies, 0.99),
        max: latencies.last().copied().unwrap_or_default(),
    }
}

fn main() {
    let args = Args::capture();
    let scale = args
        .get("scale")
        .map(|s| parse_scale(s).expect("bad --scale"))
        .unwrap_or(Scale::Ci);
    let rank: usize = args.get_or("rank", 5);
    let seed: u64 = args.get_or("seed", 0);
    let clients: usize = args.get_or("clients", 4);
    let duration_ms: u64 = args.get_or(
        "duration-ms",
        if matches!(scale, Scale::Ci) {
            1000
        } else {
            2000
        },
    );
    let json_path = args.get("json").unwrap_or("BENCH_serve.json").to_string();
    let ds = args
        .get("dataset")
        .map(|n| Dataset::parse(n).expect("unknown --dataset"))
        .unwrap_or(Dataset::Boats);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let x = generate(ds, scale, seed).expect("dataset generation failed");
    let rank = rank.min(*x.shape().iter().min().expect("non-empty shape"));
    let cfg = DTuckerConfig::uniform(rank, x.order()).with_seed(seed);
    let d = DTucker::new(cfg)
        .decompose(&x)
        .expect("decomposition failed")
        .decomposition;
    let shape = d.full_shape();

    // A mix of range sizes, all safely inside the tensor.
    let specs: Vec<String> = vec![
        shape
            .iter()
            .map(|_| "0".to_string())
            .collect::<Vec<_>>()
            .join(","),
        shape
            .iter()
            .map(|&n| format!("0:{}", (n / 4).max(1)))
            .collect::<Vec<_>>()
            .join(","),
        shape
            .iter()
            .map(|&n| format!("{}:{}", n / 4, (n / 4 + (n / 2).max(1)).min(n)))
            .collect::<Vec<_>>()
            .join(","),
    ];

    println!(
        "## E12: closed-loop serving on '{}' ({shape:?}, ranks {:?}; {clients} clients, {duration_ms} ms per combo)",
        ds.name(),
        d.ranks()
    );
    println!();

    // Thread sweep at a roomy admission cap, then cap sweep at a fixed
    // thread count (a cap of 1 forces visible shedding under 4 clients).
    let combos: Vec<(usize, usize)> = vec![(1, 64), (2, 64), (4, 64), (2, 8), (2, 1)];
    let window = Duration::from_millis(duration_ms);

    let mut table = Table::new(&[
        "threads",
        "inflight",
        "requests",
        "rps",
        "p50_ms",
        "p99_ms",
        "max_ms",
        "per_client",
        "shed",
        "shed_rate",
    ])
    .with_csv("e12_serve");
    let mut runs = Vec::new();
    for (threads, max_inflight) in combos {
        let m = run_combo(&d, threads, max_inflight, clients, window, &specs);
        table.row(&[
            m.threads.to_string(),
            m.max_inflight.to_string(),
            m.requests.to_string(),
            format!("{:.0}", m.throughput_rps),
            format!("{:.3}", m.p50.as_secs_f64() * 1e3),
            format!("{:.3}", m.p99.as_secs_f64() * 1e3),
            format!("{:.3}", m.max.as_secs_f64() * 1e3),
            m.per_client("/"),
            m.shed.to_string(),
            format!("{:.4}", m.shed as f64 / (m.requests + m.shed).max(1) as f64),
        ]);
        runs.push(m);
    }
    table.print();

    write_json(
        &json_path,
        ds.name(),
        &shape,
        d.ranks(),
        seed,
        cores,
        clients,
        window,
        &runs,
    );
    println!("\nWrote {json_path}");
    println!("Expected shape: throughput flat or rising with threads (on multi-core");
    println!("hardware), every admitted client served about equally at every thread");
    println!("count, and the inflight=1 row (3 open connections for 4 clients)");
    println!("shedding the client it cannot admit instead of queueing without bound.");

    // The serving claims this experiment pins: the server answers under
    // load, and a tight admission cap sheds rather than stalls.
    assert!(
        runs.iter().all(|m| m.requests > 0),
        "every configuration must serve requests"
    );
}

/// Hand-rolled JSON (the offline crate set has no serde), matching the
/// other `BENCH_*.json` top-level schemas.
#[allow(clippy::too_many_arguments)]
fn write_json(
    path: &str,
    dataset: &str,
    shape: &[usize],
    ranks: &[usize],
    seed: u64,
    cores: usize,
    clients: usize,
    window: Duration,
    runs: &[Measurement],
) {
    let fmt_list = |v: &[usize]| {
        v.iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"experiment\": \"e12_serve\",\n");
    s.push_str(&format!("  \"dataset\": \"{dataset}\",\n"));
    s.push_str(&format!("  \"shape\": [{}],\n", fmt_list(shape)));
    s.push_str(&format!("  \"ranks\": [{}],\n", fmt_list(ranks)));
    s.push_str(&format!("  \"seed\": {seed},\n"));
    s.push_str(&format!("  \"hardware_threads\": {cores},\n"));
    s.push_str(&format!("  \"clients\": {clients},\n"));
    s.push_str(&format!("  \"window_s\": {:.3},\n", window.as_secs_f64()));
    s.push_str("  \"runs\": [\n");
    for (i, m) in runs.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"threads\": {}, \"max_inflight\": {}, \"clients\": {}, \"requests\": {}, \
             \"per_client_requests\": [{}], \"throughput_rps\": {:.1}, \"p50_ms\": {:.4}, \
             \"p99_ms\": {:.4}, \"max_ms\": {:.4}, \"shed\": {}, \"shed_rate\": {:.4}}}{}\n",
            m.threads,
            m.max_inflight,
            m.clients,
            m.requests,
            m.per_client(", "),
            m.throughput_rps,
            m.p50.as_secs_f64() * 1e3,
            m.p99.as_secs_f64() * 1e3,
            m.max.as_secs_f64() * 1e3,
            m.shed,
            m.shed as f64 / (m.requests + m.shed).max(1) as f64,
            if i + 1 == runs.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    dtucker_core::fsutil::atomic_write_str(path, &s).expect("writing BENCH_serve.json");
}
