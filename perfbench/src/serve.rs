//! `serve-keepalive`: an open-loop load generator with two keep-alive
//! connections against `dtucker-cli serve --threads 1`, run as its own
//! process on the rank-10 traffic artifact.
//!
//! Two clients, one worker: the situation in which a worker that keeps a
//! keep-alive connection for many requests starves the other client.
//! Connection 0 opens first, asks at a quarter of connection 1's rate and
//! ends its session after three quarters of the run; connection 1 runs for
//! the whole run. At a fair server both see every answer within
//! milliseconds.

use crate::check::{answer_matches, expected, parse_answer};
use crate::decompose::{prepare_artifact, ARTIFACT};
use crate::http::{self, Client};
use crate::loadgen::{self, Conn, Sample};
use crate::mix::{schedule, Slot};
use crate::queries::CACHE_BYTES;
use crate::report::{median_scaled, peak_rss_mb, Metrics, Op, Report, Summary};
use crate::trace::Tracer;
use crate::Ctx;
use dtucker_core::TuckerDecomp;
use dtucker_serve::http::{parse_request, write_response, ConnReader};
use dtucker_serve::{handle, App, Limits, ServedArtifact};
use dtucker_store::ArtifactStore;
use dtucker_tensor::dense::DenseTensor;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Each connection's request rate (per second) and session length (as a
/// share of the run). With 35 s runs connection 0 sends 118 requests and
/// connection 1 sends 630. Connection 1's share of the requests is large
/// enough that a server which starves it shows that in the median, and
/// its last quarter-run after connection 0 leaves keeps its on-time share
/// above zero at the seed commit.
pub const CONNS: [(f64, f64); 2] = [(4.5, 0.75), (18.0, 1.0)];
/// A request counts as on time within this many milliseconds of its due
/// time.
pub const DEADLINE_MS: f64 = 50.0;
/// Server worker threads.
const WORKERS: usize = 1;
/// How long the server may take to start, answer, or drain.
const PATIENCE: Duration = Duration::from_secs(15);
/// Requests replayed in-process through the HTTP layer's functions.
const REPLAY: usize = 400;

/// A running `dtucker-cli serve` process; killed if dropped while running.
struct ServerProcess {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl ServerProcess {
    /// Starts the server on a free port and waits until `/health` answers.
    fn start(cli: &Path, store: &Path) -> Result<ServerProcess, String> {
        let mut child = Command::new(cli)
            .arg("serve")
            .arg("--store")
            .arg(store)
            .args(["--addr", "127.0.0.1:0", "--threads", &WORKERS.to_string()])
            .args(["--cache-mb", &(CACHE_BYTES >> 20).to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", cli.display()))?;
        let Some(out) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("server stdout was not captured".into());
        };
        let mut server = ServerProcess {
            child,
            stdout: BufReader::new(out),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        loop {
            line.clear();
            let n = server
                .stdout
                .read_line(&mut line)
                .map_err(|e| format!("reading server output: {e}"))?;
            if n == 0 {
                return Err("server exited before listening".into());
            }
            if let Some(a) = line.trim().strip_prefix("listening on http://") {
                server.addr = a.parse().map_err(|_| format!("bad address '{a}'"))?;
                break;
            }
        }
        let deadline = Instant::now() + PATIENCE;
        loop {
            match http::one_shot(server.addr, "GET", "/health", PATIENCE) {
                Ok(r) if r.status == 200 => return Ok(server),
                _ if Instant::now() > deadline => return Err("server never became healthy".into()),
                _ => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }

    /// Drains the server through `POST /shutdown` and checks that it
    /// exits cleanly in time.
    fn shutdown(mut self) -> Result<(), String> {
        let r = http::one_shot(self.addr, "POST", "/shutdown", PATIENCE)
            .map_err(|e| format!("POST /shutdown: {e}"))?;
        if r.status != 200 {
            return Err(format!("POST /shutdown answered {}", r.status));
        }
        let deadline = Instant::now() + PATIENCE;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    let mut rest = String::new();
                    let _ = self.stdout.read_to_string(&mut rest);
                    return if status.success() {
                        Ok(())
                    } else {
                        Err(format!("server exited with {status}"))
                    };
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("server did not drain in time".into()),
                Err(e) => return Err(format!("waiting for the server: {e}")),
            }
        }
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A counter from the Prometheus text, summed over matching label sets.
fn scrape(text: &str, metric: &str, labels: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| {
            l.strip_prefix(metric).is_some_and(|rest| {
                rest.starts_with(' ') || (rest.starts_with('{') && rest.contains(labels))
            })
        })
        .filter_map(|l| l.rsplit(' ').next().and_then(|v| v.parse::<f64>().ok()))
        .sum()
}

/// An in-memory connection for replaying requests through the server's
/// parse and write functions.
struct MemStream {
    input: std::io::Cursor<Vec<u8>>,
    output: Vec<u8>,
}

impl Read for MemStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.input.read(buf)
    }
}

impl Write for MemStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.output.write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Replays requests through `http::parse_request`, `handler::handle` and
/// `http::write_response` in-process, with a span around each.
fn replay(
    slots: &[&Slot],
    decomp: TuckerDecomp,
    full: &DenseTensor,
    layers: &mut Metrics,
    incorrect: &mut u64,
) -> Result<u64, String> {
    let engine =
        dtucker_query::SharedQueryEngine::new(decomp, 1, CACHE_BYTES).map_err(|e| e.to_string())?;
    let app = App::new(vec![ServedArtifact {
        name: ARTIFACT.into(),
        engine,
    }]);
    let limits = Limits::default();
    let mut tr = Tracer::new(Instant::now());
    let mut bytes = Vec::new();
    let mut failed = 0;
    for (i, slot) in slots.iter().enumerate() {
        let op = i as u64;
        let mut stream = MemStream {
            input: std::io::Cursor::new(http::request("GET", &slot.query.target(ARTIFACT), false)),
            output: Vec::new(),
        };
        let mut reader = ConnReader::new();
        let req = tr
            .span("serve.parse", op, || {
                parse_request(&mut reader, &mut stream, &limits)
            })
            .map_err(|e| format!("replayed request did not parse: {e:?}"))?;
        let (_, resp) = tr.span("serve.handle", op, || handle(&app, 0, &req));
        tr.span("serve.write", op, || {
            write_response(&mut stream.output, &resp, req.keep_alive)
        })
        .map_err(|e| e.to_string())?;
        bytes.push(stream.output.len() as f64);
        let good = resp.status == 200
            && parse_answer(&String::from_utf8_lossy(&resp.body))
                .is_some_and(|a| answer_matches(&a, &expected(full, &slot.query)));
        if !good {
            eprintln!(
                "serve-keepalive: INCORRECT replayed answer to {}",
                slot.query.target(ARTIFACT)
            );
            *incorrect += 1;
            failed += 1;
        }
    }
    layers.set(
        "serve.parse_us",
        median_scaled(&tr.durations("serve.parse"), 1e6),
        "us",
    );
    layers.set(
        "serve.handle_us",
        median_scaled(&tr.durations("serve.handle"), 1e6),
        "us",
    );
    layers.set(
        "serve.write_us",
        median_scaled(&tr.durations("serve.write"), 1e6),
        "us",
    );
    layers.set(
        "serve.response_bytes",
        crate::stats::median(&bytes),
        "bytes",
    );
    Ok(failed)
}

/// Runs the workload: a `seconds`-long schedule, then every outstanding
/// request is waited for.
pub fn run(ctx: &Ctx, seconds: f64, traced: bool) -> Result<Report, String> {
    let cli = ctx
        .cli
        .clone()
        .ok_or("serve-keepalive needs --cli PATH (the dtucker-cli binary)")?;
    let store_dir = ctx.scratch("serve-store")?;
    let rel_error = prepare_artifact(ctx, &store_dir)?;
    let decomp = ArtifactStore::open(&store_dir)
        .and_then(|s| s.load_decomposition(ARTIFACT))
        .map_err(|e| e.to_string())?;
    let full = decomp.reconstruct().map_err(|e| e.to_string())?;

    // Set-up: start the server until it answers /health, several times;
    // every start but the last is drained again.
    let (mut drains, mut drain_failures) = (0u64, 0u64);
    let mut setup = Vec::new();
    let mut server = None;
    for rep in 0..ctx.setup_reps() {
        let t = Instant::now();
        let s = ServerProcess::start(&cli, &store_dir)?;
        setup.push(t.elapsed().as_secs_f64());
        if rep + 1 < ctx.setup_reps() {
            drains += 1;
            if let Err(e) = s.shutdown() {
                eprintln!("serve-keepalive: {e}");
                drain_failures += 1;
            }
        } else {
            server = Some(s);
        }
    }
    let server = server.ok_or("no set-up repetition ran")?;
    let addr = server.addr;

    let schedules: Vec<Vec<Slot>> = CONNS
        .iter()
        .enumerate()
        .map(|(c, &(rate, share))| schedule(ctx.seed, c, full.shape(), rate, seconds * share))
        .collect();
    // Open the connections in order, so connection 0 is served first.
    let mut clients = Vec::new();
    for _ in &schedules {
        clients.push(Client::connect(addr, PATIENCE).map_err(|e| format!("connect: {e}"))?);
    }
    let t0 = Instant::now() + Duration::from_millis(50);
    let give_up = t0 + Duration::from_secs_f64(seconds) + Duration::from_secs(60);
    let mut incorrect = 0u64;
    let results: Vec<(Vec<Sample>, Option<Tracer>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = schedules
            .iter()
            .zip(clients)
            .map(|(slots, client)| {
                let full = &full;
                scope.spawn(move || {
                    let mut wrong = 0u64;
                    let (samples, tracer) = loadgen::run(Conn {
                        addr,
                        client: Some(client),
                        t0,
                        dues: slots.iter().map(|s| s.due).collect(),
                        give_up,
                        request: Box::new(|i| {
                            http::request("GET", &slots[i].query.target(ARTIFACT), false)
                        }),
                        check: Box::new(|i, resp| {
                            let good = parse_answer(&resp.text()).is_some_and(|a| {
                                answer_matches(&a, &expected(full, &slots[i].query))
                            });
                            if !good {
                                eprintln!(
                                    "serve-keepalive: INCORRECT answer to {}",
                                    slots[i].query.target(ARTIFACT)
                                );
                                wrong += 1;
                            }
                            good
                        }),
                        tracer: traced.then(|| Tracer::new(t0)),
                    });
                    (samples, tracer, wrong)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| (Vec::new(), None, 0)))
            .collect()
    });
    let end = results
        .iter()
        .flat_map(|(s, _, _)| s.iter().filter_map(|x| x.latency.map(|l| t0 + x.due + l)))
        .max()
        .unwrap_or(t0);

    let metrics_text = http::one_shot(addr, "GET", "/metrics", PATIENCE)
        .map(|r| r.text())
        .map_err(|e| format!("GET /metrics: {e}"))?;
    let server_rss = peak_rss_mb(&server.child.id().to_string());
    drains += 1;
    if let Err(e) = server.shutdown() {
        eprintln!("serve-keepalive: {e}");
        drain_failures += 1;
    }
    std::fs::remove_dir_all(&store_dir)
        .map_err(|e| format!("remove {}: {e}", store_dir.display()))?;

    let mut ops = Vec::new();
    let mut all = Vec::new();
    for (c, (samples, _, wrong)) in results.iter().enumerate() {
        incorrect += wrong;
        for s in samples {
            ops.push(Op {
                latency_ms: s.latency.map_or(f64::NAN, |l| l.as_secs_f64() * 1e3),
                ok: s.ok,
                client: c,
            });
        }
        all.extend(samples.iter().cloned());
    }
    let requests = ops.len() as u64;
    let failed_requests = ops.iter().filter(|o| !o.ok).count() as u64;
    let summary = Summary {
        ops: &ops,
        attempted: requests,
        clients: CONNS.len(),
        deadline_ms: DEADLINE_MS,
        tail_pct: 90.0,
        busy_s: end.saturating_duration_since(t0).as_secs_f64().max(1e-9),
        setup_s: &setup,
        rel_error,
        peak_rss_mb: server_rss,
    };
    let mut end_to_end = summary.metrics();
    // A server that fails to drain is a failed operation too.
    let ok = (requests - failed_requests + drains - drain_failures) as f64;
    end_to_end.set("ok_frac", ok / (requests + drains) as f64, "ratio");
    println!(
        "serve-keepalive: {} requests on {} connections (rate/s, share of run: {:?}) against \
         {WORKERS} worker, {} failed, {} drains ({} failed)",
        requests,
        CONNS.len(),
        CONNS,
        failed_requests,
        drains,
        drain_failures
    );
    println!("  {}", summary.tail_note());
    let mut report = Report {
        attempted: requests + drains,
        failed: failed_requests + drain_failures,
        incorrect,
        end_to_end,
        layers: Metrics::default(),
    };
    if traced {
        let l = &mut report.layers;
        for (c, (samples, _, _)) in results.iter().enumerate() {
            let n = samples.len() as f64;
            let on_time = samples
                .iter()
                .filter(|s| {
                    s.ok && s
                        .latency
                        .is_some_and(|x| x.as_secs_f64() * 1e3 <= DEADLINE_MS)
                })
                .count() as f64;
            l.set(format!("loadgen.conn{c}.requests"), n, "count");
            l.set(
                format!("loadgen.conn{c}.on_time_frac"),
                on_time / n.max(1.0),
                "ratio",
            );
        }
        l.set("loadgen.late_p99_ms", loadgen::late_p99_ms(&all), "ms");
        let shed = scrape(&metrics_text, "dtucker_shed_total", "");
        let conns = scrape(&metrics_text, "dtucker_connections_total", "");
        let hits = scrape(&metrics_text, "dtucker_cache_events_total", "kind=\"hit\"");
        let misses = scrape(&metrics_text, "dtucker_cache_events_total", "kind=\"miss\"");
        l.set("serve.shed_frac", shed / conns.max(1.0), "ratio");
        l.set(
            "serve.cache_hit_rate",
            hits / (hits + misses).max(1.0),
            "ratio",
        );
        let service = |traced: bool| -> Vec<f64> {
            all.iter()
                .filter(|s| s.traced == traced)
                .filter_map(|s| s.service.map(|d| d.as_secs_f64() * 1e3))
                .collect()
        };
        crate::set_overhead(l, &service(false), &service(true));
        let mut slots: Vec<&Slot> = schedules.iter().flatten().collect();
        slots.sort_by_key(|s| s.due);
        slots.truncate(REPLAY);
        let replay_failed = replay(&slots, decomp, &full, l, &mut report.incorrect);
        let mut spans = Tracer::new(t0);
        for (_, tr, _) in results {
            if let Some(tr) = tr {
                spans.absorb(tr);
            }
        }
        spans
            .write_jsonl(&ctx.trace_path("serve-keepalive"))
            .map_err(|e| e.to_string())?;
        let replay_failed = replay_failed?;
        report.attempted += slots.len() as u64;
        report.failed += replay_failed;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_sums_matching_series() {
        let text = "# HELP x\n\
                    dtucker_shed_total 3\n\
                    dtucker_shed_total_extra 9\n\
                    dtucker_cache_events_total{artifact=\"a\",kind=\"hit\"} 5\n\
                    dtucker_cache_events_total{artifact=\"b\",kind=\"hit\"} 2\n\
                    dtucker_cache_events_total{artifact=\"a\",kind=\"miss\"} 4\n";
        assert_eq!(scrape(text, "dtucker_shed_total", ""), 3.0);
        assert_eq!(
            scrape(text, "dtucker_cache_events_total", "kind=\"hit\""),
            7.0
        );
        assert_eq!(
            scrape(text, "dtucker_cache_events_total", "kind=\"miss\""),
            4.0
        );
    }
}
