//! Tests for the serving surface. Subprocess tests of `dtucker-cli`:
//! `list` (stdout must stay a clean JSON document while warnings go to
//! stderr), `query --format json` (shared encoder with the server), and a
//! full `serve` session over TCP ending in a graceful drain. In-process
//! tests of the server's keep-alive scheduling: clients that outnumber
//! workers, idle connections, and pipelined requests must all be served
//! promptly and in order.

use dtucker::core::PhaseProfile;
use dtucker::serve::json::render_result;
use dtucker::serve::{App, ServeConfig, Server, ServerStats};
use dtucker::{QueryEngine, Range, TuckerDecomp};
use dtucker_tensor::random::random_tucker;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const CLI: &str = env!("CARGO_BIN_EXE_dtucker-cli");

fn decomp(seed: u64) -> TuckerDecomp {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = random_tucker(&[7, 6, 5], &[2, 2, 3], &mut rng).unwrap();
    TuckerDecomp {
        core: m.core,
        factors: m.factors,
    }
}

/// A fresh store directory holding one valid decomposition named `demo`
/// and one junk `.dts` file that every scan must skip with a warning.
fn store_with_junk(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dtucker_serving_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dtucker::store::write_decomposition(dir.join("demo.dts"), &decomp(21)).unwrap();
    std::fs::write(dir.join("junk.dts"), b"not a dtucker artifact at all").unwrap();
    dir
}

#[test]
fn list_keeps_stdout_clean_json_despite_junk_files() {
    let dir = store_with_junk("list");
    let out = Command::new(CLI)
        .args(["list", "--store", dir.to_str().unwrap(), "--format", "json"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    // stdout is exactly one JSON document — the junk file's warning must
    // not corrupt it.
    assert_eq!(
        stdout.trim(),
        "{\"artifacts\":[{\"name\":\"demo\",\"kind\":\"tucker\"}]}"
    );
    assert!(stderr.contains("warning: skipping"), "{stderr}");
    assert!(stderr.contains("junk.dts"), "{stderr}");

    // Text mode warns on stderr too.
    let out = Command::new(CLI)
        .args(["list", "--store", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("demo  tucker"), "{stdout}");
    assert!(!stdout.contains("warning"), "{stdout}");
    assert!(String::from_utf8(out.stderr).unwrap().contains("junk.dts"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn query_json_shares_the_server_encoding() {
    let dir = store_with_junk("qjson");
    let artifact = dir.join("demo.dts");
    let mut engine = QueryEngine::open(&artifact).unwrap();

    // Element query: stdout is {"results":[<render_result bytes>]}.
    let spec = "1,2,3";
    let r = Range::parse(spec, &[7, 6, 5]).unwrap();
    let want = render_result(spec, &engine.query(&r).unwrap());
    let out = Command::new(CLI)
        .args([
            "query",
            "--decomp",
            artifact.to_str().unwrap(),
            "--at",
            spec,
            "--format",
            "json",
            "--verify",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(stdout.trim(), format!("{{\"results\":[{want}]}}"));
    // --verify chatter lands on stderr, not in the document.
    assert!(String::from_utf8(out.stderr).unwrap().contains("verify"));

    // Aggregates use the shared aggregate shape.
    let out = Command::new(CLI)
        .args([
            "query",
            "--decomp",
            artifact.to_str().unwrap(),
            "--range",
            ":,:,:",
            "--agg",
            "sum",
            "--format",
            "json",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let sum = engine
        .sum(&Range::parse(":,:,:", &[7, 6, 5]).unwrap())
        .unwrap();
    assert_eq!(
        stdout.trim(),
        format!("{{\"results\":[{{\"spec\":\":,:,:\",\"agg\":\"sum\",\"value\":{sum}}}]}}")
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_session_end_to_end() {
    let dir = store_with_junk("serve");
    let mut child = Command::new(CLI)
        .args([
            "serve",
            "--store",
            dir.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--threads",
            "2",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();

    // Parse the bound address off the child's stdout.
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    let mut addr = None;
    let mut banner = String::new();
    for _ in 0..10 {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap() == 0 {
            break;
        }
        banner.push_str(&line);
        if let Some(rest) = line.trim().strip_prefix("listening on http://") {
            addr = Some(rest.to_string());
            break;
        }
    }
    let addr = addr.unwrap_or_else(|| panic!("no listening line in:\n{banner}"));
    assert!(banner.contains("serving     demo"), "{banner}");

    let roundtrip = |raw: String| -> String {
        let mut s = TcpStream::connect(&addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(raw.as_bytes()).unwrap();
        let mut out = Vec::new();
        s.read_to_end(&mut out).unwrap();
        String::from_utf8(out).unwrap()
    };

    // Element answer matches the direct engine through the shared encoder.
    let mut engine = QueryEngine::open(dir.join("demo.dts")).unwrap();
    let r = Range::parse("2,3,4", &[7, 6, 5]).unwrap();
    let want = render_result("2,3,4", &engine.query(&r).unwrap());
    let resp = roundtrip("GET /q/demo?at=2,3,4 HTTP/1.1\r\nConnection: close\r\n\r\n".into());
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    assert!(resp.ends_with(&want), "{resp}");

    // Batch and metrics answer too.
    let resp = roundtrip(
        "POST /q/demo/batch HTTP/1.1\r\nConnection: close\r\nContent-Length: 12\r\n\r\n2,3,4\n0,0,0\n"
            .into(),
    );
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    assert!(resp.contains("\"results\":["), "{resp}");
    let resp = roundtrip("GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n".into());
    assert!(resp.contains("dtucker_requests_total"), "{resp}");

    // Graceful drain: the process exits cleanly after /shutdown.
    let resp = roundtrip("POST /shutdown HTTP/1.1\r\nConnection: close\r\n\r\n".into());
    assert!(resp.contains("{\"draining\":true}"), "{resp}");
    let status = child.wait().unwrap();
    assert!(status.success());
    let mut rest = String::new();
    reader.read_to_string(&mut rest).unwrap();
    assert!(rest.contains("drained"), "{rest}");
    std::fs::remove_dir_all(&dir).ok();
}

/// An in-process server on a free port, serving `decomp(21)` as `demo`.
struct Running {
    addr: SocketAddr,
    app: Arc<App>,
    handle: JoinHandle<ServerStats>,
}

impl Running {
    fn start(threads: usize) -> Running {
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads,
            ..ServeConfig::default()
        };
        let server = Server::bind(cfg, vec![("demo".to_string(), decomp(21))]).unwrap();
        let addr = server.local_addr().unwrap();
        let app = server.app();
        let handle = std::thread::spawn(move || server.run().unwrap());
        Running { addr, app, handle }
    }

    /// A keep-alive client whose reads give up after 2 s, well inside the
    /// server's 5 s idle timeout, so a starved request fails the test
    /// instead of being rescued by that timeout.
    fn connect(&self) -> TcpStream {
        let s = TcpStream::connect(self.addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        s
    }

    /// Current value of a gauge, read in-process so that no request of
    /// the test's own is in flight.
    fn gauge(&self, name: &str) -> u64 {
        let text = self
            .app
            .metrics
            .render_prometheus(&[], &PhaseProfile::new());
        text.lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("no {name} in:\n{text}"))
            .parse()
            .unwrap()
    }

    /// Waits up to 2 s for `gauge(name) == want`.
    fn await_gauge(&self, name: &str, want: u64) {
        let deadline = Instant::now() + Duration::from_secs(2);
        while self.gauge(name) != want {
            assert!(
                Instant::now() < deadline,
                "{name} stuck at {} (want {want})",
                self.gauge(name)
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn stop(self) {
        self.app.begin_drain();
        self.handle.join().unwrap();
    }
}

fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\n\r\n").into_bytes()
}

/// Reads one response frame off a keep-alive connection and returns its
/// status and body.
fn read_response(s: &mut TcpStream) -> (u16, String) {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        let n = s.read(&mut byte).expect("response did not arrive in time");
        assert_eq!(n, 1, "EOF inside headers");
        head.push(byte[0]);
    }
    let head = String::from_utf8(head).unwrap();
    let status = head.split(' ').nth(1).unwrap().parse().unwrap();
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .unwrap()
        .trim()
        .parse()
        .unwrap();
    let mut body = vec![0u8; len];
    s.read_exact(&mut body).unwrap();
    (status, String::from_utf8(body).unwrap())
}

/// The server's answer to `GET /q/demo?at=SPEC`.
fn element(spec: &str) -> String {
    let mut engine = QueryEngine::new(decomp(21)).unwrap();
    let r = Range::parse(spec, &[7, 6, 5]).unwrap();
    render_result(spec, &engine.query(&r).unwrap())
}

#[test]
fn keep_alive_clients_take_turns_on_one_worker() {
    let server = Running::start(1);
    let stop = AtomicBool::new(false);
    let (started_tx, started_rx) = mpsc::channel();
    let want = element("1,2,3");
    std::thread::scope(|scope| {
        // A client that keeps the only worker busy with back-to-back
        // requests until the other client is done.
        let busy = scope.spawn(|| {
            let mut s = server.connect();
            let mut served = 0u64;
            while !stop.load(Ordering::Relaxed) {
                s.write_all(&get("/health")).unwrap();
                assert_eq!(read_response(&mut s).0, 200);
                served += 1;
                if served == 1 {
                    started_tx.send(()).unwrap();
                }
            }
            served
        });
        started_rx.recv().unwrap();
        let mut s = server.connect();
        let mut worst = Duration::ZERO;
        for _ in 0..10 {
            let t = Instant::now();
            s.write_all(&get("/q/demo?at=1,2,3")).unwrap();
            let (status, body) = read_response(&mut s);
            worst = worst.max(t.elapsed());
            assert_eq!((status, body.as_str()), (200, want.as_str()));
            // A pause long enough for the connection to be parked
            // between requests.
            std::thread::sleep(Duration::from_millis(20));
        }
        stop.store(true, Ordering::Relaxed);
        assert!(busy.join().unwrap() > 1);
        assert!(
            worst < Duration::from_millis(200),
            "slowest answer {worst:?}"
        );
    });
    server.stop();
}

#[test]
fn idle_keep_alive_connections_cannot_hold_the_pool() {
    let threads = 2;
    let server = Running::start(threads);
    // threads + 1 idle connections: some finished a request and stay
    // open, the rest never sent anything.
    let mut idle = Vec::new();
    for i in 0..=threads {
        let mut s = server.connect();
        if i < threads {
            s.write_all(&get("/health")).unwrap();
            assert_eq!(read_response(&mut s).0, 200);
        }
        idle.push(s);
    }
    let t = Instant::now();
    let mut fresh = server.connect();
    fresh.write_all(&get("/health")).unwrap();
    assert_eq!(read_response(&mut fresh).0, 200);
    assert!(
        t.elapsed() < Duration::from_millis(500),
        "took {:?}",
        t.elapsed()
    );
    drop(idle);
    server.stop();
}

#[test]
fn pipelined_requests_survive_the_hand_off() {
    // Each connection's requests arrive in one write, so after the first
    // answer the rest sit in the server's read buffer, where a socket
    // peek cannot see them. Two connections on one worker make the
    // connections change hands between answers.
    let server = Running::start(1);
    let specs = ["0,0,0", "1,2,3", "6,5,4"];
    let mut conns: Vec<TcpStream> = (0..2).map(|_| server.connect()).collect();
    for s in &mut conns {
        let burst: Vec<u8> = specs
            .iter()
            .flat_map(|spec| get(&format!("/q/demo?at={spec}")))
            .collect();
        s.write_all(&burst).unwrap();
    }
    for s in &mut conns {
        for spec in specs {
            assert_eq!(read_response(s), (200, element(spec)), "{spec}");
        }
    }
    server.stop();
}

#[test]
fn connection_gauges_return_to_zero_after_clients_leave() {
    let server = Running::start(2);
    let mut clients: Vec<TcpStream> = (0..3).map(|_| server.connect()).collect();
    for s in &mut clients {
        s.write_all(&get("/health")).unwrap();
        assert_eq!(read_response(s).0, 200);
    }
    server.await_gauge("dtucker_idle_connections", 3);
    server.await_gauge("dtucker_inflight_connections", 0);
    drop(clients);
    server.await_gauge("dtucker_idle_connections", 0);
    assert_eq!(server.gauge("dtucker_inflight_connections"), 0);
    server.stop();
}
