//! The server proper: listener, ready queue, parked set, worker pool.
//!
//! Concurrency model:
//!
//! * One **acceptor** (the thread calling [`Server::run`]) wakes every
//!   half millisecond to poll a nonblocking listener and the **parked
//!   set**: the keep-alive connections waiting for their next request.
//!   It admits a new connection while fewer than `threads + max_inflight`
//!   are open (parked, queued or in service); past that cap it answers
//!   `503` with `Retry-After` itself and closes the socket, so load is
//!   shed at the door instead of building an unbounded backlog. A
//!   nonblocking `peek` on each parked socket moves the readable ones to
//!   the **ready queue** and closes those that hung up or sat idle past
//!   `read_timeout`.
//! * `threads` **workers** pop the ready queue and serve exactly one
//!   request per turn, then hand the connection back: straight onto the
//!   ready queue when the next pipelined request is already buffered,
//!   otherwise to the parked set. A worker only reads a socket that has
//!   bytes ready — a fresh connection whose request has not arrived is
//!   parked after one peek — so idle clients cannot hold workers, and
//!   clients that outnumber workers take turns request by request.
//!   Worker `i` passes shard hint `i` to the handler, so its queries pin
//!   to engine shard `i % shard_count` and stay cache-warm (the
//!   [`SharedQueryEngine`] is built with one shard per worker).
//!
//! Graceful drain: `POST /shutdown` (or [`App::begin_drain`]) flips the
//! drain flag. The acceptor stops accepting, queues the parked
//! connections whose next request has already arrived, closes the idle
//! ones and closes the ready queue; workers serve what is queued — every
//! response during drain carries `Connection: close` — then exit, and
//! [`Server::run`] returns final counters. There is no SIGTERM hook:
//! catching signals requires platform code outside std, so process
//! managers should hit `/shutdown` (documented in DESIGN.md §12).

use crate::error::{Result, ServeError};
use crate::handler::{handle, App, ServedArtifact};
use crate::http::{parse_request, write_response, ConnReader, Limits, ParseError, Response};
use dtucker_core::TuckerDecomp;
use dtucker_query::SharedQueryEngine;
use dtucker_store::{ArtifactKind, ArtifactStore};
use std::collections::VecDeque;
use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// How often the acceptor polls the listener and the parked set: the
/// longest a parked connection's next request waits to be noticed.
const TICK: Duration = Duration::from_micros(500);

/// Tunables for one server instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7070` (port 0 picks a free port).
    pub addr: String,
    /// Worker thread count (also the engine shard count per artifact).
    pub threads: usize,
    /// Total query-cache byte budget **per artifact**, split across that
    /// artifact's shards.
    pub cache_bytes: usize,
    /// Open connections allowed beyond `threads`: admission stops at
    /// `threads + max_inflight` connections parked, queued or in
    /// service, and the acceptor sheds the rest with `503`.
    pub max_inflight: usize,
    /// Per-connection socket read timeout: caps how long a single read
    /// may stall, and how long a keep-alive connection may sit idle
    /// between requests before it is closed. The slowloris backstop is
    /// `limits.max_request_duration`, which caps the *whole* request
    /// regardless of per-read progress.
    pub read_timeout: Duration,
    /// Per-connection socket write timeout.
    pub write_timeout: Duration,
    /// Request parsing caps.
    pub limits: Limits,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7070".to_string(),
            threads: 4,
            cache_bytes: 64 << 20,
            max_inflight: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            limits: Limits::default(),
        }
    }
}

/// Final counters returned by [`Server::run`] after drain completes.
#[derive(Debug, Clone, Copy)]
pub struct ServerStats {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Requests answered (any route, any status).
    pub requests: u64,
    /// Connections turned away with `503`.
    pub shed: u64,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// An admitted connection. Its reader travels with it between turns,
/// because pipelined bytes already read into the buffer are invisible
/// to a socket `peek`. Dropping it closes the socket and frees its
/// admission slot.
struct Conn {
    stream: TcpStream,
    reader: ConnReader,
    /// When the connection last started waiting for a request.
    idle_since: Instant,
    open: Arc<AtomicUsize>,
}

impl Conn {
    fn admit(stream: TcpStream, cfg: &ServeConfig, open: &Arc<AtomicUsize>) -> Conn {
        let _ = stream.set_read_timeout(Some(cfg.read_timeout));
        let _ = stream.set_write_timeout(Some(cfg.write_timeout));
        let _ = stream.set_nodelay(true);
        // The count publishes no other data; only the acceptor adds to it.
        open.fetch_add(1, Ordering::Relaxed);
        Conn {
            stream,
            reader: ConnReader::new(),
            idle_since: Instant::now(),
            open: Arc::clone(open),
        }
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        self.open.fetch_sub(1, Ordering::Relaxed);
    }
}

/// What a nonblocking peek saw on a socket.
enum Readiness {
    /// Request bytes are waiting.
    Ready,
    /// Nothing yet.
    Idle,
    /// The peer hung up or the socket failed.
    Gone,
}

/// Peeks one byte of a socket in nonblocking mode.
fn readiness(stream: &TcpStream) -> Readiness {
    match stream.peek(&mut [0u8; 1]) {
        Ok(0) => Readiness::Gone,
        Ok(_) => Readiness::Ready,
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
            Readiness::Idle
        }
        Err(_) => Readiness::Gone,
    }
}

/// MPMC FIFO of connections with a request to read. Admission control
/// bounds how many connections exist, so the queue needs no cap of its
/// own.
struct ReadyQueue {
    inner: Mutex<(VecDeque<Conn>, bool)>,
    ready: Condvar,
}

impl ReadyQueue {
    fn new() -> Self {
        ReadyQueue {
            inner: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
        }
    }

    /// Queues `conn`. Also accepted after [`close`](Self::close): only a
    /// running worker pushes then, and it pops the connection again
    /// before it can see the queue empty.
    fn push(&self, conn: Conn) {
        lock(&self.inner).0.push_back(conn);
        self.ready.notify_one();
    }

    /// Blocks for the next connection; `None` once closed and empty.
    fn pop(&self) -> Option<(Conn, usize)> {
        let mut g = lock(&self.inner);
        loop {
            if let Some(c) = g.0.pop_front() {
                let depth = g.0.len();
                return Some((c, depth));
            }
            if g.1 {
                return None;
            }
            g = self.ready.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Wakes every blocked worker so each exits once the queue is empty.
    fn close(&self) {
        lock(&self.inner).1 = true;
        self.ready.notify_all();
    }
}

/// Servable `(name, decomposition)` pairs plus warnings for skipped files.
pub type LoadedArtifacts = (Vec<(String, TuckerDecomp)>, Vec<String>);

/// Loads every Tucker decomposition in `store`, returning the artifacts
/// ready to serve plus human-readable warnings for `.dts` files that were
/// skipped (foreign/corrupt files, or artifacts of a non-Tucker kind).
/// Callers decide where warnings go — the CLI sends them to stderr so
/// piped JSON stays clean.
pub fn load_store_artifacts(store: &ArtifactStore) -> Result<LoadedArtifacts> {
    let (artifacts, skipped) = store.scan()?;
    let mut out = Vec::new();
    let mut warnings: Vec<String> = skipped
        .iter()
        .map(|(path, reason)| format!("skipping {}: {reason}", path.display()))
        .collect();
    for (name, kind) in artifacts {
        match kind {
            ArtifactKind::Tucker => out.push((name.clone(), store.load_decomposition(&name)?)),
            other => warnings.push(format!("skipping '{name}': not servable (kind {other:?})")),
        }
    }
    Ok((out, warnings))
}

/// A bound listener plus its application state, ready to [`run`](Server::run).
pub struct Server {
    listener: TcpListener,
    cfg: ServeConfig,
    app: Arc<App>,
}

impl Server {
    /// Binds `cfg.addr` and builds one sharded engine per artifact
    /// (shard count = `cfg.threads`, byte budget = `cfg.cache_bytes`).
    pub fn bind(cfg: ServeConfig, artifacts: Vec<(String, TuckerDecomp)>) -> Result<Server> {
        if artifacts.is_empty() {
            return Err(ServeError::Config(
                "no servable artifacts (store holds no Tucker decompositions)".to_string(),
            ));
        }
        let mut cfg = cfg;
        cfg.threads = cfg.threads.max(1);
        cfg.max_inflight = cfg.max_inflight.max(1);
        let mut served = Vec::with_capacity(artifacts.len());
        for (name, decomp) in artifacts {
            served.push(ServedArtifact {
                engine: SharedQueryEngine::new(decomp, cfg.threads, cfg.cache_bytes)?,
                name,
            });
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        Ok(Server {
            listener,
            cfg,
            app: Arc::new(App::new(served)),
        })
    }

    /// The actually-bound address (resolves port 0).
    pub fn local_addr(&self) -> Result<SocketAddr> {
        Ok(self.listener.local_addr()?)
    }

    /// A handle to the shared application state (drain flag, metrics) —
    /// lets embedders trigger [`App::begin_drain`] from outside.
    pub fn app(&self) -> Arc<App> {
        Arc::clone(&self.app)
    }

    /// Serves until drained. Blocks the calling thread (it becomes the
    /// acceptor); returns the lifetime counters once every worker exits.
    pub fn run(self) -> Result<ServerStats> {
        let Server { listener, cfg, app } = self;
        listener.set_nonblocking(true)?;
        let ready = Arc::new(ReadyQueue::new());
        let (park_tx, park_rx) = mpsc::channel::<Conn>();
        let open = Arc::new(AtomicUsize::new(0));
        let cap = cfg.threads + cfg.max_inflight;

        let mut workers = Vec::with_capacity(cfg.threads);
        for i in 0..cfg.threads {
            let app = Arc::clone(&app);
            let ready = Arc::clone(&ready);
            let park_tx = park_tx.clone();
            let cfg = cfg.clone();
            workers.push(std::thread::spawn(move || {
                while let Some((conn, depth)) = ready.pop() {
                    app.metrics.set_queue_depth(depth);
                    if let Some(conn) = serve_turn(&app, i, &cfg, conn) {
                        hand_back(&app, &ready, &park_tx, conn);
                    }
                }
            }));
        }
        drop(park_tx);

        let mut parked: Vec<Conn> = Vec::new();
        let mut failure = None;
        while !app.is_draining() {
            let accepted = match listener.accept() {
                Ok((stream, _peer)) => {
                    app.metrics.record_connection();
                    if open.load(Ordering::Relaxed) < cap {
                        ready.push(Conn::admit(stream, &cfg, &open));
                    } else {
                        shed(&app, stream);
                    }
                    true
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => false,
                Err(e) if e.kind() == ErrorKind::Interrupted => true,
                Err(e) if transient_accept_error(&e) => {
                    // FD exhaustion and aborted handshakes are load
                    // conditions — the very thing a shedding server must
                    // survive. Back off briefly and keep accepting.
                    eprintln!("dtucker-serve: transient accept error: {e}");
                    std::thread::sleep(Duration::from_millis(100));
                    false
                }
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            };
            parked.extend(park_rx.try_iter());
            poll_parked(&mut parked, &ready, cfg.read_timeout);
            app.metrics.set_idle_connections(parked.len());
            if !accepted {
                std::thread::sleep(TICK);
            }
        }

        // Drain: serve the parked connections whose next request already
        // arrived (the drain flag makes those responses close), and close
        // the idle ones.
        for conn in parked.into_iter().chain(park_rx.try_iter()) {
            if matches!(readiness(&conn.stream), Readiness::Ready) {
                ready.push(conn);
            }
        }
        app.metrics.set_idle_connections(0);
        ready.close();
        for w in workers {
            let _ = w.join();
        }
        if let Some(e) = failure {
            return Err(ServeError::Io(e));
        }
        Ok(ServerStats {
            connections: app.metrics.connection_count(),
            requests: app.metrics.request_count(),
            shed: app.metrics.shed_count(),
        })
    }
}

/// Accept errors caused by the peer or by load — aborted handshakes and
/// resource exhaustion (`EMFILE`/`ENFILE`/`ENOBUFS`) — rather than by a
/// broken listener. Shutting down on these would turn an overload spike
/// into an outage, so the accept loop logs and keeps going instead.
fn transient_accept_error(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::ConnectionAborted | ErrorKind::ConnectionReset | ErrorKind::OutOfMemory
    ) || matches!(e.raw_os_error(), Some(23 | 24 | 105)) // ENFILE, EMFILE, ENOBUFS (Linux)
}

/// Answers one over-capacity connection with `503` + `Retry-After` and
/// closes it. Runs on the acceptor, so it must never block on the peer:
/// the write is nonblocking and best-effort — a shed client that refuses
/// to read loses the response body, not the acceptor's time.
fn shed(app: &App, mut stream: TcpStream) {
    app.metrics.record_shed();
    let mut resp = Response::error(503, "server at capacity, retry shortly");
    resp.retry_after = Some(1);
    let mut buf = Vec::new();
    // Writing to a Vec cannot fail.
    let _ = write_response(&mut buf, &resp, false);
    // On a nonblocking socket write_all cannot stall: a full send buffer
    // surfaces as WouldBlock, and the peer simply loses the body.
    let _ = stream.set_nonblocking(true);
    let _ = stream.write_all(&buf);
}

/// Moves the readable parked connections to the ready queue and closes
/// those that hung up or stayed idle for `idle_timeout`.
fn poll_parked(parked: &mut Vec<Conn>, ready: &ReadyQueue, idle_timeout: Duration) {
    let mut i = 0;
    while i < parked.len() {
        match readiness(&parked[i].stream) {
            Readiness::Ready => ready.push(parked.swap_remove(i)),
            Readiness::Idle if parked[i].idle_since.elapsed() < idle_timeout => i += 1,
            _ => drop(parked.swap_remove(i)),
        }
    }
}

/// Returns a kept-alive connection after a worker's turn: a buffered
/// pipelined request goes straight back on the ready queue, anything
/// else waits in the parked set, whose sockets are nonblocking. During
/// drain an idle connection is closed instead.
fn hand_back(app: &App, ready: &ReadyQueue, park: &Sender<Conn>, mut conn: Conn) {
    if conn.reader.has_buffered() {
        ready.push(conn);
    } else if !app.is_draining() && conn.stream.set_nonblocking(true).is_ok() {
        conn.idle_since = Instant::now();
        // A failed send means the acceptor is gone; the connection closes.
        let _ = park.send(conn);
    }
}

/// One worker turn: keeps the in-flight gauge balanced and contains
/// panics. A handler bug must cost one connection, not one worker — a
/// panic escaping to the worker thread would permanently shrink the pool
/// until no requests are served at all. Every lock reachable from here
/// is poison-tolerant, so resuming after a panic is sound. Returns the
/// connection if it stays open.
fn serve_turn(app: &App, worker: usize, cfg: &ServeConfig, conn: Conn) -> Option<Conn> {
    app.metrics.connection_started();
    let outcome = catch_unwind(AssertUnwindSafe(|| serve_one(app, worker, cfg, conn)));
    app.metrics.connection_finished();
    outcome.unwrap_or_else(|_| {
        eprintln!(
            "dtucker-serve: worker {worker} recovered from a panic while serving a connection"
        );
        None
    })
}

/// Serves at most one request on `conn`. A connection with nothing to
/// read yet comes straight back untouched, so the worker never waits for
/// a request that has not started to arrive; once it has, the read and
/// request-duration limits bound the wait.
fn serve_one(app: &App, worker: usize, cfg: &ServeConfig, mut conn: Conn) -> Option<Conn> {
    if !conn.reader.has_buffered() {
        conn.stream.set_nonblocking(true).ok()?;
        match readiness(&conn.stream) {
            Readiness::Ready => {}
            Readiness::Idle => return Some(conn),
            Readiness::Gone => return None,
        }
    }
    conn.stream.set_nonblocking(false).ok()?;
    let stream = &mut conn.stream;
    let keep = match parse_request(&mut conn.reader, stream, &cfg.limits) {
        Ok(req) => {
            let start = Instant::now();
            let (route, resp) = handle(app, worker, &req);
            app.metrics
                .record_request(route, resp.status, start.elapsed());
            let keep = req.keep_alive && !resp.close && !app.is_draining();
            write_response(stream, &resp, keep).is_ok() && keep
        }
        Err(ParseError::Closed | ParseError::Io(_)) => false,
        Err(ParseError::Timeout) => {
            let resp = Response::error(408, "timed out waiting for a complete request");
            app.metrics.record_request("timeout", 408, Duration::ZERO);
            let _ = write_response(stream, &resp, false);
            false
        }
        Err(ParseError::Bad { status, message }) => {
            let resp = Response::error(status, &message);
            app.metrics
                .record_request("parse_error", status, Duration::ZERO);
            let _ = write_response(stream, &resp, false);
            false
        }
    };
    keep.then_some(conn)
}
