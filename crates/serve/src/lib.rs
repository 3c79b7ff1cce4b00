//! dtucker-serve: a concurrent query-serving subsystem over stored
//! Tucker artifacts.
//!
//! The crate turns the single-threaded query engine into a small,
//! dependency-free network service: a multi-threaded HTTP/1.1 server —
//! hand-rolled on `std::net`, no async runtime — that loads `.dts`
//! artifacts from an [`ArtifactStore`](dtucker_store::ArtifactStore) and
//! answers element/fiber/slice/range reconstruction and aggregate
//! queries over them.
//!
//! Design commitments, in the order they matter:
//!
//! 1. **Answers are bit-identical to direct engine calls** at every
//!    thread count. Workers pin to per-worker engine shards
//!    ([`dtucker_query::SharedQueryEngine`]); since engine results are
//!    independent of cache state, concurrency is invisible in response
//!    bytes (pinned by integration tests at 1, 2 and 8 threads).
//! 2. **Hostile input cannot take the server down.** Every request
//!    dimension is capped ([`http::Limits`]), stalls hit socket
//!    timeouts, and nothing in the crate panics on bad input.
//! 3. **Overload sheds, it does not queue.** Admission is capped by open
//!    connections; past the cap the acceptor answers `503` +
//!    `Retry-After` at the door.
//! 4. **Keep-alive clients take turns.** A worker serves one request per
//!    turn and idle connections wait with the acceptor, so no client can
//!    hold a worker between requests.
//! 5. **One JSON encoder.** Server responses and
//!    `dtucker-cli query --format json` share [`json::JsonWriter`], so
//!    scripted clients see identical bytes from either front end.
//!
//! The HTTP API and the tuning knobs are documented in DESIGN.md §12.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Crate-level error type and `Result` alias.
pub mod error;
/// Route dispatch: maps parsed requests to engine calls and JSON responses.
pub mod handler;
/// Hand-rolled HTTP/1.1 parsing, limits, and response writing.
pub mod http;
/// The single JSON encoder shared by the server and the CLI.
pub mod json;
/// Request/latency/cache counters and Prometheus text rendering.
pub mod metrics;
/// Listener, worker pool, ready queue and parked set, admission, and
/// graceful drain.
pub mod server;

pub use error::{Result, ServeError};
pub use handler::{handle, App, ServedArtifact};
pub use http::{Limits, Method, Request, Response};
pub use json::JsonWriter;
pub use metrics::Metrics;
pub use server::{load_store_artifacts, ServeConfig, Server, ServerStats};
