//! Server metrics with a Prometheus text exposition.
//!
//! All hot-path instruments are lock-free atomics except the per-route
//! request counter, which sits behind a mutex-protected `BTreeMap` so
//! `/metrics` renders label sets in a deterministic order. Latency is a
//! fixed-bucket cumulative histogram (the standard Prometheus shape), so
//! recording is two atomic adds and an array increment regardless of
//! traffic volume.
//!
//! Engine-side observability (cache hit/miss/eviction counters, per-phase
//! plan/contract/cache timings) lives in the query crate; the renderer
//! here takes those readings as arguments and folds the latency
//! histogram's sum and count into the same
//! [`PhaseProfile`](dtucker_core::PhaseProfile) currency as the
//! `serve.handle` phase via
//! [`PhaseProfile::record_n`](dtucker_core::PhaseProfile::record_n).

use dtucker_core::PhaseProfile;
use dtucker_query::CacheStats;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Upper bounds (seconds) of the latency histogram buckets; an implicit
/// `+Inf` bucket follows the last entry.
pub const LATENCY_BUCKETS: [f64; 14] = [
    0.000_1, 0.000_25, 0.000_5, 0.001, 0.002_5, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
];

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Cumulative fixed-bucket latency histogram.
#[derive(Debug, Default)]
struct Histogram {
    // One non-cumulative counter per bucket in LATENCY_BUCKETS, plus the
    // overflow bucket at the end; cumulated at render time.
    buckets: [AtomicU64; LATENCY_BUCKETS.len() + 1],
    sum_nanos: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn observe(&self, d: Duration) {
        let secs = d.as_secs_f64();
        let idx = LATENCY_BUCKETS
            .iter()
            .position(|&le| secs <= le)
            .unwrap_or(LATENCY_BUCKETS.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(
            d.as_nanos().min(u128::from(u64::MAX)) as u64,
            Ordering::Relaxed,
        );
        self.count.fetch_add(1, Ordering::Relaxed);
    }
}

/// One artifact's cache reading for the exposition, taken from
/// `SharedQueryEngine` at render time.
#[derive(Debug)]
pub struct ArtifactReading {
    /// Artifact name (metric label).
    pub name: String,
    /// Summed cache counters across shards.
    pub stats: CacheStats,
    /// Payload bytes currently held.
    pub used_bytes: usize,
    /// Configured byte budget.
    pub budget_bytes: usize,
}

/// Shared server instrumentation. One instance per server, shared by the
/// acceptor and every worker.
#[derive(Debug, Default)]
pub struct Metrics {
    requests: Mutex<BTreeMap<(String, u16), u64>>,
    latency: Histogram,
    shed_total: AtomicU64,
    connections_total: AtomicU64,
    queue_depth: AtomicU64,
    inflight: AtomicU64,
    idle: AtomicU64,
}

impl Metrics {
    /// A zeroed instrument set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed request: its route label, response status,
    /// and handler latency.
    pub fn record_request(&self, route: &str, status: u16, elapsed: Duration) {
        let mut map = lock(&self.requests);
        *map.entry((route.to_string(), status)).or_insert(0) += 1;
        drop(map);
        self.latency.observe(elapsed);
    }

    /// Records one connection turned away with `503`.
    pub fn record_shed(&self) {
        self.shed_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one accepted connection.
    pub fn record_connection(&self) {
        self.connections_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Sets the gauge of connections waiting for a worker (the ready
    /// queue's depth).
    pub fn set_queue_depth(&self, depth: usize) {
        self.queue_depth.store(depth as u64, Ordering::Relaxed);
    }

    /// Sets the gauge of idle keep-alive connections parked with the
    /// acceptor between requests.
    pub fn set_idle_connections(&self, idle: usize) {
        self.idle.store(idle as u64, Ordering::Relaxed);
    }

    /// Adjusts the in-flight connection gauge by ±1 around each worker
    /// turn (one request on one connection).
    pub fn connection_started(&self) {
        self.inflight.fetch_add(1, Ordering::Relaxed);
    }

    /// See [`Metrics::connection_started`].
    pub fn connection_finished(&self) {
        // Saturating: a stray call can at worst pin the gauge at zero.
        let _ = self
            .inflight
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_sub(1));
    }

    /// Total requests turned away so far.
    pub fn shed_count(&self) -> u64 {
        self.shed_total.load(Ordering::Relaxed)
    }

    /// Total requests recorded so far (any route, any status).
    pub fn request_count(&self) -> u64 {
        self.latency.count.load(Ordering::Relaxed)
    }

    /// Total connections accepted so far.
    pub fn connection_count(&self) -> u64 {
        self.connections_total.load(Ordering::Relaxed)
    }

    /// Renders the Prometheus text exposition. `artifacts` supplies the
    /// per-artifact cache readings and `engine_profile` the merged
    /// per-phase engine timings (the `serve.handle` phase, read from the
    /// latency histogram, is appended automatically).
    pub fn render_prometheus(
        &self,
        artifacts: &[ArtifactReading],
        engine_profile: &PhaseProfile,
    ) -> String {
        let handle_total = Duration::from_nanos(self.latency.sum_nanos.load(Ordering::Relaxed));
        let handle_count = self.latency.count.load(Ordering::Relaxed);
        let mut out = String::new();

        out.push_str("# HELP dtucker_requests_total Requests served, by route and status.\n");
        out.push_str("# TYPE dtucker_requests_total counter\n");
        for ((route, status), count) in lock(&self.requests).iter() {
            out.push_str(&format!(
                "dtucker_requests_total{{route=\"{route}\",status=\"{status}\"}} {count}\n"
            ));
        }

        out.push_str("# HELP dtucker_request_seconds Handler latency.\n");
        out.push_str("# TYPE dtucker_request_seconds histogram\n");
        let mut cumulative = 0u64;
        for (i, le) in LATENCY_BUCKETS.iter().enumerate() {
            cumulative += self.latency.buckets[i].load(Ordering::Relaxed);
            out.push_str(&format!(
                "dtucker_request_seconds_bucket{{le=\"{le}\"}} {cumulative}\n"
            ));
        }
        cumulative += self.latency.buckets[LATENCY_BUCKETS.len()].load(Ordering::Relaxed);
        out.push_str(&format!(
            "dtucker_request_seconds_bucket{{le=\"+Inf\"}} {cumulative}\n"
        ));
        out.push_str(&format!(
            "dtucker_request_seconds_sum {}\n",
            handle_total.as_secs_f64()
        ));
        out.push_str(&format!("dtucker_request_seconds_count {handle_count}\n"));

        out.push_str("# HELP dtucker_shed_total Connections turned away with 503.\n");
        out.push_str("# TYPE dtucker_shed_total counter\n");
        out.push_str(&format!("dtucker_shed_total {}\n", self.shed_count()));

        out.push_str("# HELP dtucker_connections_total Connections accepted.\n");
        out.push_str("# TYPE dtucker_connections_total counter\n");
        out.push_str(&format!(
            "dtucker_connections_total {}\n",
            self.connections_total.load(Ordering::Relaxed)
        ));

        out.push_str("# HELP dtucker_accept_queue_depth Connections waiting for a worker.\n");
        out.push_str("# TYPE dtucker_accept_queue_depth gauge\n");
        out.push_str(&format!(
            "dtucker_accept_queue_depth {}\n",
            self.queue_depth.load(Ordering::Relaxed)
        ));

        out.push_str("# HELP dtucker_inflight_connections Connections currently being served.\n");
        out.push_str("# TYPE dtucker_inflight_connections gauge\n");
        out.push_str(&format!(
            "dtucker_inflight_connections {}\n",
            self.inflight.load(Ordering::Relaxed)
        ));

        out.push_str(
            "# HELP dtucker_idle_connections Keep-alive connections parked between requests.\n",
        );
        out.push_str("# TYPE dtucker_idle_connections gauge\n");
        out.push_str(&format!(
            "dtucker_idle_connections {}\n",
            self.idle.load(Ordering::Relaxed)
        ));

        out.push_str(
            "# HELP dtucker_cache_events_total Query-cache events, by artifact and kind.\n",
        );
        out.push_str("# TYPE dtucker_cache_events_total counter\n");
        for a in artifacts {
            for (kind, v) in [
                ("hit", a.stats.hits),
                ("miss", a.stats.misses),
                ("insert", a.stats.insertions),
                ("evict", a.stats.evictions),
            ] {
                out.push_str(&format!(
                    "dtucker_cache_events_total{{artifact=\"{}\",kind=\"{kind}\"}} {v}\n",
                    a.name
                ));
            }
        }
        out.push_str("# HELP dtucker_cache_bytes Query-cache bytes, by artifact.\n");
        out.push_str("# TYPE dtucker_cache_bytes gauge\n");
        for a in artifacts {
            out.push_str(&format!(
                "dtucker_cache_bytes{{artifact=\"{}\",kind=\"used\"}} {}\n",
                a.name, a.used_bytes
            ));
            out.push_str(&format!(
                "dtucker_cache_bytes{{artifact=\"{}\",kind=\"budget\"}} {}\n",
                a.name, a.budget_bytes
            ));
        }

        let mut profile = engine_profile.clone();
        profile.record_n("serve.handle", handle_total, handle_count);
        out.push_str("# HELP dtucker_phase_seconds_total Accumulated per-phase wall clock.\n");
        out.push_str("# TYPE dtucker_phase_seconds_total counter\n");
        for (name, d, count) in profile.phases() {
            out.push_str(&format!(
                "dtucker_phase_seconds_total{{phase=\"{name}\"}} {}\n",
                d.as_secs_f64()
            ));
            out.push_str(&format!(
                "dtucker_phase_calls_total{{phase=\"{name}\"}} {count}\n"
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_renders() {
        let m = Metrics::new();
        m.record_request("q_range", 200, Duration::from_micros(300));
        m.record_request("q_range", 200, Duration::from_micros(800));
        m.record_request("metrics", 200, Duration::from_micros(50));
        m.record_request("q_range", 400, Duration::from_millis(1));
        m.record_shed();
        m.record_connection();
        m.set_queue_depth(3);
        m.connection_started();
        m.set_idle_connections(2);
        assert_eq!(m.request_count(), 4);
        assert_eq!(m.shed_count(), 1);

        let reading = ArtifactReading {
            name: "demo".into(),
            stats: CacheStats {
                hits: 5,
                misses: 2,
                insertions: 2,
                evictions: 1,
            },
            used_bytes: 4096,
            budget_bytes: 1 << 20,
        };
        let mut engine = PhaseProfile::new();
        engine.record("contract", Duration::from_millis(2));
        let text = m.render_prometheus(&[reading], &engine);

        assert!(text.contains("dtucker_requests_total{route=\"q_range\",status=\"200\"} 2\n"));
        assert!(text.contains("dtucker_requests_total{route=\"q_range\",status=\"400\"} 1\n"));
        assert!(text.contains("dtucker_request_seconds_count 4\n"));
        assert!(text.contains("dtucker_request_seconds_bucket{le=\"+Inf\"} 4\n"));
        assert!(text.contains("dtucker_shed_total 1\n"));
        assert!(text.contains("dtucker_connections_total 1\n"));
        assert!(text.contains("dtucker_accept_queue_depth 3\n"));
        assert!(text.contains("dtucker_inflight_connections 1\n"));
        assert!(text.contains("dtucker_idle_connections 2\n"));
        assert!(text.contains("dtucker_cache_events_total{artifact=\"demo\",kind=\"hit\"} 5\n"));
        assert!(text.contains("dtucker_cache_bytes{artifact=\"demo\",kind=\"used\"} 4096\n"));
        assert!(text.contains("dtucker_phase_seconds_total{phase=\"contract\"}"));
        assert!(text.contains("dtucker_phase_calls_total{phase=\"serve.handle\"} 4\n"));

        m.connection_finished();
        m.connection_finished(); // extra call saturates at zero
        let text = m.render_prometheus(&[], &PhaseProfile::new());
        assert!(text.contains("dtucker_inflight_connections 0\n"));
    }

    #[test]
    fn handle_phase_is_the_latency_histogram() {
        let m = Metrics::new();
        for micros in [123, 4_567, 89_012, 1_000_001] {
            m.record_request("q_range", 200, Duration::from_nanos(micros * 1_000 + 7));
        }
        let text = m.render_prometheus(&[], &PhaseProfile::new());
        let value = |prefix: &str| {
            let line = text.lines().find(|l| l.starts_with(prefix)).unwrap();
            line[prefix.len()..].to_string()
        };
        let sum = value("dtucker_request_seconds_sum ");
        assert_eq!(sum, "1.093703028");
        assert_eq!(
            value("dtucker_phase_seconds_total{phase=\"serve.handle\"} "),
            sum
        );
        assert_eq!(value("dtucker_request_seconds_count "), "4");
        assert_eq!(
            value("dtucker_phase_calls_total{phase=\"serve.handle\"} "),
            "4"
        );
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let m = Metrics::new();
        m.record_request("h", 200, Duration::from_secs(10)); // lands in +Inf
        m.record_request("h", 200, Duration::from_nanos(10)); // first bucket
        let text = m.render_prometheus(&[], &PhaseProfile::new());
        assert!(
            text.contains("dtucker_request_seconds_bucket{le=\"0.0001\"} 1\n"),
            "{text}"
        );
        assert!(text.contains("dtucker_request_seconds_bucket{le=\"2.5\"} 1\n"));
        assert!(text.contains("dtucker_request_seconds_bucket{le=\"+Inf\"} 2\n"));
    }
}
