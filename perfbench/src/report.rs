//! Metric collection and the end-to-end summary shared by the workloads.

use crate::stats::percentile;
use std::collections::BTreeMap;

/// Named metrics with their units, in name order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Sets `name` to `value` in `unit`.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    /// Copies every metric of `other` that is not already set.
    pub fn fill_from(&mut self, other: &Metrics) {
        for (k, v) in &other.0 {
            self.0.entry(k.clone()).or_insert(*v);
        }
    }
}

/// One measured operation: a decomposition, a query, or a request.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Latency in milliseconds (for open-loop requests: from due time).
    pub latency_ms: f64,
    /// Completed without error and its answer checked correct.
    pub ok: bool,
    /// The client (connection) that issued it.
    pub client: usize,
}

/// What one workload pass measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: errors, refusals, wrong answers, or no
    /// answer at all.
    pub failed: u64,
    /// Answers that came back but disagreed with the oracle.
    pub incorrect: u64,
    /// End-to-end metrics.
    pub end_to_end: Metrics,
    /// Per-layer metrics (traced passes only).
    pub layers: Metrics,
}

/// Inputs of the end-to-end summary that every workload reports.
#[derive(Debug)]
pub struct Summary<'a> {
    /// Every attempted operation that got an outcome.
    pub ops: &'a [Op],
    /// Operations attempted (≥ `ops.len()`; the rest never completed).
    pub attempted: u64,
    /// Number of clients issuing operations.
    pub clients: usize,
    /// Latency limit for an operation to count as on time, ms.
    pub deadline_ms: f64,
    /// The percentile reported as `tail_ms`: the highest one that keeps at
    /// least ten samples beyond it in a run of this workload.
    pub tail_pct: f64,
    /// Seconds over which throughput is measured.
    pub busy_s: f64,
    /// Set-up repetitions, seconds.
    pub setup_s: &'a [f64],
    /// Relative error of the decomposition measured or served.
    pub rel_error: f64,
    /// Peak resident set of the process that does the work, MB.
    pub peak_rss_mb: f64,
}

impl Summary<'_> {
    /// Latencies of the answered operations. Operations that never got an
    /// answer carry a NaN latency: they count as attempted and failed, but
    /// have no latency to rank.
    fn latencies(&self) -> Vec<f64> {
        self.ops
            .iter()
            .map(|o| o.latency_ms)
            .filter(|l| l.is_finite())
            .collect()
    }

    /// How many latency samples back the reported tail.
    pub fn tail_note(&self) -> String {
        let lat = self.latencies();
        format!(
            "{} latency samples; tail_ms is p{}, with {} beyond it",
            lat.len(),
            self.tail_pct,
            crate::stats::beyond(&lat, self.tail_pct)
        )
    }

    /// The end-to-end metrics, named as in `BENCHMARK.json`.
    pub fn metrics(&self) -> Metrics {
        let lat = self.latencies();
        let on_time = |o: &Op| o.ok && o.latency_ms <= self.deadline_ms;
        let ok = self.ops.iter().filter(|o| o.ok).count() as f64;
        let timely = self.ops.iter().filter(|o| on_time(o)).count() as f64;
        let attempted = self.attempted.max(1) as f64;
        let worst = (0..self.clients)
            .map(|c| {
                let mine: Vec<&Op> = self.ops.iter().filter(|o| o.client == c).collect();
                let n = mine.len().max(1) as f64;
                mine.iter().filter(|o| on_time(o)).count() as f64 / n
            })
            .fold(f64::INFINITY, f64::min);
        let mut m = Metrics::default();
        m.set("setup_s", crate::stats::median(self.setup_s), "s");
        m.set("ok_frac", ok / attempted, "ratio");
        m.set("p50_ms", percentile(&lat, 50.0), "ms");
        m.set("tail_ms", percentile(&lat, self.tail_pct), "ms");
        m.set("ops_per_s", ok / self.busy_s, "1/s");
        m.set("goodput_rps", timely / self.busy_s, "1/s");
        m.set("rel_error", self.rel_error, "ratio");
        m.set("peak_rss_mb", self.peak_rss_mb, "MB");
        m.set("on_time_frac", timely / attempted, "ratio");
        m.set("worst_client_on_time_frac", worst, "ratio");
        m
    }
}

/// Peak resident set (`VmHWM`) of process `pid` ("self" for this one),
/// in MB, or NaN if `/proc` does not have it.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Median of a list of durations, in the given scale (1e3 = ms, 1e6 = µs).
pub fn median_scaled(d: &[std::time::Duration], scale: f64) -> f64 {
    let v: Vec<f64> = d.iter().map(|d| d.as_secs_f64() * scale).collect();
    crate::stats::median(&v)
}
