//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, a parent and the id of the
//! operation (one decomposition, query or request) it belongs to. Spans
//! stay in memory while the workload runs and are written out once at the
//! end, so recording costs two clock reads and a push.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One closed span; times are offsets from the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.approx`.
    pub name: &'static str,
    /// Start offset.
    pub start: Duration,
    /// End offset.
    pub end: Duration,
    /// Index of the enclosing span in [`Tracer::spans`], if any.
    pub parent: Option<usize>,
    /// The operation this span belongs to.
    pub op: u64,
}

impl Span {
    /// Wall-clock length of the span.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Handle to an open span, returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// Records spans for one thread of the benchmark.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose span offsets count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) -> SpanId {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            op,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id`, and any span opened inside it that is still open.
    pub fn end(&mut self, id: SpanId) {
        let now = self.origin.elapsed();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = now;
            if top == id.0 {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, op);
        let out = f();
        self.end(id);
        out
    }

    /// Records an already finished interval as a child of the innermost
    /// open span (for boundaries observed through a callback).
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
            parent: self.open.last().copied(),
            op,
        });
    }

    /// Appends another tracer's spans (e.g. one per load-generator thread).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let shift = other.origin.saturating_duration_since(self.origin);
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s.start += shift;
            s.end += shift;
            s
        }));
    }

    /// Durations, in recording order, of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }

    /// Self time of every span named `name`: its duration minus the part
    /// of it covered by its direct children.
    pub fn self_times(&self, name: &str) -> Vec<Duration> {
        let mut child_time: BTreeMap<usize, Duration> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *child_time.entry(p).or_default() += s.duration();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| {
                s.duration()
                    .saturating_sub(child_time.get(&i).copied().unwrap_or_default())
            })
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let mut tr = Tracer::new(t0);
        let outer = tr.begin("outer", 7);
        tr.record(
            "child",
            7,
            t0 + Duration::from_millis(1),
            t0 + Duration::from_millis(3),
        );
        std::thread::sleep(Duration::from_millis(5));
        tr.end(outer);
        let total = tr.durations("outer")[0];
        let own = tr.self_times("outer")[0];
        assert_eq!(total - own, Duration::from_millis(2));
        assert_eq!(tr.spans[1].parent, Some(0));
        assert_eq!(tr.spans[1].op, 7);
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let t0 = Instant::now();
        let mut a = Tracer::new(t0);
        a.span("a", 0, || ());
        let mut b = Tracer::new(t0);
        let outer = b.begin("b", 1);
        b.span("b.child", 1, || ());
        b.end(outer);
        a.absorb(b);
        assert_eq!(a.spans.len(), 3);
        assert_eq!(a.spans[2].parent, Some(1));
    }
}
