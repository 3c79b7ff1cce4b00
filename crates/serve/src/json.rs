//! The workspace's one JSON serializer.
//!
//! Both the HTTP server and `dtucker-cli query --format json` emit JSON
//! through [`JsonWriter`], so scripted clients see byte-identical
//! encodings regardless of which front end produced them. The writer is
//! push-based (no value tree, no allocations beyond the output buffer),
//! escape-correct for every `&str` it is handed, and renders `f64` with
//! Rust's shortest-round-trip `Display` (non-finite values become
//! `null` — JSON has no NaN/∞).
//!
//! The `render_*` helpers at the bottom are the shared response shapes
//! for query results.

use dtucker_tensor::DenseTensor;
use std::fmt::Write;

/// Appends `s` to `out` JSON-escaped (without surrounding quotes).
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// A push-based JSON document writer with automatic comma placement.
///
/// Call `begin_object`/`begin_array`, then `key` + a value method inside
/// objects or value methods directly inside arrays, then the matching
/// `end_*`, and take the bytes with [`finish`](JsonWriter::finish).
/// Nesting bookkeeping is a plain stack; misuse (a key outside an
/// object, unbalanced ends) produces malformed output rather than a
/// panic — the unit tests pin the balanced paths used by the crate.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    // One entry per open container: true once a child has been written
    // (so the next child needs a leading comma).
    stack: Vec<bool>,
    // True immediately after `key`, suppressing the comma logic for the
    // value that follows it.
    after_key: bool,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    fn comma(&mut self) {
        if self.after_key {
            self.after_key = false;
            return;
        }
        if let Some(has_child) = self.stack.last_mut() {
            if *has_child {
                self.out.push(',');
            }
            *has_child = true;
        }
    }

    /// Opens `{`.
    pub fn begin_object(&mut self) {
        self.comma();
        self.out.push('{');
        self.stack.push(false);
    }

    /// Closes `}`.
    pub fn end_object(&mut self) {
        self.stack.pop();
        self.out.push('}');
    }

    /// Opens `[`.
    pub fn begin_array(&mut self) {
        self.comma();
        self.out.push('[');
        self.stack.push(false);
    }

    /// Closes `]`.
    pub fn end_array(&mut self) {
        self.stack.pop();
        self.out.push(']');
    }

    /// Writes an object key (escaped) and its `:`.
    pub fn key(&mut self, k: &str) {
        self.comma();
        self.out.push('"');
        escape_into(&mut self.out, k);
        self.out.push_str("\":");
        self.after_key = true;
    }

    /// Writes a string value (escaped).
    pub fn string(&mut self, v: &str) {
        self.comma();
        self.out.push('"');
        escape_into(&mut self.out, v);
        self.out.push('"');
    }

    /// Writes an `f64` value: shortest round-trip decimal, or `null` for
    /// NaN/±∞.
    pub fn number_f64(&mut self, v: f64) {
        self.comma();
        if v.is_finite() {
            // Writing into a `String` cannot fail.
            let _ = write!(self.out, "{v}");
        } else {
            self.out.push_str("null");
        }
    }

    /// Writes an unsigned integer value.
    pub fn number_u64(&mut self, v: u64) {
        self.comma();
        let _ = write!(self.out, "{v}");
    }

    /// Writes a boolean value.
    pub fn boolean(&mut self, v: bool) {
        self.comma();
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.comma();
        self.out.push_str("null");
    }

    /// Consumes the writer and returns the document.
    pub fn finish(self) -> String {
        self.out
    }
}

/// `{"error": MESSAGE}` — the uniform error body for HTTP error statuses
/// and CLI JSON mode.
pub fn render_error(message: &str) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("error");
    w.string(message);
    w.end_object();
    w.finish()
}

/// One query result. Single-element queries render as
/// `{"spec": S, "value": V}`; everything larger as
/// `{"spec": S, "shape": [...], "values": [...]}` with the values
/// flattened in row-major order.
pub fn render_result(spec: &str, t: &DenseTensor) -> String {
    let mut w = JsonWriter::new();
    write_result(&mut w, spec, t);
    w.finish()
}

/// Writes one query result into an open writer (see [`render_result`]).
pub fn write_result(w: &mut JsonWriter, spec: &str, t: &DenseTensor) {
    w.begin_object();
    w.key("spec");
    w.string(spec);
    if t.numel() == 1 {
        w.key("value");
        w.number_f64(t.as_slice()[0]);
    } else {
        w.key("shape");
        w.begin_array();
        for &d in t.shape() {
            w.number_u64(d as u64);
        }
        w.end_array();
        w.key("values");
        w.begin_array();
        for &v in t.as_slice() {
            w.number_f64(v);
        }
        w.end_array();
    }
    w.end_object();
}

/// One aggregate result: `{"spec": S, "agg": KIND, "value": V}`.
pub fn render_aggregate(spec: &str, agg: &str, value: f64) -> String {
    let mut w = JsonWriter::new();
    write_aggregate(&mut w, spec, agg, value);
    w.finish()
}

/// Writes one aggregate result into an open writer.
pub fn write_aggregate(w: &mut JsonWriter, spec: &str, agg: &str, value: f64) {
    w.begin_object();
    w.key("spec");
    w.string(spec);
    w.key("agg");
    w.string(agg);
    w.key("value");
    w.number_f64(value);
    w.end_object();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_is_correct() {
        let mut s = String::new();
        escape_into(&mut s, "a\"b\\c\nd\te\r\u{1}ü");
        assert_eq!(s, "a\\\"b\\\\c\\nd\\te\\r\\u0001ü");
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("k\"ey");
        w.string("v\\al");
        w.end_object();
        assert_eq!(w.finish(), "{\"k\\\"ey\":\"v\\\\al\"}");
    }

    #[test]
    fn commas_and_nesting() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("a");
        w.number_u64(1);
        w.key("b");
        w.begin_array();
        w.number_f64(1.5);
        w.boolean(false);
        w.null();
        w.begin_object();
        w.key("c");
        w.string("x");
        w.end_object();
        w.end_array();
        w.end_object();
        assert_eq!(w.finish(), "{\"a\":1,\"b\":[1.5,false,null,{\"c\":\"x\"}]}");
    }

    #[test]
    fn f64_round_trip_and_nonfinite() {
        for v in [0.0, -1.5, 1.0 / 3.0, 1e-300, -2.5e17, f64::MIN_POSITIVE] {
            let mut w = JsonWriter::new();
            w.begin_array();
            w.number_f64(v);
            w.end_array();
            let s = w.finish();
            let inner = &s[1..s.len() - 1];
            let back: f64 = inner.parse().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{s}");
        }
        let mut w = JsonWriter::new();
        w.begin_array();
        w.number_f64(f64::NAN);
        w.number_f64(f64::INFINITY);
        w.end_array();
        assert_eq!(w.finish(), "[null,null]");
    }

    #[test]
    fn result_shapes() {
        let one = DenseTensor::from_vec(&[1, 1], vec![2.5]).unwrap();
        assert_eq!(
            render_result("3,4", &one),
            "{\"spec\":\"3,4\",\"value\":2.5}"
        );
        let block = DenseTensor::from_vec(&[2, 1], vec![1.0, -2.0]).unwrap();
        assert_eq!(
            render_result("0:2,4", &block),
            "{\"spec\":\"0:2,4\",\"shape\":[2,1],\"values\":[1,-2]}"
        );
        assert_eq!(
            render_aggregate(":,:", "sum", 7.25),
            "{\"spec\":\":,:\",\"agg\":\"sum\",\"value\":7.25}"
        );
        assert_eq!(
            render_error("no \"such\" artifact"),
            "{\"error\":\"no \\\"such\\\" artifact\"}"
        );
    }
}
