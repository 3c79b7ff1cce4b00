//! The shared response shapes for query results.
//!
//! Both the HTTP server and `dtucker-cli query --format json` render
//! query answers through these helpers and the workspace's one
//! [`JsonWriter`](dtucker_core::json::JsonWriter) (re-exported here), so
//! scripted clients see byte-identical encodings regardless of which
//! front end produced them.

pub use dtucker_core::json::JsonWriter;
use dtucker_tensor::DenseTensor;

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
