//! Correctness checks against an oracle computed in the same run.
//!
//! The oracle is the naive route: reconstruct the full tensor from the
//! decomposition, then cut the requested range out of it. Answers are
//! compared numerically within a relative tolerance, never byte for byte,
//! so a correct change of contraction order (which moves the last bits)
//! still passes.

use crate::mix::{Class, Query};
use dtucker_tensor::dense::DenseTensor;

/// Relative tolerance for answers checked against the oracle: the error
/// allowed is `REL_TOL` times the scale of the oracle's values.
pub const REL_TOL: f64 = 1e-9;

/// Ceiling on a decomposition's relative error `‖X − X̂‖/‖X‖`. The
/// rank-10 traffic decompositions land between 0.085 and 0.105 on the
/// seeds tried.
pub const REL_ERROR_CEILING: f64 = 0.2;

/// Tolerance on `‖UᵀU − I‖` (max entry) for every factor.
pub const ORTHONORMAL_TOL: f64 = 1e-8;

/// What the oracle says a query should return.
#[derive(Debug, Clone)]
pub enum Expected {
    /// The values of the range, in the engine's storage order.
    Values(Vec<f64>),
    /// A scalar aggregate and the scale its error is measured against.
    Scalar { value: f64, scale: f64 },
}

/// The oracle's answer to `q` over the reconstructed tensor `full`.
pub fn expected(full: &DenseTensor, q: &Query) -> Expected {
    let block = match full.subtensor(&q.bounds) {
        Ok(b) => b,
        Err(e) => panic!("oracle cannot cut {:?}: {e}", q.bounds),
    };
    match q.class {
        Class::Sum => Expected::Scalar {
            value: block.as_slice().iter().sum(),
            scale: block.as_slice().iter().map(|v| v.abs()).sum(),
        },
        Class::Fro => {
            let f = block.fro_norm();
            Expected::Scalar { value: f, scale: f }
        }
        _ => Expected::Values(block.into_vec()),
    }
}

/// Whether `got` (a range's values) matches the oracle's values.
pub fn values_match(got: &[f64], want: &[f64]) -> bool {
    if got.len() != want.len() {
        return false;
    }
    let scale = want
        .iter()
        .fold(0.0f64, |m, v| m.max(v.abs()))
        .max(f64::MIN_POSITIVE);
    got.iter()
        .zip(want)
        .all(|(g, w)| (g - w).abs() <= REL_TOL * scale)
}

/// Whether a scalar answer matches.
pub fn scalar_matches(got: f64, value: f64, scale: f64) -> bool {
    (got - value).abs() <= REL_TOL * scale.max(f64::MIN_POSITIVE)
}

/// Whether an answer (values, or a scalar) matches the oracle.
pub fn answer_matches(got: &Answer, want: &Expected) -> bool {
    match (got, want) {
        (Answer::Values(g), Expected::Values(w)) => values_match(g, w),
        (Answer::Scalar(g), Expected::Scalar { value, scale }) => {
            scalar_matches(*g, *value, *scale)
        }
        // A one-element range renders as a scalar `value`.
        (Answer::Scalar(g), Expected::Values(w)) => values_match(&[*g], w),
        _ => false,
    }
}

/// A parsed answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// Range values.
    Values(Vec<f64>),
    /// A single value (element or aggregate).
    Scalar(f64),
}

/// Extracts the answer from a server response body: `"values":[...]` for
/// ranges, `"value":v` for elements and aggregates. `None` if neither is
/// present or a number does not parse.
pub fn parse_answer(body: &str) -> Option<Answer> {
    if let Some(at) = body.find("\"values\":[") {
        let rest = &body[at + "\"values\":[".len()..];
        let end = rest.find(']')?;
        let inner = &rest[..end];
        if inner.trim().is_empty() {
            return Some(Answer::Values(Vec::new()));
        }
        let vals: Option<Vec<f64>> = inner.split(',').map(|t| t.trim().parse().ok()).collect();
        return vals.map(Answer::Values);
    }
    let at = body.find("\"value\":")?;
    let rest = &body[at + "\"value\":".len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok().map(Answer::Scalar)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answers_parse_from_server_bodies() {
        assert_eq!(
            parse_answer(r#"{"spec":"1,2,3","value":0.5}"#),
            Some(Answer::Scalar(0.5))
        );
        assert_eq!(
            parse_answer(r#"{"spec":"0:2,1,1","shape":[2,1,1],"values":[1e-3,-2.5]}"#),
            Some(Answer::Values(vec![1e-3, -2.5]))
        );
        assert_eq!(
            parse_answer(r#"{"spec":"0:2,1,1","agg":"sum","value":7}"#),
            Some(Answer::Scalar(7.0))
        );
        assert_eq!(parse_answer(r#"{"error":"no"}"#), None);
        assert_eq!(parse_answer(r#"{"value":null}"#), None);
    }

    #[test]
    fn tolerance_is_relative_to_the_answer_scale() {
        assert!(values_match(&[1e6 + 1e-4], &[1e6]));
        assert!(!values_match(&[1.0 + 1e-6], &[1.0]));
        assert!(!values_match(&[1.0], &[1.0, 2.0]));
        assert!(scalar_matches(100.0 + 1e-8, 100.0, 100.0));
        assert!(!scalar_matches(101.0, 100.0, 100.0));
    }

    #[test]
    fn oracle_cuts_and_aggregates_the_range() {
        let full = DenseTensor::from_fn(&[3, 2, 2], |i| (i[0] + 10 * i[1] + 100 * i[2]) as f64)
            .expect("shape");
        let q = Query {
            class: Class::Sum,
            bounds: vec![(0, 3), (1, 2), (0, 1)],
        };
        match expected(&full, &q) {
            Expected::Scalar { value, .. } => assert_eq!(value, 10.0 + 11.0 + 12.0),
            other => panic!("{other:?}"),
        }
        let q = Query {
            class: Class::Element,
            bounds: vec![(2, 3), (1, 2), (1, 2)],
        };
        assert!(answer_matches(&Answer::Scalar(112.0), &expected(&full, &q)));
    }
}
