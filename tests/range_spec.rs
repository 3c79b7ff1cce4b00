//! `Range::parse` reads untrusted text: the `at=`/`range=` parameters of
//! `GET /q/NAME`, the batch body, and the CLI's `--at`/`--range`/`--stdin`.
//! Whatever the spec, it must return a range or a typed error and never
//! panic, and every valid range must survive a round trip through its
//! `Display` form.

use dtucker_query::{QueryError, Range};
use proptest::prelude::*;

/// Spec fragments: well-formed pieces, separators, numbers at and past the
/// `usize` limit, signs, floats, whitespace and non-ASCII bytes.
const PIECES: &[&str] = &[
    "0",
    "1",
    "3",
    "7",
    "12",
    ":",
    ",",
    " ",
    "",
    "-1",
    "+2",
    "1.5",
    "x",
    "é",
    "\t",
    "::",
    "18446744073709551615",
    "18446744073709551614",
    "18446744073709551616",
    "99999999999999999999999999",
];

/// Tensor shapes, each mode at least 1 long.
fn shape() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(1usize..=9, 1..=4)
}

/// A valid range inside a shape: per mode, two cut points in `0..=d` in
/// order; equal cuts become a single index.
fn shape_and_range() -> impl Strategy<Value = (Vec<usize>, Range)> {
    shape().prop_flat_map(|shape| {
        let cuts: Vec<_> = shape.iter().map(|&d| (0usize..=d, 0usize..=d)).collect();
        (Just(shape), cuts).prop_map(|(shape, cuts)| {
            let bounds = cuts
                .into_iter()
                .zip(&shape)
                .map(|((a, b), &d)| {
                    let (lo, hi) = (a.min(b), a.max(b));
                    if lo == hi {
                        (lo.min(d - 1), lo.min(d - 1) + 1)
                    } else {
                        (lo, hi)
                    }
                })
                .collect();
            (shape, Range::new(bounds))
        })
    })
}

/// Applies one edit to `spec` at a position drawn from `at`: delete a
/// character, insert a piece, or replace a character with a piece.
fn mutate(spec: &str, kind: usize, at: usize, piece: &str) -> String {
    let chars: Vec<char> = spec.chars().collect();
    let pos = if chars.is_empty() {
        0
    } else {
        at % (chars.len() + 1)
    };
    let head: String = chars[..pos].iter().collect();
    let tail: String = chars[pos..].iter().collect();
    let rest: String = chars[pos..].iter().skip(1).collect();
    match kind % 3 {
        0 => head + &rest,
        1 => head + piece + &tail,
        _ => head + piece + &rest,
    }
}

/// A parse either succeeds with a range that fits the shape or fails with
/// a parse or range error.
fn check_outcome(spec: &str, shape: &[usize]) {
    match Range::parse(spec, shape) {
        Ok(r) => {
            assert!(
                r.validate_for(shape).is_ok(),
                "'{spec}' parsed out of bounds"
            );
        }
        Err(QueryError::Parse(_)) | Err(QueryError::InvalidRange { .. }) => {}
        Err(e) => panic!("'{spec}': unexpected error kind {e:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_and_mutated_specs_never_panic(
        shape in shape(),
        picks in proptest::collection::vec(0usize..PIECES.len(), 0..12),
        (valid_shape, valid) in shape_and_range(),
        edits in proptest::collection::vec(
            (any::<usize>(), any::<usize>(), 0usize..PIECES.len()),
            1..4,
        ),
    ) {
        let spec: String = picks.iter().map(|&i| PIECES[i]).collect();
        check_outcome(&spec, &shape);

        let mut mutated = valid.to_string();
        for &(kind, at, piece) in &edits {
            mutated = mutate(&mutated, kind, at, PIECES[piece]);
            check_outcome(&mutated, &valid_shape);
        }
    }

    #[test]
    fn valid_ranges_round_trip_through_display((shape, range) in shape_and_range()) {
        let text = range.to_string();
        let back = Range::parse(&text, &shape)
            .unwrap_or_else(|e| panic!("'{text}' for {shape:?}: {e}"));
        prop_assert_eq!(back, range);
    }
}

/// `usize::MAX` as a single index used to overflow computing its
/// exclusive end.
#[test]
fn largest_index_is_a_parse_error() {
    let shape = [8, 6, 5];
    for spec in [
        "18446744073709551615,0,0",
        "0,18446744073709551615,0",
        "0,0,18446744073709551615",
    ] {
        assert!(
            matches!(Range::parse(spec, &shape), Err(QueryError::Parse(_))),
            "'{spec}' must be rejected as a parse error"
        );
    }
    // Other out-of-range forms are unchanged: range errors, not parse errors.
    assert!(matches!(
        Range::parse("18446744073709551614,0,0", &shape),
        Err(QueryError::InvalidRange { .. })
    ));
    assert!(matches!(
        Range::parse("0:18446744073709551615,0,0", &shape),
        Err(QueryError::InvalidRange { .. })
    ));
}
