//! Hyper-rectangle query ranges.
//!
//! A [`Range`] selects a box `[lo₁,hi₁) × … × [lo_N,hi_N)` of the tensor a
//! decomposition approximates. Elements, fibers, and slices are all
//! special cases (every mode pinned; one mode free; one mode pinned), so
//! the engine has a single entry point.

use crate::error::{QueryError, Result};

/// A half-open hyper-rectangle `[lo, hi)` per mode.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Range {
    bounds: Vec<(usize, usize)>,
}

impl Range {
    /// A range from explicit per-mode half-open bounds.
    pub fn new(bounds: Vec<(usize, usize)>) -> Self {
        Range { bounds }
    }

    /// The full tensor.
    pub fn full(shape: &[usize]) -> Self {
        Range {
            bounds: shape.iter().map(|&d| (0, d)).collect(),
        }
    }

    /// A single element.
    pub fn element(index: &[usize]) -> Self {
        Range {
            bounds: index.iter().map(|&i| (i, i + 1)).collect(),
        }
    }

    /// A mode-`mode` fiber: free along `mode`, pinned to `at` elsewhere
    /// (`at[mode]` is ignored).
    pub fn fiber(shape: &[usize], mode: usize, at: &[usize]) -> Self {
        Range {
            bounds: at
                .iter()
                .enumerate()
                .map(|(n, &i)| if n == mode { (0, shape[n]) } else { (i, i + 1) })
                .collect(),
        }
    }

    /// A slice: mode `mode` pinned to `index`, all other modes free.
    pub fn slice(shape: &[usize], mode: usize, index: usize) -> Self {
        Range {
            bounds: shape
                .iter()
                .enumerate()
                .map(|(n, &d)| {
                    if n == mode {
                        (index, index + 1)
                    } else {
                        (0, d)
                    }
                })
                .collect(),
        }
    }

    /// Parses a textual range spec against `shape`.
    ///
    /// The spec is one comma-separated term per mode: `i` (single index),
    /// `lo:hi` (half-open), `lo:` / `:hi` (open end), or `:` (full mode).
    /// Example for a 3-mode tensor: `3,0:10,:`.
    pub fn parse(spec: &str, shape: &[usize]) -> Result<Self> {
        let terms: Vec<&str> = spec.split(',').collect();
        if terms.len() != shape.len() {
            return Err(QueryError::Parse(format!(
                "spec '{spec}' has {} terms but the tensor has {} modes",
                terms.len(),
                shape.len()
            )));
        }
        let mut bounds = Vec::with_capacity(terms.len());
        for (n, term) in terms.iter().enumerate() {
            let term = term.trim();
            let bad = |d: &str| QueryError::Parse(format!("mode {n} term '{term}': {d}"));
            if let Some((lo, hi)) = term.split_once(':') {
                let lo = if lo.is_empty() {
                    0
                } else {
                    lo.parse::<usize>().map_err(|e| bad(&e.to_string()))?
                };
                let hi = if hi.is_empty() {
                    shape[n]
                } else {
                    hi.parse::<usize>().map_err(|e| bad(&e.to_string()))?
                };
                bounds.push((lo, hi));
            } else {
                let i = term.parse::<usize>().map_err(|e| bad(&e.to_string()))?;
                let end = i.checked_add(1).ok_or_else(|| bad("index too large"))?;
                bounds.push((i, end));
            }
        }
        let r = Range { bounds };
        r.validate_for(shape)?;
        Ok(r)
    }

    /// The per-mode bounds.
    pub fn bounds(&self) -> &[(usize, usize)] {
        &self.bounds
    }

    /// Number of modes.
    pub fn order(&self) -> usize {
        self.bounds.len()
    }

    /// Extent `hi − lo` of each mode.
    pub fn extents(&self) -> Vec<usize> {
        self.bounds.iter().map(|&(lo, hi)| hi - lo).collect()
    }

    /// Number of selected elements.
    pub fn numel(&self) -> usize {
        self.bounds.iter().map(|&(lo, hi)| hi - lo).product()
    }

    /// Checks the range against a tensor shape: matching order, non-empty
    /// per-mode intervals, bounds within the mode.
    pub fn validate_for(&self, shape: &[usize]) -> Result<()> {
        if self.bounds.len() != shape.len() {
            return Err(QueryError::InvalidRange {
                details: format!(
                    "range has {} modes but the tensor has {}",
                    self.bounds.len(),
                    shape.len()
                ),
            });
        }
        for (n, (&(lo, hi), &d)) in self.bounds.iter().zip(shape.iter()).enumerate() {
            if lo >= hi {
                return Err(QueryError::InvalidRange {
                    details: format!("mode {n}: empty interval {lo}..{hi}"),
                });
            }
            if hi > d {
                return Err(QueryError::InvalidRange {
                    details: format!("mode {n}: interval {lo}..{hi} exceeds size {d}"),
                });
            }
        }
        Ok(())
    }
}

impl std::fmt::Display for Range {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (n, &(lo, hi)) in self.bounds.iter().enumerate() {
            if n > 0 {
                write!(f, ",")?;
            }
            if hi == lo + 1 {
                write!(f, "{lo}")?;
            } else {
                write!(f, "{lo}:{hi}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let shape = [4, 5, 6];
        assert_eq!(Range::full(&shape).bounds(), &[(0, 4), (0, 5), (0, 6)]);
        assert_eq!(
            Range::element(&[1, 2, 3]).bounds(),
            &[(1, 2), (2, 3), (3, 4)]
        );
        assert_eq!(
            Range::fiber(&shape, 1, &[2, 0, 3]).bounds(),
            &[(2, 3), (0, 5), (3, 4)]
        );
        assert_eq!(
            Range::slice(&shape, 2, 4).bounds(),
            &[(0, 4), (0, 5), (4, 5)]
        );
        let r = Range::new(vec![(1, 3), (0, 5), (2, 3)]);
        assert_eq!(r.extents(), vec![2, 5, 1]);
        assert_eq!(r.numel(), 10);
        assert_eq!(r.order(), 3);
        r.validate_for(&shape).unwrap();
    }

    #[test]
    fn validation_rejects_bad_ranges() {
        let shape = [4, 5];
        assert!(Range::new(vec![(0, 4)]).validate_for(&shape).is_err());
        assert!(Range::new(vec![(2, 2), (0, 5)])
            .validate_for(&shape)
            .is_err());
        assert!(Range::new(vec![(3, 1), (0, 5)])
            .validate_for(&shape)
            .is_err());
        assert!(Range::new(vec![(0, 5), (0, 5)])
            .validate_for(&shape)
            .is_err());
        assert!(matches!(
            Range::new(vec![(0, 4), (4, 6)]).validate_for(&shape),
            Err(QueryError::InvalidRange { .. })
        ));
    }

    #[test]
    fn parse_round_trips() {
        let shape = [10, 20, 30];
        let r = Range::parse("3,0:10,:", &shape).unwrap();
        assert_eq!(r.bounds(), &[(3, 4), (0, 10), (0, 30)]);
        assert_eq!(
            Range::parse("5:,:7,29", &shape).unwrap().bounds(),
            &[(5, 10), (0, 7), (29, 30)]
        );
        // Display → parse round trip.
        let r = Range::new(vec![(1, 2), (3, 9), (0, 30)]);
        assert_eq!(Range::parse(&r.to_string(), &shape).unwrap(), r);

        assert!(matches!(
            Range::parse("1,2", &shape),
            Err(QueryError::Parse(_))
        ));
        assert!(matches!(
            Range::parse("a,0:10,:", &shape),
            Err(QueryError::Parse(_))
        ));
        assert!(matches!(
            Range::parse("1,0:99,:", &shape),
            Err(QueryError::InvalidRange { .. })
        ));
    }
}
