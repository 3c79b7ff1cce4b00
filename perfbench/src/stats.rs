//! Order statistics over latency samples.

/// The `p`-th percentile (`0 ≤ p ≤ 100`) of `values`, linearly
/// interpolated between closest ranks. Returns NaN for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let frac = pos - lo as f64;
            sorted[lo] + (sorted[hi] - sorted[lo]) * frac
        }
    }
}

/// The median of `values` (NaN for an empty sample).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// How many samples lie strictly above the `p`-th percentile.
pub fn beyond(values: &[f64], p: f64) -> usize {
    let q = percentile(values, p);
    values.iter().filter(|&&v| v > q).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 25.0), 2.0);
        assert!((percentile(&[0.0, 10.0], 90.0) - 9.0).abs() < 1e-12);
        assert!(median(&[]).is_nan());
        assert_eq!(beyond(&v, 50.0), 2);
    }
}
