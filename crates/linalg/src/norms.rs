//! Norms and low-level vector helpers shared across the crate.

/// Frobenius / Euclidean norm of a slice with overflow-safe scaling
/// (LAPACK `dnrm2`-style).
pub fn fro_norm(v: &[f64]) -> f64 {
    let mut scale = 0.0f64;
    let mut ssq = 1.0f64;
    for &x in v {
        if x != 0.0 {
            let ax = x.abs();
            if scale < ax {
                ssq = 1.0 + ssq * (scale / ax).powi(2);
                scale = ax;
            } else {
                ssq += (ax / scale).powi(2);
            }
        }
    }
    scale * ssq.sqrt()
}

/// Incremental state of the [`fro_norm`] computation.
///
/// Feeding elements one slice at a time produces **bit-identical** results
/// to a single [`fro_norm`] call over the concatenated data, because the
/// scaled accumulation is strictly sequential. Out-of-core readers use this
/// to compute the norm of a tensor file without loading it whole.
#[derive(Debug, Clone, Copy)]
pub struct FroNormAccumulator {
    scale: f64,
    ssq: f64,
}

impl Default for FroNormAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

impl FroNormAccumulator {
    /// Fresh accumulator (norm of zero elements is 0).
    pub fn new() -> Self {
        FroNormAccumulator {
            scale: 0.0,
            ssq: 1.0,
        }
    }

    /// Feeds one element.
    #[inline]
    pub fn push(&mut self, x: f64) {
        if x != 0.0 {
            let ax = x.abs();
            if self.scale < ax {
                self.ssq = 1.0 + self.ssq * (self.scale / ax).powi(2);
                self.scale = ax;
            } else {
                self.ssq += (ax / self.scale).powi(2);
            }
        }
    }

    /// Feeds a slice of elements in order.
    pub fn push_slice(&mut self, v: &[f64]) {
        for &x in v {
            self.push(x);
        }
    }

    /// The norm accumulated so far.
    pub fn norm(&self) -> f64 {
        self.scale * self.ssq.sqrt()
    }

    /// The squared norm, computed exactly as `DenseTensor::fro_norm_sq`
    /// does (norm first, then squared — the round trip matters for bit
    /// identity).
    pub fn norm_sq(&self) -> f64 {
        let n = self.norm();
        n * n
    }
}

/// Squared Euclidean norm (plain accumulation; fine for well-scaled data).
#[inline]
pub fn norm_sq(v: &[f64]) -> f64 {
    v.iter().map(|&x| x * x).sum()
}

/// Dot product of two equal-length slices.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b.iter()) {
        acc += x * y;
    }
    acc
}

/// `y += alpha * x` over slices.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

/// Scales a slice in place.
#[inline]
pub fn scale(v: &mut [f64], s: f64) {
    for x in v {
        *x *= s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fro_norm_matches_naive() {
        let v = [3.0, 4.0];
        assert!((fro_norm(&v) - 5.0).abs() < 1e-15);
        assert_eq!(fro_norm(&[]), 0.0);
        assert_eq!(fro_norm(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn fro_norm_resists_overflow() {
        let big = 1e200;
        let v = [big, big];
        let n = fro_norm(&v);
        assert!(n.is_finite());
        assert!((n - big * std::f64::consts::SQRT_2).abs() / n < 1e-14);
    }

    #[test]
    fn fro_norm_resists_underflow() {
        let tiny = 1e-200;
        let v = [tiny, tiny];
        let n = fro_norm(&v);
        assert!(n > 0.0);
        assert!((n - tiny * std::f64::consts::SQRT_2).abs() / n < 1e-14);
    }

    #[test]
    fn accumulator_matches_fro_norm_bitwise() {
        let v: Vec<f64> = (0..257)
            .map(|i| ((i as f64) * 0.7311 - 90.0) * 1e3)
            .collect();
        // Any chunking must reproduce the one-shot norm exactly.
        for chunk in [1usize, 3, 64, 257] {
            let mut acc = FroNormAccumulator::new();
            for c in v.chunks(chunk) {
                acc.push_slice(c);
            }
            assert_eq!(acc.norm().to_bits(), fro_norm(&v).to_bits());
        }
        let empty = FroNormAccumulator::new();
        assert_eq!(empty.norm(), 0.0);
        assert_eq!(empty.norm_sq(), 0.0);
    }

    #[test]
    fn dot_and_axpy() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 5.0, 6.0];
        assert_eq!(dot(&a, &b), 32.0);
        let mut y = [1.0, 1.0, 1.0];
        axpy(2.0, &a, &mut y);
        assert_eq!(y, [3.0, 5.0, 7.0]);
        let mut s = [2.0, 4.0];
        scale(&mut s, 0.5);
        assert_eq!(s, [1.0, 2.0]);
        assert_eq!(norm_sq(&[3.0, 4.0]), 25.0);
    }
}
