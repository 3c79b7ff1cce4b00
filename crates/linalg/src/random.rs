//! Random matrix helpers.
//!
//! The `rand` crate in the offline set does not ship a normal distribution
//! (that lives in `rand_distr`), so Gaussian variates are produced with the
//! Marsaglia polar method here.

use crate::matrix::Matrix;
use rand::Rng;

/// Draws a standard normal variate using the Marsaglia polar method.
pub fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u = rng.gen_range(-1.0f64..1.0);
        let v = rng.gen_range(-1.0f64..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// A `rows × cols` matrix of i.i.d. standard normal entries.
pub fn gaussian_matrix<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| gaussian(rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gaussian_moments_are_plausible() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples
            .iter()
            .map(|&x| (x - mean) * (x - mean))
            .sum::<f64>()
            / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn gaussian_matrix_shape_and_determinism() {
        let mut rng1 = StdRng::seed_from_u64(7);
        let mut rng2 = StdRng::seed_from_u64(7);
        let a = gaussian_matrix(4, 5, &mut rng1);
        let b = gaussian_matrix(4, 5, &mut rng2);
        assert_eq!(a.shape(), (4, 5));
        assert_eq!(a, b);
    }
}
