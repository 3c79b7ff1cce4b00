//! Convergence tracing for the iteration phase.

/// Record of one ALS run: the fit indicator after every sweep.
///
/// The fit indicator is `sqrt(max(‖X‖² − ‖G‖², 0)) / ‖X‖` — the standard
/// Tucker convergence functional (identical to the one used by the MATLAB
/// Tensor Toolbox and the paper's stopping rule).
#[derive(Debug, Clone, Default)]
pub struct ConvergenceTrace {
    /// Fit indicator after each sweep.
    pub sweep_fits: Vec<f64>,
    /// Whether the tolerance was met before `max_iters`.
    pub converged: bool,
}

impl ConvergenceTrace {
    /// Number of sweeps performed.
    pub fn iterations(&self) -> usize {
        self.sweep_fits.len()
    }

    /// Records a sweep; returns `true` when the change against the previous
    /// sweep is below `tol`.
    pub fn record(&mut self, fit: f64, tol: f64) -> bool {
        let done = match self.sweep_fits.last() {
            Some(&prev) => (prev - fit).abs() < tol,
            None => false,
        };
        self.sweep_fits.push(fit);
        if done {
            self.converged = true;
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_detects_convergence() {
        let mut t = ConvergenceTrace::default();
        assert!(!t.record(0.5, 1e-3));
        assert!(!t.record(0.4, 1e-3));
        assert!(t.record(0.4000001, 1e-3));
        assert!(t.converged);
        assert_eq!(t.iterations(), 3);
    }

    #[test]
    fn empty_trace() {
        let t = ConvergenceTrace::default();
        assert_eq!(t.iterations(), 0);
        assert!(!t.converged);
    }
}
