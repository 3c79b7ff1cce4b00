//! The D-Tucker front door: approximation → initialization → iteration.

use crate::config::DTuckerConfig;
use crate::error::{CoreError, Result};
use crate::init::initialize_threaded;
use crate::iterate::{iterate, iterate_from, SweepHook, SweepState};
use crate::slices::SlicedTensor;
use crate::trace::ConvergenceTrace;
use crate::tucker::TuckerDecomp;
use dtucker_linalg::matrix::Matrix;
use dtucker_linalg::qr::orthonormalize;
use dtucker_linalg::random::gaussian_matrix;
use dtucker_tensor::dense::DenseTensor;
use dtucker_tensor::unfold::{inverse_permutation, permute};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// Wall-clock time spent in each phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Approximation phase (slice compression). Zero when a pre-compressed
    /// tensor was supplied.
    pub approximation: Duration,
    /// Initialization phase.
    pub initialization: Duration,
    /// Iteration phase (all ALS sweeps).
    pub iteration: Duration,
}

impl PhaseTimings {
    /// Total wall-clock time.
    pub fn total(&self) -> Duration {
        self.approximation + self.initialization + self.iteration
    }
}

/// How the iteration phase is seeded (ablation hook for the convergence
/// experiment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitStrategy {
    /// The paper's SVD-based initialization phase.
    DTucker,
    /// Random orthonormal factors (what vanilla HOOI starts from).
    Random,
}

/// Result of a full D-Tucker run.
#[derive(Debug, Clone)]
pub struct DTuckerOutput {
    /// The decomposition, with factors in the **original** mode order.
    pub decomposition: TuckerDecomp,
    /// Convergence record of the iteration phase.
    pub trace: ConvergenceTrace,
    /// Per-phase wall-clock timings.
    pub timings: PhaseTimings,
    /// The compressed representation (reusable for further runs at other
    /// ranks ≤ slice rank, and for memory accounting).
    pub sliced: SlicedTensor,
}

/// The D-Tucker solver.
///
/// ```
/// use dtucker_core::{DTucker, DTuckerConfig};
/// use dtucker_tensor::random::low_rank_plus_noise;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let x = low_rank_plus_noise(&[30, 25, 10], &[3, 3, 3], 0.01, &mut rng).unwrap();
/// let out = DTucker::new(DTuckerConfig::uniform(3, 3)).decompose(&x).unwrap();
/// assert!(out.decomposition.relative_error_sq(&x).unwrap() < 0.01);
/// ```
#[derive(Debug, Clone)]
pub struct DTucker {
    cfg: DTuckerConfig,
}

impl DTucker {
    /// Creates a solver with the given configuration.
    pub fn new(cfg: DTuckerConfig) -> Self {
        DTucker { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &DTuckerConfig {
        &self.cfg
    }

    /// Runs all three phases on a dense tensor.
    pub fn decompose(&self, x: &DenseTensor) -> Result<DTuckerOutput> {
        self.decompose_with_init(x, InitStrategy::DTucker)
    }

    /// Runs all three phases with an explicit initialization strategy.
    pub fn decompose_with_init(
        &self,
        x: &DenseTensor,
        strategy: InitStrategy,
    ) -> Result<DTuckerOutput> {
        self.cfg.validate(x.shape())?;
        if !x.is_finite() {
            return Err(crate::error::CoreError::InvalidConfig {
                details: "input tensor contains non-finite entries".into(),
            });
        }
        let t0 = Instant::now();
        let sliced = SlicedTensor::compress(x, &self.cfg)?;
        let approximation = t0.elapsed();
        let mut out = self.decompose_sliced_with_init(&sliced, strategy)?;
        out.timings.approximation = approximation;
        Ok(out)
    }

    /// Runs the initialization and iteration phases on a pre-compressed
    /// tensor (the approximation phase is reported as zero time).
    pub fn decompose_sliced(&self, sliced: &SlicedTensor) -> Result<DTuckerOutput> {
        self.decompose_sliced_with_init(sliced, InitStrategy::DTucker)
    }

    /// [`Self::decompose_sliced`] with an explicit initialization strategy.
    pub fn decompose_sliced_with_init(
        &self,
        sliced: &SlicedTensor,
        strategy: InitStrategy,
    ) -> Result<DTuckerOutput> {
        let perm = sliced.perm().to_vec();
        let ranks_int: Vec<usize> = perm.iter().map(|&p| self.cfg.ranks[p]).collect();

        let t1 = Instant::now();
        let init_factors = match strategy {
            InitStrategy::DTucker => {
                initialize_threaded(sliced, &ranks_int, self.cfg.threads)?.factors
            }
            InitStrategy::Random => {
                let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ 0xD7CE);
                sliced
                    .shape()
                    .iter()
                    .zip(ranks_int.iter())
                    .map(|(&i, &j)| orthonormalize(&gaussian_matrix(i, j, &mut rng)))
                    .collect()
            }
        };
        let initialization = t1.elapsed();

        let t2 = Instant::now();
        let iter_out = iterate(sliced, &ranks_int, init_factors, &self.cfg)?;
        let iteration = t2.elapsed();

        let decomposition = internal_to_original(&perm, iter_out.factors, iter_out.core)?;
        Ok(DTuckerOutput {
            decomposition,
            trace: iter_out.trace,
            timings: PhaseTimings {
                approximation: Duration::ZERO,
                initialization,
                iteration,
            },
            sliced: sliced.clone(),
        })
    }

    /// Checkpointable variant of [`Self::decompose_sliced`]: the iteration
    /// phase starts from `resume` (a [`SweepState`] restored from a
    /// checkpoint) when given, skipping the initialization phase, and
    /// `on_sweep` runs after every completed sweep (a checkpoint writer, or
    /// a hook that errors to simulate a crash). Resuming a killed run
    /// produces factors **bit-identical** to the uninterrupted run.
    pub fn decompose_sliced_resumable(
        &self,
        sliced: &SlicedTensor,
        resume: Option<SweepState>,
        on_sweep: &mut SweepHook<'_>,
    ) -> Result<DTuckerOutput> {
        let perm = sliced.perm().to_vec();
        let ranks_int: Vec<usize> = perm.iter().map(|&p| self.cfg.ranks[p]).collect();

        let t1 = Instant::now();
        let state = match resume {
            Some(state) => {
                if state.factors.len() != perm.len() {
                    return Err(crate::error::CoreError::InvalidConfig {
                        details: format!(
                            "resume state has {} factors for an order-{} tensor",
                            state.factors.len(),
                            perm.len()
                        ),
                    });
                }
                for (m, (f, (&i, &j))) in state
                    .factors
                    .iter()
                    .zip(sliced.shape().iter().zip(ranks_int.iter()))
                    .enumerate()
                {
                    if f.shape() != (i, j) {
                        return Err(crate::error::CoreError::InvalidConfig {
                            details: format!(
                                "resume factor {m} is {:?}, expected ({i}, {j})",
                                f.shape()
                            ),
                        });
                    }
                }
                state
            }
            None => SweepState::fresh(
                initialize_threaded(sliced, &ranks_int, self.cfg.threads)?.factors,
            ),
        };
        let initialization = t1.elapsed();

        let t2 = Instant::now();
        let iter_out = iterate_from(sliced, &ranks_int, state, &self.cfg, on_sweep)?;
        let iteration = t2.elapsed();

        let decomposition = internal_to_original(&perm, iter_out.factors, iter_out.core)?;
        Ok(DTuckerOutput {
            decomposition,
            trace: iter_out.trace,
            timings: PhaseTimings {
                approximation: Duration::ZERO,
                initialization,
                iteration,
            },
            sliced: sliced.clone(),
        })
    }
}

/// Automatic rank selection: finds the smallest uniform rank `J ≤ max_rank`
/// whose decomposition meets `target_error_sq` (relative squared error,
/// estimated via `‖X‖² − ‖G‖²`), compressing the tensor **once** with a
/// slice rank generous enough for `max_rank` and re-running only the cheap
/// initialization/iteration phases per candidate.
///
/// Returns the chosen output and rank; when even `max_rank` misses the
/// target, the `max_rank` result is returned (check its error).
pub fn decompose_to_target_error(
    x: &DenseTensor,
    max_rank: usize,
    target_error_sq: f64,
    base_cfg: &DTuckerConfig,
) -> Result<(DTuckerOutput, usize)> {
    if max_rank == 0 {
        return Err(crate::error::CoreError::InvalidConfig {
            details: "max_rank must be ≥ 1".into(),
        });
    }
    let clamp = |j: usize| -> Vec<usize> { x.shape().iter().map(|&i| j.min(i)).collect() };
    // Compress once, sized for the largest candidate.
    let mut cfg = base_cfg.clone();
    cfg.ranks = clamp(max_rank);
    cfg.slice_rank = Some(
        base_cfg
            .slice_rank
            .unwrap_or(max_rank + base_cfg.oversample)
            .max(max_rank + base_cfg.oversample),
    );
    cfg.validate(x.shape())?;
    let sliced = SlicedTensor::compress(x, &cfg)?;
    let norm_x_sq = x.fro_norm_sq();

    // Doubling search: 1, 2, 4, … then max_rank.
    let mut candidates: Vec<usize> = Vec::new();
    let mut j = 1usize;
    while j < max_rank {
        candidates.push(j);
        j *= 2;
    }
    candidates.push(max_rank);

    let mut best: Option<(DTuckerOutput, usize)> = None;
    for &j in &candidates {
        let mut cj = cfg.clone();
        cj.ranks = clamp(j);
        let out = DTucker::new(cj).decompose_sliced(&sliced)?;
        let err = out.decomposition.projection_error_sq(norm_x_sq);
        let done = err <= target_error_sq;
        best = Some((out, j));
        if done {
            break;
        }
    }
    best.ok_or_else(|| CoreError::Internal {
        details: "rank search produced no candidates".into(),
    })
}

/// Maps internal-order factors and core back to the original mode order.
fn internal_to_original(
    perm: &[usize],
    factors_int: Vec<Matrix>,
    core_int: DenseTensor,
) -> Result<TuckerDecomp> {
    let inv = inverse_permutation(perm);
    let mut factors: Vec<Matrix> = vec![Matrix::zeros(0, 0); perm.len()];
    for (p, f) in factors_int.into_iter().enumerate() {
        factors[perm[p]] = f;
    }
    let core = permute(&core_int, &inv)?;
    Ok(TuckerDecomp { core, factors })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtucker_tensor::random::low_rank_plus_noise;

    fn noisy(shape: &[usize], ranks: &[usize], noise: f64, seed: u64) -> DenseTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        low_rank_plus_noise(shape, ranks, noise, &mut rng).unwrap()
    }

    #[test]
    fn end_to_end_exact_recovery() {
        let x = noisy(&[25, 20, 12], &[3, 3, 3], 0.0, 1);
        let out = DTucker::new(DTuckerConfig::uniform(3, 3))
            .decompose(&x)
            .unwrap();
        assert!(out.decomposition.relative_error_sq(&x).unwrap() < 1e-9);
        assert!(out.decomposition.factors_orthonormal(1e-7));
        assert_eq!(out.decomposition.ranks(), &[3, 3, 3]);
        assert_eq!(out.decomposition.full_shape(), vec![25, 20, 12]);
    }

    #[test]
    fn end_to_end_noisy_close_to_optimal() {
        let noise = 0.1f64;
        let x = noisy(&[40, 30, 15], &[5, 5, 5], noise, 2);
        let out = DTucker::new(DTuckerConfig::uniform(5, 3).with_seed(3))
            .decompose(&x)
            .unwrap();
        let err = out.decomposition.relative_error_sq(&x).unwrap();
        let optimal = noise * noise / (1.0 + noise * noise);
        assert!(
            err < 1.5 * optimal + 1e-4,
            "error {err} vs optimal {optimal}"
        );
    }

    #[test]
    fn mode_reordering_is_transparent() {
        // Smallest mode first: D-Tucker must permute internally and return
        // factors in the original order anyway.
        let x = noisy(&[6, 30, 22], &[2, 4, 3], 0.0, 4);
        let out = DTucker::new(DTuckerConfig::new(&[2, 4, 3]))
            .decompose(&x)
            .unwrap();
        let d = &out.decomposition;
        assert_eq!(d.factors[0].shape(), (6, 2));
        assert_eq!(d.factors[1].shape(), (30, 4));
        assert_eq!(d.factors[2].shape(), (22, 3));
        assert_eq!(d.core.shape(), &[2, 4, 3]);
        assert!(d.relative_error_sq(&x).unwrap() < 1e-9);
    }

    #[test]
    fn order4_end_to_end() {
        let x = noisy(&[12, 10, 6, 5], &[2, 2, 2, 2], 0.02, 5);
        let out = DTucker::new(DTuckerConfig::uniform(2, 4).with_seed(6))
            .decompose(&x)
            .unwrap();
        let err = out.decomposition.relative_error_sq(&x).unwrap();
        assert!(err < 0.01, "error {err}");
    }

    #[test]
    fn decompose_sliced_reuses_compression() {
        let x = noisy(&[20, 18, 10], &[3, 3, 3], 0.05, 7);
        let cfg = DTuckerConfig::uniform(3, 3).with_seed(8);
        let sliced = crate::slices::SlicedTensor::compress(&x, &cfg).unwrap();
        let out = DTucker::new(cfg).decompose_sliced(&sliced).unwrap();
        assert_eq!(out.timings.approximation, Duration::ZERO);
        assert!(out.timings.initialization > Duration::ZERO);
        assert!(out.decomposition.relative_error_sq(&x).unwrap() < 0.05);
    }

    #[test]
    fn dtucker_init_converges_faster_than_random() {
        let x = noisy(&[30, 24, 14], &[4, 4, 4], 0.05, 9);
        let solver = DTucker::new(DTuckerConfig::uniform(4, 3).with_seed(10));
        let smart = solver
            .decompose_with_init(&x, InitStrategy::DTucker)
            .unwrap();
        let random = solver
            .decompose_with_init(&x, InitStrategy::Random)
            .unwrap();
        assert!(
            smart.trace.iterations() <= random.trace.iterations(),
            "smart {} sweeps vs random {}",
            smart.trace.iterations(),
            random.trace.iterations()
        );
    }

    #[test]
    fn validates_config() {
        let x = noisy(&[10, 10, 10], &[2, 2, 2], 0.0, 11);
        assert!(DTucker::new(DTuckerConfig::uniform(2, 2))
            .decompose(&x)
            .is_err());
        assert!(DTucker::new(DTuckerConfig::uniform(11, 3))
            .decompose(&x)
            .is_err());
    }

    #[test]
    fn rejects_non_finite_input() {
        let mut x = noisy(&[8, 8, 8], &[2, 2, 2], 0.0, 20);
        x.set(&[1, 2, 3], f64::NAN);
        let err = DTucker::new(DTuckerConfig::uniform(2, 3)).decompose(&x);
        assert!(matches!(
            err,
            Err(crate::error::CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn target_error_rank_search() {
        // Exactly rank-4 tensor: the search should stop at J=4, not at
        // max_rank.
        let x = noisy(&[24, 20, 16], &[4, 4, 4], 0.0, 21);
        let base = DTuckerConfig::uniform(1, 3).with_seed(22);
        let (out, rank) = decompose_to_target_error(&x, 10, 1e-6, &base).unwrap();
        assert_eq!(rank, 4);
        assert!(out.decomposition.relative_error_sq(&x).unwrap() < 1e-6);

        // An unreachable target returns the max_rank attempt.
        let (out, rank) = decompose_to_target_error(&x, 2, 1e-12, &base).unwrap();
        assert_eq!(rank, 2);
        assert!(out.decomposition.relative_error_sq(&x).unwrap() > 1e-12);

        assert!(decompose_to_target_error(&x, 0, 0.1, &base).is_err());
    }

    #[test]
    fn killed_run_resumes_bit_identical() {
        let x = noisy(&[22, 18, 9], &[3, 3, 3], 0.05, 40);
        let mut cfg = DTuckerConfig::uniform(3, 3).with_seed(41);
        // Zero tolerance: exactly max_iters sweeps, so there is always a
        // mid-run point to interrupt at.
        cfg.tolerance = 0.0;
        cfg.max_iters = 6;
        let sliced = crate::slices::SlicedTensor::compress(&x, &cfg).unwrap();
        let solver = DTucker::new(cfg);

        let baseline = solver
            .decompose_sliced_resumable(&sliced, None, &mut |_| Ok(()))
            .unwrap();
        assert!(baseline.trace.iterations() >= 3, "need sweeps to interrupt");

        // "Crash" after sweep 2, keeping the last snapshot as a checkpoint.
        let mut saved: Option<SweepState> = None;
        let killed = solver.decompose_sliced_resumable(&sliced, None, &mut |snap| {
            saved = Some(SweepState {
                sweep: snap.sweep,
                factors: snap.factors.to_vec(),
                trace: snap.trace.clone(),
            });
            if snap.sweep == 2 {
                return Err(crate::error::CoreError::InvalidConfig {
                    details: "simulated crash".into(),
                });
            }
            Ok(())
        });
        assert!(killed.is_err());
        let state = saved.unwrap();
        assert_eq!(state.sweep, 2);

        let resumed = solver
            .decompose_sliced_resumable(&sliced, Some(state), &mut |_| Ok(()))
            .unwrap();
        assert_eq!(
            resumed.trace.iterations(),
            baseline.trace.iterations(),
            "resume must follow the same convergence path"
        );
        for (a, b) in resumed
            .decomposition
            .factors
            .iter()
            .zip(baseline.decomposition.factors.iter())
        {
            assert_eq!(a, b, "resumed factors must be bit-identical");
        }
        assert_eq!(
            resumed.decomposition.core.as_slice(),
            baseline.decomposition.core.as_slice()
        );

        // A resume state already past max_iters still yields a usable
        // output (core recomputed from the factors). The state stores
        // factors in internal order.
        let done_state = SweepState {
            sweep: baseline.trace.iterations(),
            factors: sliced
                .perm()
                .iter()
                .map(|&p| baseline.decomposition.factors[p].clone())
                .collect(),
            trace: baseline.trace.clone(),
        };
        let mut c2 = solver.config().clone();
        c2.max_iters = done_state.sweep.max(1);
        let finished = DTucker::new(c2)
            .decompose_sliced_resumable(&sliced, Some(done_state), &mut |_| Ok(()))
            .unwrap();
        for (a, b) in finished
            .decomposition
            .factors
            .iter()
            .zip(baseline.decomposition.factors.iter())
        {
            assert_eq!(a, b);
        }

        // Shape validation on resume.
        let bad = SweepState::fresh(vec![Matrix::zeros(2, 2); 3]);
        assert!(solver
            .decompose_sliced_resumable(&sliced, Some(bad), &mut |_| Ok(()))
            .is_err());
    }

    #[test]
    fn timings_populated() {
        let x = noisy(&[15, 12, 8], &[2, 2, 2], 0.0, 12);
        let out = DTucker::new(DTuckerConfig::uniform(2, 3))
            .decompose(&x)
            .unwrap();
        assert!(out.timings.total() > Duration::ZERO);
        assert!(out.timings.approximation > Duration::ZERO);
        assert!(out.trace.iterations() >= 1);
        assert!(out.sliced.num_slices() > 0);
    }
}
