//! Profiling: per-index reconstruction residuals along a mode, and the
//! shared per-phase wall-clock accumulator.
//!
//! The discovery workflows of the paper's lineage (anomalous ranges, trend
//! changes) all reduce to "which indices of a mode does the low-rank model
//! explain badly?" — this module computes those profiles without
//! materializing more than one hyperslab at a time beyond the full
//! reconstruction.
//!
//! [`PhaseProfile`] is the query engine's phase-timing accumulator: it
//! reports the plan/contract/cache split of every query.

use crate::error::{CoreError, Result};
use crate::tucker::TuckerDecomp;
use dtucker_tensor::dense::DenseTensor;
use std::time::Duration;

/// Accumulating per-phase wall-clock profile: an ordered list of named
/// phases, each with a total duration and an invocation count.
///
/// Phases appear in first-recorded order; recording an existing name
/// accumulates into it. The type is intentionally generic — decomposition
/// phases, query-engine phases, and any future subsystem all share it
/// instead of inventing parallel timing structs.
#[derive(Debug, Clone, Default)]
pub struct PhaseProfile {
    phases: Vec<(String, Duration, u64)>,
}

impl PhaseProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `elapsed` to phase `name` (creating it at the end of the
    /// ordering on first use) and bumps its invocation count.
    pub fn record(&mut self, name: &str, elapsed: Duration) {
        self.record_n(name, elapsed, 1);
    }

    /// Adds an already-aggregated total: `elapsed` across `count`
    /// invocations of phase `name`. This is the bridge for subsystems that
    /// accumulate timings in counters (e.g. a server's per-route atomics)
    /// and fold them into a profile after the fact; `count == 0` records
    /// nothing.
    pub fn record_n(&mut self, name: &str, elapsed: Duration, count: u64) {
        if count == 0 {
            return;
        }
        if let Some(p) = self.phases.iter_mut().find(|(n, _, _)| n == name) {
            p.1 += elapsed;
            p.2 += count;
        } else {
            self.phases.push((name.to_string(), elapsed, count));
        }
    }

    /// Total time recorded for `name`, if the phase exists.
    pub fn get(&self, name: &str) -> Option<Duration> {
        self.phases
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, d, _)| d)
    }

    /// Invocation count for `name` (0 if the phase was never recorded).
    pub fn count(&self, name: &str) -> u64 {
        self.phases
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(0, |&(_, _, c)| c)
    }

    /// The phases as `(name, total, count)` in first-recorded order.
    pub fn phases(&self) -> impl Iterator<Item = (&str, Duration, u64)> {
        self.phases.iter().map(|(n, d, c)| (n.as_str(), *d, *c))
    }

    /// Sum over all phases.
    pub fn total(&self) -> Duration {
        self.phases.iter().map(|&(_, d, _)| d).sum()
    }

    /// Folds another profile into this one (phase-wise accumulation).
    pub fn merge(&mut self, other: &PhaseProfile) {
        for (name, d, c) in &other.phases {
            if let Some(p) = self.phases.iter_mut().find(|(n, _, _)| n == name) {
                p.1 += *d;
                p.2 += *c;
            } else {
                self.phases.push((name.clone(), *d, *c));
            }
        }
    }

    /// Human-readable report: one aligned line per phase with its share of
    /// the total.
    pub fn report(&self) -> String {
        let total = self.total().as_secs_f64();
        let width = self
            .phases
            .iter()
            .map(|(n, _, _)| n.len())
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        for (name, d, count) in self.phases() {
            let secs = d.as_secs_f64();
            let share = if total > 0.0 {
                100.0 * secs / total
            } else {
                0.0
            };
            out.push_str(&format!(
                "{name:<width$}  {secs:>9.6}s  {share:>5.1}%  ({count} call{})\n",
                if count == 1 { "" } else { "s" },
            ));
        }
        out.push_str(&format!("{:<width$}  {total:>9.6}s", "total"));
        out
    }
}

/// Relative squared residual of every index along the **last** mode:
/// `profile[t] = ‖X[..,t] − X̂[..,t]‖² / ‖X[..,t]‖²`
/// (`0` for all-zero hyperslabs).
///
/// This is the per-timestep error curve used for anomaly scans on temporal
/// tensors.
pub fn error_profile_last_mode(d: &TuckerDecomp, x: &DenseTensor) -> Result<Vec<f64>> {
    if d.full_shape() != x.shape() {
        return Err(CoreError::InvalidConfig {
            details: format!(
                "decomposition shape {:?} does not match tensor {:?}",
                d.full_shape(),
                x.shape()
            ),
        });
    }
    let rec = d.reconstruct()?;
    let n = x.order();
    let last = x.shape()[n - 1];
    let stride: usize = x.shape()[..n - 1].iter().product();
    let xs = x.as_slice();
    let rs = rec.as_slice();
    let mut out = Vec::with_capacity(last);
    for t in 0..last {
        let a = &xs[t * stride..(t + 1) * stride];
        let b = &rs[t * stride..(t + 1) * stride];
        let mut num = 0.0;
        let mut den = 0.0;
        for (&av, &bv) in a.iter().zip(b.iter()) {
            num += (av - bv) * (av - bv);
            den += av * av;
        }
        out.push(if den == 0.0 { 0.0 } else { num / den });
    }
    Ok(out)
}

/// Indices whose residual exceeds `mean + k·std` of the profile — the
/// simple anomaly rule the discovery experiments use.
pub fn anomalous_indices(profile: &[f64], k_sigma: f64) -> Vec<usize> {
    if profile.is_empty() {
        return vec![];
    }
    let n = profile.len() as f64;
    let mean = profile.iter().sum::<f64>() / n;
    let var = profile
        .iter()
        .map(|&p| (p - mean) * (p - mean))
        .sum::<f64>()
        / n;
    let threshold = mean + k_sigma * var.sqrt();
    profile
        .iter()
        .enumerate()
        .filter(|&(_, &p)| p > threshold)
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DTuckerConfig;
    use crate::dtucker::DTucker;
    use dtucker_tensor::random::low_rank_plus_noise;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn profile_flags_a_corrupted_timestep() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut x = low_rank_plus_noise(&[16, 12, 30], &[2, 2, 2], 0.02, &mut rng).unwrap();
        // Corrupt timestep 17 with full-rank junk scaled to the data: a
        // low-rank model cannot absorb it, and it cannot dominate the
        // whole tensor either.
        let rms = x.fro_norm() / (x.numel() as f64).sqrt();
        let amp = rms;
        for i in 0..16 {
            for j in 0..12 {
                let v = x.get(&[i, j, 17]);
                let sign = if (i * 7 + j * 13 + i * j) % 3 == 0 {
                    1.0
                } else {
                    -1.0
                };
                x.set(&[i, j, 17], v + sign * amp);
            }
        }
        let out = DTucker::new(DTuckerConfig::uniform(2, 3).with_seed(2))
            .decompose(&x)
            .unwrap();
        let profile = error_profile_last_mode(&out.decomposition, &x).unwrap();
        assert_eq!(profile.len(), 30);
        let worst = profile
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(worst, 17, "profile {profile:?}");
        let flagged = anomalous_indices(&profile, 2.0);
        assert!(flagged.contains(&17));
        assert!(
            flagged.len() <= 3,
            "only the corrupted step should stand out: {flagged:?}"
        );
    }

    #[test]
    fn phase_profile_accumulates_and_reports() {
        let mut p = PhaseProfile::new();
        p.record("plan", Duration::from_millis(2));
        p.record("contract", Duration::from_millis(10));
        p.record("plan", Duration::from_millis(3));
        assert_eq!(p.get("plan"), Some(Duration::from_millis(5)));
        assert_eq!(p.count("plan"), 2);
        assert_eq!(p.count("cache"), 0);
        assert_eq!(p.total(), Duration::from_millis(15));
        // First-recorded order is preserved.
        let names: Vec<&str> = p.phases().map(|(n, _, _)| n).collect();
        assert_eq!(names, vec!["plan", "contract"]);

        let mut q = PhaseProfile::new();
        q.record("contract", Duration::from_millis(1));
        q.record("cache", Duration::from_millis(4));
        p.merge(&q);
        assert_eq!(p.get("contract"), Some(Duration::from_millis(11)));
        assert_eq!(p.get("cache"), Some(Duration::from_millis(4)));
        let report = p.report();
        assert!(report.contains("plan"), "{report}");
        assert!(report.contains("total"), "{report}");
        assert!(PhaseProfile::new().report().contains("total"));
    }

    #[test]
    fn record_n_bridges_aggregated_counters() {
        let mut p = PhaseProfile::new();
        p.record_n("handle", Duration::from_millis(30), 3);
        p.record("handle", Duration::from_millis(5));
        assert_eq!(p.get("handle"), Some(Duration::from_millis(35)));
        assert_eq!(p.count("handle"), 4);
        // A zero count records nothing, not an empty phase.
        p.record_n("idle", Duration::from_millis(9), 0);
        assert_eq!(p.count("idle"), 0);
        assert!(p.get("idle").is_none());
    }

    #[test]
    fn profile_shape_mismatch_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = low_rank_plus_noise(&[10, 8, 6], &[2, 2, 2], 0.0, &mut rng).unwrap();
        let y = low_rank_plus_noise(&[10, 8, 7], &[2, 2, 2], 0.0, &mut rng).unwrap();
        let out = DTucker::new(DTuckerConfig::uniform(2, 3))
            .decompose(&x)
            .unwrap();
        assert!(error_profile_last_mode(&out.decomposition, &y).is_err());
    }

    #[test]
    fn clean_model_has_flat_profile() {
        let mut rng = StdRng::seed_from_u64(4);
        let x = low_rank_plus_noise(&[12, 10, 20], &[2, 2, 2], 0.0, &mut rng).unwrap();
        let out = DTucker::new(DTuckerConfig::uniform(2, 3).with_seed(5))
            .decompose(&x)
            .unwrap();
        let profile = error_profile_last_mode(&out.decomposition, &x).unwrap();
        assert!(profile.iter().all(|&p| p < 1e-9), "{profile:?}");
        assert!(anomalous_indices(&profile, 3.0).len() <= 2);
        assert!(anomalous_indices(&[], 2.0).is_empty());
    }
}
