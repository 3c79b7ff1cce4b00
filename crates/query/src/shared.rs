//! Thread-safe sharing of the query engine.
//!
//! [`QueryEngine`] is deliberately single-threaded: its LRU cache and
//! phase profile mutate on every query, so sharing one engine behind a
//! global lock would serialize a server's whole request path.
//! [`SharedQueryEngine`] instead keeps **one shard per worker thread** —
//! each shard is a full `QueryEngine` with its own cache slice — over a
//! single reference-counted copy of the decomposition. A worker pins
//! itself to its shard and never contends with the others; cross-shard
//! operations (counter aggregation for `/metrics`, merged profiles) take
//! each shard lock briefly in turn.
//!
//! Sharding cannot change answers: engine results are bit-identical
//! regardless of cache state (pinned by the engine's own tests), so which
//! shard serves a query — or how the byte budget is split — is invisible
//! in the response bytes. The tests below re-pin that property through
//! this type across shard counts.

use crate::cache::CacheStats;
use crate::engine::QueryEngine;
use crate::error::Result;
use crate::range::Range;
use dtucker_core::{PhaseProfile, TuckerDecomp};
use dtucker_tensor::DenseTensor;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Locks a shard, recovering from poisoning: a panic in another thread
/// mid-query can at worst leave stale cache entries behind, and cached
/// intermediates are always valid values (they are inserted whole), so
/// the poison flag carries no information for us.
fn lock(m: &Mutex<QueryEngine>) -> MutexGuard<'_, QueryEngine> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A sharded, `Send + Sync` front over [`QueryEngine`]: one engine (and
/// cache slice) per worker, one shared decomposition.
#[derive(Debug)]
pub struct SharedQueryEngine {
    decomp: Arc<TuckerDecomp>,
    shape: Vec<usize>,
    ranks: Vec<usize>,
    shards: Vec<Mutex<QueryEngine>>,
    next: AtomicUsize,
}

impl SharedQueryEngine {
    /// Builds `shards` engines (at least one) over one shared copy of
    /// `decomp`, splitting `total_cache_bytes` evenly across the shards'
    /// LRU budgets (0 disables caching everywhere).
    pub fn new(decomp: TuckerDecomp, shards: usize, total_cache_bytes: usize) -> Result<Self> {
        let shards = shards.max(1);
        let decomp = Arc::new(decomp);
        let per_shard = total_cache_bytes / shards;
        let mut engines = Vec::with_capacity(shards);
        for _ in 0..shards {
            engines.push(Mutex::new(QueryEngine::from_shared(
                Arc::clone(&decomp),
                per_shard,
            )?));
        }
        Ok(SharedQueryEngine {
            shape: decomp.full_shape(),
            ranks: decomp.ranks().to_vec(),
            decomp,
            shards: engines,
            next: AtomicUsize::new(0),
        })
    }

    /// Number of shards (worker slots).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shape of the tensor the decomposition approximates.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Multilinear ranks of the decomposition.
    pub fn ranks(&self) -> &[usize] {
        &self.ranks
    }

    /// The decomposition being served.
    pub fn decomp(&self) -> &TuckerDecomp {
        &self.decomp
    }

    fn shard(&self, hint: usize) -> &Mutex<QueryEngine> {
        &self.shards[hint % self.shards.len()]
    }

    /// Round-robin shard pick for callers with no stable worker identity.
    fn rotate(&self) -> usize {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Reconstructs `range` on the shard `hint % shard_count` (workers
    /// pass their own index so repeated queries stay cache-warm on one
    /// shard).
    pub fn query_on(&self, hint: usize, range: &Range) -> Result<DenseTensor> {
        lock(self.shard(hint)).query(range)
    }

    /// Reconstructs `range` on a round-robin shard.
    pub fn query(&self, range: &Range) -> Result<DenseTensor> {
        self.query_on(self.rotate(), range)
    }

    /// Sum over `range` on the shard `hint % shard_count`.
    pub fn sum_on(&self, hint: usize, range: &Range) -> Result<f64> {
        lock(self.shard(hint)).sum(range)
    }

    /// Mean over `range` on the shard `hint % shard_count`.
    pub fn mean_on(&self, hint: usize, range: &Range) -> Result<f64> {
        lock(self.shard(hint)).mean(range)
    }

    /// Frobenius norm over `range` on the shard `hint % shard_count`.
    pub fn fro_norm_on(&self, hint: usize, range: &Range) -> Result<f64> {
        lock(self.shard(hint)).fro_norm(range)
    }

    /// Runs a whole batch through one shard so its shared-prefix
    /// reordering and cache reuse happen exactly as in
    /// [`QueryEngine::query_batch`].
    pub fn query_batch_on(&self, hint: usize, ranges: &[Range]) -> Result<Vec<DenseTensor>> {
        lock(self.shard(hint)).query_batch(ranges)
    }

    /// Cache counters summed across every shard.
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for s in &self.shards {
            total += lock(s).cache_stats();
        }
        total
    }

    /// Cache payload bytes currently held, summed across shards.
    pub fn cache_used_bytes(&self) -> usize {
        self.shards.iter().map(|s| lock(s).cache_used_bytes()).sum()
    }

    /// Total configured cache budget (sum of the per-shard budgets).
    pub fn cache_budget_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock(s).cache_budget_bytes())
            .sum()
    }

    /// Per-phase timings merged across every shard's engine.
    pub fn profile(&self) -> PhaseProfile {
        let mut merged = PhaseProfile::new();
        for s in &self.shards {
            merged.merge(lock(s).profile());
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtucker_tensor::random::random_tucker;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn decomp(seed: u64) -> TuckerDecomp {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = random_tucker(&[9, 7, 6], &[3, 2, 4], &mut rng).unwrap();
        TuckerDecomp {
            core: m.core,
            factors: m.factors,
        }
    }

    #[test]
    fn shard_counts_do_not_change_bits() {
        // The pinned contract the serve subsystem builds on: any shard,
        // any shard count, warm or cold — same bytes as a direct engine.
        let mut direct = QueryEngine::new(decomp(1)).unwrap();
        let ranges = [
            Range::new(vec![(0, 9), (0, 7), (0, 6)]),
            Range::new(vec![(2, 5), (1, 2), (0, 6)]),
            Range::new(vec![(8, 9), (6, 7), (5, 6)]),
        ];
        for shards in [1, 2, 8] {
            let shared = SharedQueryEngine::new(decomp(1), shards, 1 << 20).unwrap();
            assert_eq!(shared.shard_count(), shards);
            for r in &ranges {
                let want = direct.query(r).unwrap();
                for hint in 0..shards {
                    let got = shared.query_on(hint, r).unwrap();
                    assert_eq!(got.shape(), want.shape());
                    for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
                        assert_eq!(a.to_bits(), b.to_bits());
                    }
                }
                // Round-robin path and aggregates agree too.
                let rr = shared.query(r).unwrap();
                assert_eq!(rr.as_slice()[0].to_bits(), want.as_slice()[0].to_bits());
                assert_eq!(
                    shared.sum_on(0, r).unwrap().to_bits(),
                    direct.sum(r).unwrap().to_bits()
                );
            }
        }
    }

    #[test]
    fn batch_and_scalar_helpers_match_direct() {
        let mut direct = QueryEngine::new(decomp(2)).unwrap();
        let shared = SharedQueryEngine::new(decomp(2), 3, 1 << 20).unwrap();
        let ranges = vec![
            Range::new(vec![(0, 2), (0, 7), (0, 6)]),
            Range::new(vec![(4, 5), (2, 3), (1, 2)]),
            Range::new(vec![(0, 2), (0, 7), (2, 4)]),
        ];
        let want = direct.query_batch(&ranges).unwrap();
        let got = shared.query_batch_on(1, &ranges).unwrap();
        for (w, g) in want.iter().zip(&got) {
            for (a, b) in w.as_slice().iter().zip(g.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        let r = &ranges[0];
        assert_eq!(
            shared.mean_on(0, r).unwrap().to_bits(),
            direct.mean(r).unwrap().to_bits()
        );
        assert_eq!(
            shared.fro_norm_on(0, r).unwrap().to_bits(),
            direct.fro_norm(r).unwrap().to_bits()
        );
    }

    #[test]
    fn counters_aggregate_across_shards() {
        let shared = SharedQueryEngine::new(decomp(3), 2, 1 << 20).unwrap();
        let r = Range::new(vec![(2, 3), (1, 3), (0, 2)]);
        // Warm shard 0 twice, shard 1 once.
        shared.query_on(0, &r).unwrap();
        shared.query_on(0, &r).unwrap();
        shared.query_on(1, &r).unwrap();
        let stats = shared.cache_stats();
        assert!(stats.hits >= 1, "{stats:?}");
        assert!(stats.insertions >= 2, "{stats:?}");
        assert!(shared.cache_used_bytes() > 0);
        assert_eq!(shared.cache_budget_bytes(), (1 << 20) / 2 * 2);
        let p = shared.profile();
        assert_eq!(p.count("plan"), 3);
        assert!(shared.shape() == [9, 7, 6] && shared.ranks() == [3, 2, 4]);
        assert_eq!(shared.decomp().ranks(), &[3, 2, 4]);
    }

    #[test]
    fn shards_are_usable_from_many_threads() {
        let mut direct = QueryEngine::new(decomp(4)).unwrap();
        let r = Range::new(vec![(1, 4), (0, 6), (2, 5)]);
        let want: Vec<u64> = direct
            .query(&r)
            .unwrap()
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let shared = Arc::new(SharedQueryEngine::new(decomp(4), 4, 1 << 20).unwrap());
        let mut handles = Vec::new();
        for t in 0..4 {
            let s = Arc::clone(&shared);
            let r = r.clone();
            let want = want.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..8 {
                    let got = s.query_on(t, &r).unwrap();
                    let bits: Vec<u64> = got.as_slice().iter().map(|v| v.to_bits()).collect();
                    assert_eq!(bits, want);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Zero-budget sharing still answers correctly.
        let uncached = SharedQueryEngine::new(decomp(4), 2, 0).unwrap();
        let got = uncached.query_on(0, &r).unwrap();
        assert_eq!(
            got.as_slice()[0].to_bits(),
            direct.query(&r).unwrap().as_slice()[0].to_bits()
        );
        assert_eq!(uncached.cache_stats().insertions, 0);
    }
}
