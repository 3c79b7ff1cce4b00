//! Persistent worker pool and the workspace-wide thread-count policy.
//!
//! Every parallel region in the workspace — GEMM row blocks, per-slice
//! SVDs, batched n-mode products — runs on one lazily-initialized pool of
//! detached worker threads instead of spawning scoped threads per call.
//! Workers are created on first use, grow on demand up to the largest
//! thread count ever requested, and persist for the life of the process.
//!
//! # Thread-count policy
//!
//! There is exactly one resolution rule, [`resolve_threads`]:
//!
//! 1. an explicit per-call request (`cfg.threads > 0`) wins;
//! 2. otherwise the `DTUCKER_THREADS` environment variable (read once);
//! 3. otherwise [`std::thread::available_parallelism`].
//!
//! # Flop threshold
//!
//! Auto-parallel kernels (GEMM on [`crate::Matrix`] values) stay serial
//! below [`par_flop_threshold`] flops, because distributing a product that
//! runs in microseconds costs more in wake-ups than it saves. The default,
//! [`DEFAULT_PAR_FLOP_THRESHOLD`], is 2²³ flops ≈ a 160³ product; it is a
//! measured crossover, not a magic constant, and can be tuned per process
//! with [`set_par_flop_threshold`].
//!
//! # Determinism
//!
//! The pool only ever partitions *output* ranges: each job writes a
//! disjoint chunk and no reduction crosses a chunk boundary, so results
//! are bit-identical for every thread count, including 1.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// Locks `m`, recovering from poisoning. The pool must stay usable after a
/// job panics (that is a documented feature, pinned by
/// `panic_propagates_and_pool_survives`), and every structure guarded here
/// (the task queue, the completion flag) is valid after any partial
/// update, so the poison flag carries no information for us.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Default for [`par_flop_threshold`]: products below ~8.4 Mflop run
/// serial.
pub const DEFAULT_PAR_FLOP_THRESHOLD: usize = 1 << 23;

/// Hard cap on pool workers, far above any sane thread request; guards
/// against a corrupt `DTUCKER_THREADS` value spawning unbounded threads.
pub const MAX_THREADS: usize = 256;

/// How many claimable chunks each thread gets (work-stealing slack so an
/// uneven chunk does not serialize the tail).
const CHUNKS_PER_THREAD: usize = 4;

static FLOP_THRESHOLD_SET: AtomicBool = AtomicBool::new(false);
static FLOP_THRESHOLD: AtomicUsize = AtomicUsize::new(DEFAULT_PAR_FLOP_THRESHOLD);

fn env_threads() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("DTUCKER_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
    })
}

/// Resolves a requested thread count through the policy chain
/// (request → `DTUCKER_THREADS` → available parallelism).
/// Always returns at least 1.
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested.min(MAX_THREADS);
    }
    if let Some(n) = env_threads() {
        return n.min(MAX_THREADS);
    }
    std::thread::available_parallelism().map_or(1, |n| n.get().min(MAX_THREADS))
}

/// Flop count below which auto-parallel kernels run serial.
pub fn par_flop_threshold() -> usize {
    if FLOP_THRESHOLD_SET.load(Ordering::Relaxed) {
        FLOP_THRESHOLD.load(Ordering::Relaxed)
    } else {
        DEFAULT_PAR_FLOP_THRESHOLD
    }
}

/// Overrides the parallel flop threshold (`None` restores the default).
/// `Some(0)` parallelizes everything; `Some(usize::MAX)` forces serial.
pub fn set_par_flop_threshold(threshold: Option<usize>) {
    match threshold {
        Some(t) => {
            FLOP_THRESHOLD.store(t, Ordering::Relaxed);
            FLOP_THRESHOLD_SET.store(true, Ordering::Relaxed);
        }
        None => FLOP_THRESHOLD_SET.store(false, Ordering::Relaxed),
    }
}

/// Thread count an auto-parallel kernel should use for a product of
/// `flops` floating-point operations: 1 below the threshold, the policy
/// default above it.
pub fn threads_for_flops(flops: usize) -> usize {
    if flops < par_flop_threshold() {
        1
    } else {
        resolve_threads(0)
    }
}

/// Lifetime-erased pointer to the job closure of an in-flight task.
///
/// Safety: the pointee outlives every dereference because [`run`] does not
/// return until all chunks have completed (`done == nchunks`), and workers
/// never touch a task after claiming a chunk index `>= nchunks`.
struct Job(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (the pointer type says so) and outlives
// every dereference — see the struct docs: `run` keeps the closure alive
// until all chunks are done, and workers never touch an exhausted task.
unsafe impl Send for Job {}
// SAFETY: same argument as `Send` above; shared references to the closure
// are handed to workers only while `run` holds it alive.
unsafe impl Sync for Job {}

/// One parallel region: a job closure plus chunk-claiming state.
struct Task {
    job: Job,
    nchunks: usize,
    /// Next unclaimed chunk index.
    next: AtomicUsize,
    /// Completed chunks.
    done: AtomicUsize,
    panicked: AtomicBool,
    complete: Mutex<bool>,
    cv: Condvar,
}

impl Task {
    fn new(job: Job, nchunks: usize) -> Self {
        Task {
            job,
            nchunks,
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            complete: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.nchunks
    }

    /// Claims and runs chunks until none remain.
    fn participate(&self) {
        loop {
            let idx = self.next.fetch_add(1, Ordering::Relaxed);
            if idx >= self.nchunks {
                return;
            }
            // SAFETY: `idx < nchunks` here, so the submitting `run` is
            // still blocked in `wait` and the closure behind the pointer
            // is alive (see `Job`).
            let f = unsafe { &*self.job.0 };
            if catch_unwind(AssertUnwindSafe(|| f(idx))).is_err() {
                self.panicked.store(true, Ordering::Release);
            }
            // AcqRel chains each finisher's writes to the last finisher,
            // whose mutex store hands them to the waiting submitter.
            if self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.nchunks {
                *lock_recover(&self.complete) = true;
                self.cv.notify_all();
            }
        }
    }

    fn wait(&self) {
        let mut g = lock_recover(&self.complete);
        while !*g {
            g = self
                .cv
                .wait(g)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

struct Pool {
    state: Mutex<PoolState>,
    work_cv: Condvar,
}

struct PoolState {
    queue: VecDeque<Arc<Task>>,
    workers: usize,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            queue: VecDeque::new(),
            workers: 0,
        }),
        work_cv: Condvar::new(),
    })
}

fn worker_loop() {
    let p = pool();
    loop {
        let task = {
            let mut st = lock_recover(&p.state);
            loop {
                while st.queue.front().is_some_and(|t| t.exhausted()) {
                    st.queue.pop_front();
                }
                if let Some(t) = st.queue.front() {
                    break Arc::clone(t);
                }
                st = p
                    .work_cv
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        task.participate();
    }
}

/// Number of worker threads currently alive (grows on demand; the
/// submitting thread itself is not counted).
pub fn spawned_workers() -> usize {
    lock_recover(&pool().state).workers
}

/// Runs `job(0..nchunks)` across `nthreads` threads (the caller plus pool
/// workers) and returns when every chunk has finished. Chunks are claimed
/// dynamically; each index runs exactly once. Panics in `job` are
/// collected and re-raised here after all chunks complete, leaving the
/// pool reusable.
pub fn run(nthreads: usize, nchunks: usize, job: &(dyn Fn(usize) + Sync)) {
    if nchunks == 0 {
        return;
    }
    let nthreads = nthreads.min(nchunks).min(MAX_THREADS);
    if nthreads <= 1 || nchunks <= 1 {
        for i in 0..nchunks {
            job(i);
        }
        return;
    }
    // SAFETY: lifetime erasure only; this function does not return until
    // `wait()` observes every chunk complete, so the `'static` reference
    // never outlives the actual borrow (see `Job`).
    let job_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(job) };
    let task = Arc::new(Task::new(Job(job_static as *const _), nchunks));
    {
        let p = pool();
        let mut st = lock_recover(&p.state);
        let want = nthreads - 1;
        while st.workers < want {
            let id = st.workers + 1;
            // Spawn failure (thread exhaustion) degrades to fewer workers
            // instead of aborting: the submitting thread participates
            // below, so the task always completes.
            match std::thread::Builder::new()
                .name(format!("dtucker-pool-{id}"))
                .spawn(worker_loop)
            {
                Ok(_) => st.workers += 1,
                Err(_) => break,
            }
        }
        st.queue.push_back(Arc::clone(&task));
        p.work_cv.notify_all();
    }
    task.participate();
    task.wait();
    if task.panicked.load(Ordering::Acquire) {
        // Re-raising the collected panic is this function's documented
        // contract (panics must not be swallowed); it is a propagation,
        // not a new failure mode.
        // dtucker-lint: allow(no-unwrap-in-lib)
        panic!("dtucker pool task panicked");
    }
}

/// Raw pointer wrapper so disjoint sub-slices can be carved out from
/// worker threads. Safety: chunks in [`parallel_chunks`] never overlap.
#[derive(Clone, Copy)]
struct SendPtr<T>(*mut T);

// SAFETY: sharing the wrapper only shares the pointer *value*; every
// dereference happens in `parallel_chunks`, whose chunks are disjoint by
// construction, so no two threads ever alias the same elements.
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Method (not field) access, so closures capture the `Sync` wrapper
    /// rather than precise-capturing the raw-pointer field.
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Splits `data` into contiguous chunks aligned to `granularity` elements
/// and calls `f(first_block_index, chunk)` for each, distributing chunks
/// over `nthreads` threads. Blocks of `granularity` elements are never
/// split (the final block may be short if `data.len()` is not a
/// multiple). `f` must only depend on the block index and chunk contents,
/// so results are identical for every thread count.
pub fn parallel_chunks<T, F>(data: &mut [T], granularity: usize, nthreads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(granularity > 0, "parallel_chunks: zero granularity");
    let len = data.len();
    if len == 0 {
        return;
    }
    let nthreads = nthreads.max(1);
    let nblocks = len.div_ceil(granularity);
    let nchunks = nblocks.min(nthreads * CHUNKS_PER_THREAD);
    if nthreads == 1 || nchunks <= 1 {
        f(0, data);
        return;
    }
    let blocks_per_chunk = nblocks.div_ceil(nchunks);
    let base = SendPtr(data.as_mut_ptr());
    let job = move |chunk: usize| {
        let ptr = base.get();
        let b0 = chunk * blocks_per_chunk;
        let b1 = (b0 + blocks_per_chunk).min(nblocks);
        if b0 >= b1 {
            return;
        }
        let start = b0 * granularity;
        let end = (b1 * granularity).min(len);
        // SAFETY: `start..end` lies within `data` (b1 ≤ nblocks and both
        // bounds are clamped to `len`), chunks for distinct `chunk`
        // indices are disjoint, and `run` keeps `data` mutably borrowed
        // until every chunk completes — so each sub-slice is a unique
        // &mut into live memory.
        let sub = unsafe { std::slice::from_raw_parts_mut(ptr.add(start), end - start) };
        f(b0, sub);
    };
    run(nthreads, nchunks, &job);
}

/// Evaluates `f(0..n)` across `nthreads` threads and collects the results
/// in index order. `f` runs exactly once per index.
pub fn parallel_map<T, F>(n: usize, nthreads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
    parallel_chunks(&mut out, 1, nthreads, |i0, chunk| {
        for (off, slot) in chunk.iter_mut().enumerate() {
            *slot = Some(f(i0 + off));
        }
    });
    // Every slot is written exactly once (`parallel_chunks` covers each
    // index once — pinned by `chunks_cover_every_element_once`); a missing
    // result is impossible, and silently dropping a slot would corrupt
    // caller indexing, so this stays a hard invariant check.
    out.into_iter()
        // dtucker-lint: allow(no-unwrap-in-lib)
        .map(|o| o.expect("parallel_map: missing result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_every_element_once() {
        for &(len, gran, threads) in &[
            (1usize, 1usize, 1usize),
            (7, 1, 3),
            (100, 1, 4),
            (100, 7, 4),
            (128, 8, 2),
            (3, 8, 4),
            (1000, 3, 8),
        ] {
            let mut data = vec![0u32; len];
            parallel_chunks(&mut data, gran, threads, |_, chunk| {
                for v in chunk.iter_mut() {
                    *v += 1;
                }
            });
            assert!(
                data.iter().all(|&v| v == 1),
                "len={len} gran={gran} threads={threads}"
            );
        }
    }

    #[test]
    fn chunk_block_indices_are_consistent() {
        let mut data = vec![0usize; 64];
        parallel_chunks(&mut data, 4, 3, |block0, chunk| {
            for (off, v) in chunk.iter_mut().enumerate() {
                *v = block0 * 4 + off;
            }
        });
        let expect: Vec<usize> = (0..64).collect();
        assert_eq!(data, expect);
    }

    #[test]
    fn map_matches_serial_for_every_thread_count() {
        let expect: Vec<u64> = (0..33).map(|i| (i as u64) * 17 + 3).collect();
        for threads in [1, 2, 3, 8] {
            let got = parallel_map(33, threads, |i| (i as u64) * 17 + 3);
            assert_eq!(got, expect, "threads={threads}");
        }
        assert!(parallel_map(0, 4, |i| i).is_empty());
    }

    #[test]
    fn nested_regions_complete() {
        let outer = parallel_map(4, 4, |i| {
            let inner = parallel_map(8, 4, move |j| i * 8 + j);
            inner.iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..4).map(|i| (0..8).map(|j| i * 8 + j).sum()).collect();
        assert_eq!(outer, expect);
    }

    #[test]
    fn panic_propagates_and_pool_survives() {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = catch_unwind(|| {
            parallel_map(8, 4, |i| {
                if i == 5 {
                    panic!("boom");
                }
                i
            })
        });
        std::panic::set_hook(hook);
        assert!(result.is_err());
        // The pool must still work after a panicking task.
        let v = parallel_map(16, 4, |i| i * 2);
        assert_eq!(v, (0..16).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn workers_are_reused_not_respawned() {
        let _ = parallel_map(64, 3, |i| i);
        let after_first = spawned_workers();
        for _ in 0..10 {
            let _ = parallel_map(64, 3, |i| i);
        }
        // Re-running at the same width must not grow the pool.
        assert_eq!(spawned_workers(), after_first);
    }

    #[test]
    fn explicit_request_wins_resolution() {
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(resolve_threads(1), 1);
        // Requests are capped.
        assert_eq!(resolve_threads(usize::MAX), MAX_THREADS);
    }

    #[test]
    fn flop_threshold_is_a_knob() {
        // Note: other tests in this binary also consult the global
        // threshold; confine overrides to values we restore.
        assert_eq!(par_flop_threshold(), DEFAULT_PAR_FLOP_THRESHOLD);
        set_par_flop_threshold(Some(100));
        assert_eq!(par_flop_threshold(), 100);
        assert_eq!(threads_for_flops(99), 1);
        assert!(threads_for_flops(100) >= 1);
        set_par_flop_threshold(Some(usize::MAX));
        assert_eq!(threads_for_flops(usize::MAX - 1), 1);
        set_par_flop_threshold(None);
        assert_eq!(par_flop_threshold(), DEFAULT_PAR_FLOP_THRESHOLD);
        assert_eq!(threads_for_flops(0), 1);
    }
}
