//! `query-ranges`: closed-loop in-process range queries against a
//! `QueryEngine` with a 64 MB cache, over the rank-10 traffic artifact.

use crate::check::{answer_matches, expected, Answer};
use crate::decompose::{prepare_artifact, ARTIFACT};
use crate::mix::{Class, Query, QueryStream, RANGE_MIX};
use crate::report::{median_scaled, peak_rss_mb, Metrics, Op, Report, Summary};
use crate::trace::Tracer;
use crate::Ctx;
use dtucker_core::TuckerDecomp;
use dtucker_query::{plan, QueryEngine, Range};
use dtucker_store::ArtifactStore;
use dtucker_tensor::ttm::ttm_rows;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// The engine's cache budget.
pub const CACHE_BYTES: usize = 64 << 20;
/// A query counts as on time within this many milliseconds.
pub const DEADLINE_MS: f64 = 50.0;
/// The reported tail. p90 falls inside the fresh 50% blocks; p99 would
/// too, but at ~1% it tracks host hiccups more than the program.
pub const TAIL_PCT: f64 = 90.0;

/// Opens the store and loads the artifact: the set-up a query service
/// pays before its first answer.
fn load(store_dir: &Path) -> Result<QueryEngine, String> {
    let store = ArtifactStore::open(store_dir).map_err(|e| e.to_string())?;
    let d = store
        .load_decomposition(ARTIFACT)
        .map_err(|e| e.to_string())?;
    QueryEngine::with_cache_bytes(d, CACHE_BYTES).map_err(|e| e.to_string())
}

/// Answers `q` through the engine's public entry point for its class.
pub fn answer(engine: &mut QueryEngine, q: &Query) -> Result<Answer, String> {
    let range = Range::new(q.bounds.clone());
    let r = match q.class {
        Class::Element => {
            let at: Vec<usize> = q.bounds.iter().map(|b| b.0).collect();
            engine.element(&at).map(Answer::Scalar)
        }
        Class::Fiber => {
            let mode = q.bounds.iter().position(|b| b.1 - b.0 > 1).unwrap_or(0);
            let at: Vec<usize> = q.bounds.iter().map(|b| b.0).collect();
            engine.fiber(mode, &at).map(Answer::Values)
        }
        Class::Sum => engine.sum(&range).map(Answer::Scalar),
        Class::Fro => engine.fro_norm(&range).map(Answer::Scalar),
        Class::Block10 | Class::Block50 => {
            engine.query(&range).map(|t| Answer::Values(t.into_vec()))
        }
    };
    r.map_err(|e| e.to_string())
}

/// FLOPs of the engine's `sum` path: per mode, the ones-vector image of
/// the factor's row window, then a 1×Jₙ TTM of the shrinking core.
fn sum_flops(ranks: &[usize], bounds: &[(usize, usize)]) -> f64 {
    let mut core: Vec<usize> = ranks.to_vec();
    let mut flops = 0.0;
    for (mode, &(lo, hi)) in bounds.iter().enumerate() {
        flops += ((hi - lo) * ranks[mode]) as f64;
        let others: usize = core
            .iter()
            .enumerate()
            .filter(|&(m, _)| m != mode)
            .map(|(_, &n)| n)
            .product();
        flops += 2.0 * (ranks[mode] * others) as f64;
        core[mode] = 1;
    }
    flops
}

/// Replays a 50% block's contraction steps through `ttm_rows` and returns
/// its GFLOP/s (FLOPs counted from the step shapes).
fn ttm_rows_gflops(
    tr: &mut Tracer,
    op: u64,
    d: &TuckerDecomp,
    range: &Range,
) -> Result<f64, String> {
    let p = plan(d.ranks(), range);
    let mut cur = d.core.clone();
    let mut flops = 0.0;
    let t = Instant::now();
    for step in &p.steps {
        let f = d.factor(step.mode).map_err(|e| e.to_string())?;
        let shape = cur.shape();
        let left: usize = shape[..step.mode].iter().product();
        let right: usize = shape[step.mode + 1..].iter().product();
        flops += 2.0 * ((step.rows.1 - step.rows.0) * shape[step.mode] * left * right) as f64;
        cur = tr
            .span("tensor.ttm_rows", op, || {
                ttm_rows(&cur, f, step.rows.0, step.rows.1, step.mode)
            })
            .map_err(|e| e.to_string())?;
    }
    std::hint::black_box(&cur);
    Ok(flops / t.elapsed().as_secs_f64() / 1e9)
}

#[derive(Default)]
struct ClassSamples {
    plan: Vec<Duration>,
    cache: Vec<Duration>,
    contract: Vec<Duration>,
    flops: Vec<f64>,
}

/// Runs the workload for `seconds`.
pub fn run(ctx: &Ctx, seconds: f64, traced: bool) -> Result<Report, String> {
    let store_dir = ctx.scratch("query-store")?;
    let rel_error = prepare_artifact(ctx, &store_dir)?;
    let mut setup = Vec::new();
    let mut engine = None;
    for _ in 0..ctx.setup_reps() {
        let t = Instant::now();
        engine = Some(load(&store_dir)?);
        setup.push(t.elapsed().as_secs_f64());
    }
    let mut engine = engine.ok_or("no set-up repetition ran")?;
    let full = engine.decomp().reconstruct().map_err(|e| e.to_string())?;
    let decomp = engine.decomp().clone();
    let ranks = decomp.ranks().to_vec();
    let mut stream = QueryStream::new(ctx.seed, full.shape(), &RANGE_MIX);

    let mut tr = Tracer::new(Instant::now());
    let mut per_class: BTreeMap<Class, ClassSamples> = BTreeMap::new();
    let mut gflops = Vec::new();
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut ops = Vec::new();
    let (mut failed, mut incorrect) = (0u64, 0u64);
    let mut counts: BTreeMap<Class, usize> = BTreeMap::new();
    let start = Instant::now();
    let mut op = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        let q = stream.next().ok_or("query stream ended")?;
        op += 1;
        let trace_op = traced && op.is_multiple_of(2);
        *counts.entry(q.class).or_default() += 1;
        let range = Range::new(q.bounds.clone());
        let before = engine.profile().clone();
        if trace_op {
            let p = tr.span("query.plan", op, || plan(&ranks, &range));
            let s = per_class.entry(q.class).or_default();
            s.plan.push(
                tr.durations("query.plan")
                    .last()
                    .copied()
                    .unwrap_or_default(),
            );
            s.flops.push(if q.class == Class::Sum {
                sum_flops(&ranks, &q.bounds)
            } else {
                p.flops
            });
        }
        let t0 = Instant::now();
        let got = if trace_op {
            tr.span(span_name(q.class), op, || answer(&mut engine, &q))
        } else {
            answer(&mut engine, &q)
        };
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        if trace_op {
            let after = engine.profile();
            let delta = |name: &str| {
                after
                    .get(name)
                    .unwrap_or_default()
                    .saturating_sub(before.get(name).unwrap_or_default())
            };
            let s = per_class.entry(q.class).or_default();
            s.cache.push(delta("cache"));
            s.contract.push(delta("contract"));
            traced_ms.push(latency_ms);
            if q.class == Class::Block50 {
                gflops.push(ttm_rows_gflops(&mut tr, op, &decomp, &range)?);
            }
        } else {
            plain_ms.push(latency_ms);
        }
        let ok = match got {
            Ok(a) => {
                let good = answer_matches(&a, &expected(&full, &q));
                if !good {
                    eprintln!(
                        "query-ranges: INCORRECT answer to {:?} {}",
                        q.class,
                        q.spec()
                    );
                    incorrect += 1;
                }
                good
            }
            Err(e) => {
                eprintln!("query-ranges: query {} failed: {e}", q.spec());
                false
            }
        };
        if !ok {
            failed += 1;
        }
        ops.push(Op {
            latency_ms,
            ok,
            client: 0,
        });
    }
    let stats = engine.cache_stats();
    let busy_s = ops.iter().map(|o| o.latency_ms).sum::<f64>() / 1e3;
    let summary = Summary {
        ops: &ops,
        attempted: op,
        clients: 1,
        deadline_ms: DEADLINE_MS,
        tail_pct: TAIL_PCT,
        busy_s,
        setup_s: &setup,
        rel_error,
        peak_rss_mb: peak_rss_mb("self"),
    };
    println!(
        "query-ranges: {} queries over {:.1} s ({}), cache hit rate {:.3}",
        ops.len(),
        start.elapsed().as_secs_f64(),
        counts
            .iter()
            .map(|(c, n)| format!("{} {n}", c.name()))
            .collect::<Vec<_>>()
            .join(", "),
        stats.hit_rate()
    );
    println!("  {}", summary.tail_note());
    let mut report = Report {
        attempted: op,
        failed,
        incorrect,
        end_to_end: summary.metrics(),
        layers: Metrics::default(),
    };
    if traced {
        let l = &mut report.layers;
        for c in Class::ALL {
            let s = per_class.remove(&c).unwrap_or_default();
            let n = c.name();
            l.set(
                format!("query.{n}.plan_us"),
                median_scaled(&s.plan, 1e6),
                "us",
            );
            l.set(
                format!("query.{n}.cache_us"),
                median_scaled(&s.cache, 1e6),
                "us",
            );
            l.set(
                format!("query.{n}.contract_us"),
                median_scaled(&s.contract, 1e6),
                "us",
            );
            l.set(
                format!("query.{n}.flops"),
                crate::stats::median(&s.flops),
                "FLOP",
            );
        }
        l.set("query.cache_hit_rate", stats.hit_rate(), "ratio");
        l.set(
            "tensor.ttm_rows_gflops",
            crate::stats::median(&gflops),
            "GFLOP/s",
        );
        crate::set_overhead(l, &plain_ms, &traced_ms);
        tr.write_jsonl(&ctx.trace_path("query-ranges"))
            .map_err(|e| e.to_string())?;
    }
    Ok(report)
}

fn span_name(c: Class) -> &'static str {
    match c {
        Class::Element => "query.element",
        Class::Fiber => "query.fiber",
        Class::Block10 => "query.block10",
        Class::Block50 => "query.block50",
        Class::Sum => "query.sum",
        Class::Fro => "query.fro",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_flops_count_the_window_images_and_the_shrinking_core() {
        // 2×3 rows times rank 2, then TTMs of a 2×2 core: 2·2·2 and 2·2·1.
        let f = sum_flops(&[2, 2], &[(0, 2), (0, 3)]);
        assert_eq!(f, (2 * 2 + 2 * 2 * 2 + 3 * 2 + 2 * 2) as f64);
    }
}
