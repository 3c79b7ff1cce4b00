//! Seeded workload inputs: the query mix and the request schedule.
//!
//! Everything here is a pure function of the `--seed` argument and the
//! tensor shape; the program under test only ever sees the generated
//! ranges and requests.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// The query classes of the range workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Class {
    /// One element.
    Element,
    /// A full fiber along one mode.
    Fiber,
    /// A block spanning 10% of every mode.
    Block10,
    /// A block spanning 50% of every mode.
    Block50,
    /// `sum` over a range spanning 50–100% of every mode.
    Sum,
    /// Frobenius norm over a block spanning 25% of every mode.
    Fro,
}

impl Class {
    /// Every class, in reporting order.
    pub const ALL: [Class; 6] = [
        Class::Element,
        Class::Fiber,
        Class::Block10,
        Class::Block50,
        Class::Sum,
        Class::Fro,
    ];

    /// Short name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Class::Element => "element",
            Class::Fiber => "fiber",
            Class::Block10 => "block10",
            Class::Block50 => "block50",
            Class::Sum => "sum",
            Class::Fro => "fro",
        }
    }
}

/// One generated query: its class and half-open per-mode bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// The query class.
    pub class: Class,
    /// `[lo, hi)` per mode.
    pub bounds: Vec<(usize, usize)>,
}

impl Query {
    /// The range spec the engine and server parse (`lo:hi` per mode, a
    /// bare index for extent 1).
    pub fn spec(&self) -> String {
        self.bounds
            .iter()
            .map(|&(lo, hi)| {
                if hi == lo + 1 {
                    lo.to_string()
                } else {
                    format!("{lo}:{hi}")
                }
            })
            .collect::<Vec<_>>()
            .join(",")
    }

    /// The HTTP request line target for this query on artifact `name`.
    pub fn target(&self, name: &str) -> String {
        match self.class {
            Class::Element => format!("/q/{name}?at={}", self.spec()),
            Class::Sum => format!("/q/{name}?range={}&agg=sum", self.spec()),
            Class::Fro => format!("/q/{name}?range={}&agg=fro", self.spec()),
            _ => format!("/q/{name}?range={}", self.spec()),
        }
    }
}

/// Class weights (out of their sum) of the in-process query workload.
/// 50% blocks make up 20% of queries and few of them hit the cache, so
/// p90 falls inside that class rather than on a class boundary.
pub const RANGE_MIX: [(Class, u32); 6] = [
    (Class::Element, 34),
    (Class::Fiber, 16),
    (Class::Block10, 14),
    (Class::Block50, 20),
    (Class::Sum, 10),
    (Class::Fro, 6),
];

/// Class weights of the HTTP workload: every response stays small (the
/// largest is a 10% block). The cheap classes (element, fiber, sum) make
/// up 45%, 10% blocks the next 40% and `fro` the top 15%, so the median
/// and p90 fall inside a class both when one client is starved and when
/// both are served fairly.
pub const SERVE_MIX: [(Class, u32); 5] = [
    (Class::Element, 25),
    (Class::Fiber, 10),
    (Class::Sum, 10),
    (Class::Block10, 40),
    (Class::Fro, 15),
];

/// Share of queries that repeat an entry of the hot pool.
pub const HOT_SHARE: f64 = 0.25;
/// Number of distinct hot queries; the pool holds the classes in the
/// mix's proportions.
pub const HOT_POOL: u32 = 20;

fn block(rng: &mut StdRng, shape: &[usize], share: f64) -> Vec<(usize, usize)> {
    shape
        .iter()
        .map(|&n| {
            let e = ((n as f64 * share).round() as usize).clamp(1, n);
            let lo = rng.gen_range(0..=n - e);
            (lo, lo + e)
        })
        .collect()
}

/// Draws one query of class `class`.
pub fn draw(rng: &mut StdRng, shape: &[usize], class: Class) -> Query {
    let bounds = match class {
        Class::Element => shape
            .iter()
            .map(|&n| {
                let i = rng.gen_range(0..n);
                (i, i + 1)
            })
            .collect(),
        Class::Fiber => {
            let mode = rng.gen_range(0..shape.len());
            shape
                .iter()
                .enumerate()
                .map(|(m, &n)| {
                    if m == mode {
                        (0, n)
                    } else {
                        let i = rng.gen_range(0..n);
                        (i, i + 1)
                    }
                })
                .collect()
        }
        Class::Block10 => block(rng, shape, 0.10),
        Class::Block50 => block(rng, shape, 0.50),
        Class::Sum => shape
            .iter()
            .map(|&n| {
                let e = rng.gen_range((n / 2).max(1)..=n);
                let lo = rng.gen_range(0..=n - e);
                (lo, lo + e)
            })
            .collect(),
        Class::Fro => block(rng, shape, 0.25),
    };
    Query { class, bounds }
}

fn shuffle(rng: &mut StdRng, v: &mut [Class]) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

/// An endless, seed-determined stream of queries: a fixed share repeats
/// entries of a small hot pool (so the engine's prefix cache has hits to
/// earn), the rest are fresh.
///
/// Fresh classes are dealt from a shuffled deck holding each class as many
/// times as its weight, and the hot pool holds the classes in the same
/// proportions, so the seed moves positions and order but not the mix:
/// the work a run does depends on the program, not on the seed's luck.
#[derive(Debug)]
pub struct QueryStream {
    rng: StdRng,
    shape: Vec<usize>,
    deck: Vec<Class>,
    dealt: usize,
    hot: Vec<Query>,
}

impl QueryStream {
    /// The stream for `seed` over a tensor of `shape`, drawing classes
    /// with the weights of `mix`.
    pub fn new(seed: u64, shape: &[usize], mix: &[(Class, u32)]) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5175_6572_7953_7472);
        let total: u32 = mix.iter().map(|&(_, w)| w).sum();
        let mut hot = Vec::new();
        for &(c, w) in mix {
            let n = (w * HOT_POOL + total / 2) / total;
            for _ in 0..n {
                hot.push(draw(&mut rng, shape, c));
            }
        }
        let deck = mix
            .iter()
            .flat_map(|&(c, w)| std::iter::repeat_n(c, w as usize))
            .collect::<Vec<_>>();
        QueryStream {
            rng,
            shape: shape.to_vec(),
            dealt: deck.len(),
            deck,
            hot,
        }
    }
}

impl Iterator for QueryStream {
    type Item = Query;

    fn next(&mut self) -> Option<Query> {
        if self.rng.gen_range(0.0..1.0) < HOT_SHARE {
            let i = self.rng.gen_range(0..self.hot.len());
            return Some(self.hot[i].clone());
        }
        if self.dealt == self.deck.len() {
            shuffle(&mut self.rng, &mut self.deck);
            self.dealt = 0;
        }
        let c = self.deck[self.dealt];
        self.dealt += 1;
        Some(draw(&mut self.rng, &self.shape, c))
    }
}

/// One scheduled request: when it is due (from the start of the run) and
/// what it asks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Slot {
    /// Due time, as an offset from the schedule's start.
    pub due: Duration,
    /// The query sent.
    pub query: Query,
}

/// The open-loop request schedule of one connection: `rate` requests per
/// second, evenly spaced, for `seconds`, with queries drawn from the
/// serve mix.
pub fn schedule(seed: u64, conn: usize, shape: &[usize], rate: f64, seconds: f64) -> Vec<Slot> {
    let n = (rate * seconds).floor() as usize;
    let stream = QueryStream::new(
        seed.wrapping_add(1 + conn as u64 * 0x9E37),
        shape,
        &SERVE_MIX,
    );
    stream
        .take(n)
        .enumerate()
        .map(|(i, query)| Slot {
            due: Duration::from_secs_f64(i as f64 / rate),
            query,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: [usize; 3] = [400, 96, 120];

    #[test]
    fn one_seed_gives_one_query_stream() {
        let a: Vec<Query> = QueryStream::new(11, &SHAPE, &RANGE_MIX).take(500).collect();
        let b: Vec<Query> = QueryStream::new(11, &SHAPE, &RANGE_MIX).take(500).collect();
        let c: Vec<Query> = QueryStream::new(12, &SHAPE, &RANGE_MIX).take(500).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn one_seed_gives_one_request_schedule() {
        let a = schedule(3, 0, &SHAPE, 40.0, 5.0);
        assert_eq!(a.len(), 200);
        assert_eq!(a, schedule(3, 0, &SHAPE, 40.0, 5.0));
        assert_ne!(a, schedule(4, 0, &SHAPE, 40.0, 5.0));
        // The two connections of one run ask different things.
        assert_ne!(a, schedule(3, 1, &SHAPE, 40.0, 5.0));
        assert_eq!(a[10].due, Duration::from_millis(250));
    }

    #[test]
    fn ranges_are_in_bounds_and_match_their_class() {
        for q in QueryStream::new(5, &SHAPE, &RANGE_MIX).take(2000) {
            for (&(lo, hi), &n) in q.bounds.iter().zip(&SHAPE) {
                assert!(lo < hi && hi <= n, "{q:?}");
            }
            let extents: Vec<usize> = q.bounds.iter().map(|&(lo, hi)| hi - lo).collect();
            match q.class {
                Class::Element => assert_eq!(extents, [1, 1, 1]),
                Class::Fiber => assert_eq!(extents.iter().filter(|&&e| e > 1).count(), 1),
                Class::Block10 => assert_eq!(extents, [40, 10, 12]),
                Class::Block50 => assert_eq!(extents, [200, 48, 60]),
                Class::Fro => assert_eq!(extents, [100, 24, 30]),
                Class::Sum => assert!(extents.iter().zip(&SHAPE).all(|(&e, &n)| 2 * e >= n)),
            }
        }
    }

    #[test]
    fn hot_pool_holds_the_mix_in_proportion() {
        let s = QueryStream::new(2, &SHAPE, &SERVE_MIX);
        let count = |c| s.hot.iter().filter(|q| q.class == c).count();
        assert_eq!(s.hot.len(), HOT_POOL as usize);
        assert_eq!(count(Class::Block10), 8);
        assert_eq!(count(Class::Element), 5);
        assert_eq!(count(Class::Block50), 0);
        let r = QueryStream::new(2, &SHAPE, &RANGE_MIX);
        assert_eq!(r.hot.len(), HOT_POOL as usize);
        assert_eq!(
            r.hot.iter().filter(|q| q.class == Class::Block50).count(),
            4
        );
    }

    #[test]
    fn mix_shares_follow_the_weights() {
        let n = 20_000;
        let block50 = QueryStream::new(9, &SHAPE, &RANGE_MIX)
            .take(n)
            .filter(|q| q.class == Class::Block50)
            .count() as f64
            / n as f64;
        assert!((block50 - 0.20).abs() < 0.02, "{block50}");
    }

    #[test]
    fn specs_and_targets_render_like_the_cli() {
        let q = Query {
            class: Class::Sum,
            bounds: vec![(3, 4), (0, 96), (5, 9)],
        };
        assert_eq!(q.spec(), "3,0:96,5:9");
        assert_eq!(q.target("t"), "/q/t?range=3,0:96,5:9&agg=sum");
    }
}
