//! Shared query/aggregate machinery.

use pov_sketch::{Buckets, FmSketch, HistogramSketch, KmvSketch};
use pov_topology::HostId;
use rand::rngs::SmallRng;
use serde::{Deserialize, Serialize};

/// The aggregate functions the paper considers (§1: *min, max, count,
/// sum and average*).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Aggregate {
    /// Minimum attribute value.
    Min,
    /// Maximum attribute value.
    Max,
    /// Number of hosts.
    Count,
    /// Sum of attribute values.
    Sum,
    /// Average attribute value (= Sum / Count).
    Average,
}

impl Aggregate {
    /// Whether the conventional combine operator is already
    /// duplicate-insensitive (§5.1: min/max) — such queries need no
    /// sketch even under WILDFIRE.
    pub fn is_duplicate_insensitive(self) -> bool {
        matches!(self, Aggregate::Min | Aggregate::Max)
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Aggregate::Min => "min",
            Aggregate::Max => "max",
            Aggregate::Count => "count",
            Aggregate::Sum => "sum",
            Aggregate::Average => "avg",
        }
    }

    /// Ground truth of the aggregate over a value multiset (the oracle's
    /// `q(H)`); `None` for an empty host set where min/max/avg are
    /// undefined.
    pub fn ground_truth(self, values: &[u64]) -> Option<f64> {
        if values.is_empty() {
            return match self {
                Aggregate::Count | Aggregate::Sum => Some(0.0),
                _ => None,
            };
        }
        Some(match self {
            Aggregate::Min => *values.iter().min().expect("non-empty") as f64,
            Aggregate::Max => *values.iter().max().expect("non-empty") as f64,
            Aggregate::Count => values.len() as f64,
            Aggregate::Sum => values.iter().sum::<u64>() as f64,
            Aggregate::Average => values.iter().sum::<u64>() as f64 / values.len() as f64,
        })
    }
}

/// Everything the Broadcast message carries (§5.1: the query, the
/// initiation time — implicitly 0 — and an overestimate `D̂` of the
/// stable diameter; §5.2 adds the repetition count `c`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuerySpec {
    /// Which aggregate to compute.
    pub aggregate: Aggregate,
    /// Overestimate of the stable diameter; protocols run for `2·D̂·δ`.
    pub d_hat: u32,
    /// FM repetitions `c` for sketched count/sum/avg (ignored by exact
    /// partials).
    pub c: usize,
}

impl QuerySpec {
    /// Absolute deadline `2·D̂·δ` in ticks.
    pub fn deadline(&self) -> u64 {
        2 * self.d_hat as u64
    }
}

/// Classify neighbour `h` in a tree host's echo set `heard`, kept
/// sorted: SPANNINGTREE and DAG only ever ask how many neighbours are
/// classified, so the set needs a duplicate-free insert and `len()`.
/// The first insert reserves the `expected` neighbours the host waits
/// for: one exact allocation, not a doubling regrow, per host.
pub(crate) fn note_heard(heard: &mut Vec<HostId>, h: HostId, expected: usize) {
    if let Err(i) = heard.binary_search(&h) {
        if heard.capacity() == 0 {
            heard.reserve_exact(expected);
        }
        heard.insert(i, h);
    }
}

/// A partial aggregate `A_h` (§5.1) — the state a host contributes and
/// combines during convergecast.
///
/// Exact variants use the conventional combine (+ / min / max) and are
/// **duplicate-sensitive** for count/sum: correct along a tree
/// (SPANNINGTREE), wrong if ever combined twice. Sketched variants use
/// FM bit-vectors with OR-combine and are duplicate-insensitive, which
/// is what WILDFIRE and DIRECTEDACYCLICGRAPH require.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Partial {
    /// Running minimum.
    Min(u64),
    /// Running maximum.
    Max(u64),
    /// Exact (duplicate-sensitive) count.
    ExactCount(u64),
    /// Exact (duplicate-sensitive) sum.
    ExactSum(u64),
    /// Exact (duplicate-sensitive) average state.
    ExactAvg {
        /// Sum of contributing values.
        sum: u64,
        /// Number of contributing hosts.
        count: u64,
    },
    /// Duplicate-insensitive count sketch.
    SketchCount(FmSketch),
    /// Duplicate-insensitive sum sketch.
    SketchSum(FmSketch),
    /// Duplicate-insensitive average state (sum and count sketches).
    SketchAvg {
        /// FM sketch of the value total.
        sum: FmSketch,
        /// FM sketch of the host count.
        count: FmSketch,
    },
    /// Extension (§7): duplicate-insensitive count via a KMV sketch.
    KmvCount(KmvSketch),
    /// Extension (§7): duplicate-insensitive value histogram (per-bucket
    /// FM counts); answers bucket counts, quantiles and averages from a
    /// single convergecast.
    Histogram(HistogramSketch),
}

impl Partial {
    /// A host's initial partial aggregate for an *exact* protocol
    /// (SPANNINGTREE) given its attribute value.
    pub fn init_exact(aggregate: Aggregate, value: u64) -> Partial {
        match aggregate {
            Aggregate::Min => Partial::Min(value),
            Aggregate::Max => Partial::Max(value),
            Aggregate::Count => Partial::ExactCount(1),
            Aggregate::Sum => Partial::ExactSum(value),
            Aggregate::Average => Partial::ExactAvg {
                sum: value,
                count: 1,
            },
        }
    }

    /// A host's initial partial aggregate for a *duplicate-insensitive*
    /// protocol (WILDFIRE, DAG): min/max stay exact (already
    /// duplicate-insensitive), count/sum/avg become FM sketches seeded by
    /// this host's pretend-elements (§5.2).
    pub fn init_sketched(
        aggregate: Aggregate,
        value: u64,
        c: usize,
        rng: &mut SmallRng,
    ) -> Partial {
        match aggregate {
            Aggregate::Min => Partial::Min(value),
            Aggregate::Max => Partial::Max(value),
            Aggregate::Count => {
                let mut s = FmSketch::new(c);
                s.insert_one(rng);
                Partial::SketchCount(s)
            }
            Aggregate::Sum => {
                let mut s = FmSketch::new(c);
                s.insert_elements(value, rng);
                Partial::SketchSum(s)
            }
            Aggregate::Average => {
                let mut sum = FmSketch::new(c);
                sum.insert_elements(value, rng);
                let mut count = FmSketch::new(c);
                count.insert_one(rng);
                Partial::SketchAvg { sum, count }
            }
        }
    }

    /// The query-dependent combine function (§5.1). Panics on mismatched
    /// variants: partials from different queries must never meet.
    pub fn combine(&mut self, other: &Partial) {
        match (self, other) {
            (Partial::Min(a), Partial::Min(b)) => *a = (*a).min(*b),
            (Partial::Max(a), Partial::Max(b)) => *a = (*a).max(*b),
            (Partial::ExactCount(a), Partial::ExactCount(b)) => *a += *b,
            (Partial::ExactSum(a), Partial::ExactSum(b)) => *a += *b,
            (
                Partial::ExactAvg { sum: s1, count: c1 },
                Partial::ExactAvg { sum: s2, count: c2 },
            ) => {
                *s1 += *s2;
                *c1 += *c2;
            }
            (Partial::SketchCount(a), Partial::SketchCount(b)) => a.merge(b),
            (Partial::SketchSum(a), Partial::SketchSum(b)) => a.merge(b),
            (
                Partial::SketchAvg { sum: s1, count: c1 },
                Partial::SketchAvg { sum: s2, count: c2 },
            ) => {
                s1.merge(s2);
                c1.merge(c2);
            }
            (Partial::KmvCount(a), Partial::KmvCount(b)) => a.merge(b),
            (Partial::Histogram(a), Partial::Histogram(b)) => a.merge(b),
            (me, other) => panic!("combined mismatched partials: {me:?} vs {other:?}"),
        }
    }

    /// Combine and report whether `self` changed. This is WILDFIRE's
    /// per-message hot path (Fig 4 resends only on change), so it avoids
    /// the clone-and-compare a naive implementation would need.
    pub fn combine_check(&mut self, other: &Partial) -> bool {
        match (self, other) {
            (Partial::Min(a), Partial::Min(b)) => {
                if *b < *a {
                    *a = *b;
                    true
                } else {
                    false
                }
            }
            (Partial::Max(a), Partial::Max(b)) => {
                if *b > *a {
                    *a = *b;
                    true
                } else {
                    false
                }
            }
            (Partial::ExactCount(a), Partial::ExactCount(b)) => {
                *a += *b;
                *b > 0
            }
            (Partial::ExactSum(a), Partial::ExactSum(b)) => {
                *a += *b;
                *b > 0
            }
            (
                Partial::ExactAvg { sum: s1, count: c1 },
                Partial::ExactAvg { sum: s2, count: c2 },
            ) => {
                *s1 += *s2;
                *c1 += *c2;
                *s2 > 0 || *c2 > 0
            }
            (Partial::SketchCount(a), Partial::SketchCount(b)) => a.merge_check(b),
            (Partial::SketchSum(a), Partial::SketchSum(b)) => a.merge_check(b),
            (
                Partial::SketchAvg { sum: s1, count: c1 },
                Partial::SketchAvg { sum: s2, count: c2 },
            ) => {
                let a = s1.merge_check(s2);
                let b = c1.merge_check(c2);
                a || b
            }
            (Partial::KmvCount(a), Partial::KmvCount(b)) => a.merge_check(b),
            (Partial::Histogram(a), Partial::Histogram(b)) => a.merge_check(b),
            (me, other) => panic!("combined mismatched partials: {me:?} vs {other:?}"),
        }
    }

    /// Overwrite `self` with a copy of `other` in place. Same-variant FM
    /// sketches reuse their register allocation — WILDFIRE does this once
    /// per neighbour per flush — and every other pairing (scalars, KMV,
    /// histograms, a change of variant) is `*self = other.clone()`.
    pub fn assign(&mut self, other: &Partial) {
        match (self, other) {
            (Partial::SketchCount(a), Partial::SketchCount(b))
            | (Partial::SketchSum(a), Partial::SketchSum(b)) => a.assign(b),
            (
                Partial::SketchAvg { sum: s1, count: c1 },
                Partial::SketchAvg { sum: s2, count: c2 },
            ) => {
                s1.assign(s2);
                c1.assign(c2);
            }
            (me, other) => *me = other.clone(),
        }
    }

    /// The scalar answer this partial represents at declaration time.
    pub fn value(&self) -> f64 {
        match self {
            Partial::Min(v) | Partial::Max(v) => *v as f64,
            Partial::ExactCount(c) => *c as f64,
            Partial::ExactSum(s) => *s as f64,
            Partial::ExactAvg { sum, count } => {
                if *count == 0 {
                    0.0
                } else {
                    *sum as f64 / *count as f64
                }
            }
            Partial::SketchCount(s) | Partial::SketchSum(s) => s.estimate(),
            Partial::SketchAvg { sum, count } => {
                let c = count.estimate();
                if c == 0.0 {
                    0.0
                } else {
                    sum.estimate() / c
                }
            }
            Partial::KmvCount(s) => s.estimate(),
            Partial::Histogram(h) => h.total(),
        }
    }

    /// The scalar "height" of this partial as seen by a protocol-state-
    /// aware adversary: for FM-sketched aggregates the sketch's own
    /// estimate — the scalar its bit maxima induce, i.e. how much
    /// accumulated (and possibly not-yet-relayed) mass the host carries
    /// — for exact min/max a value-derived proxy (for min, negated: the
    /// *smallest* value is the answer-carrying one), and the scalar
    /// estimate otherwise. Higher means "killing this host now hurts
    /// the query more": mid-convergecast, the top-weighted hosts are
    /// the relays whose deaths strand other (still-alive, still-valid)
    /// hosts' contributions.
    pub fn sketch_weight(&self) -> f64 {
        match self {
            Partial::Min(v) => -(*v as f64),
            Partial::Max(v) => *v as f64,
            Partial::SketchCount(s) | Partial::SketchSum(s) => s.estimate(),
            // For averages the count sketch tracks how many hosts'
            // contributions the partial has absorbed.
            Partial::SketchAvg { count, .. } => count.estimate(),
            other => other.value(),
        }
    }

    /// The merged histogram, if this partial is one (the querying host
    /// reads bucket counts / quantiles / averages from it).
    pub fn as_histogram(&self) -> Option<&HistogramSketch> {
        match self {
            Partial::Histogram(h) => Some(h),
            _ => None,
        }
    }
}

/// Which duplicate-insensitive operator family a WILDFIRE query uses
/// (§5.2 FM is the paper's; KMV and histograms are the §7 "future work"
/// operators this reproduction adds).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Operator {
    /// The paper's operators: min/max exact, count/sum/avg via FM.
    Standard,
    /// Count via a KMV sketch with parameter `k` (count queries only).
    KmvCount {
        /// Number of minima retained.
        k: usize,
    },
    /// A value histogram with `buckets` equi-width buckets over
    /// `[min, max]`; ignores the query's aggregate kind.
    ValueHistogram {
        /// Smallest representable value.
        min: u64,
        /// Largest representable value.
        max: u64,
        /// Bucket count.
        buckets: usize,
    },
}

impl Operator {
    /// Build a host's initial partial for this operator.
    pub fn init(self, aggregate: Aggregate, value: u64, c: usize, rng: &mut SmallRng) -> Partial {
        match self {
            Operator::Standard => Partial::init_sketched(aggregate, value, c, rng),
            Operator::KmvCount { k } => {
                assert!(
                    aggregate == Aggregate::Count,
                    "KMV answers count queries only"
                );
                let mut s = KmvSketch::new(k);
                s.insert_one(rng);
                Partial::KmvCount(s)
            }
            Operator::ValueHistogram { min, max, buckets } => {
                let mut h = HistogramSketch::new(Buckets::equi_width(min, max, buckets), c);
                h.insert(value, rng);
                Partial::Histogram(h)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    #[test]
    fn ground_truths() {
        let vals = [10u64, 20, 30];
        assert_eq!(Aggregate::Min.ground_truth(&vals), Some(10.0));
        assert_eq!(Aggregate::Max.ground_truth(&vals), Some(30.0));
        assert_eq!(Aggregate::Count.ground_truth(&vals), Some(3.0));
        assert_eq!(Aggregate::Sum.ground_truth(&vals), Some(60.0));
        assert_eq!(Aggregate::Average.ground_truth(&vals), Some(20.0));
    }

    #[test]
    fn ground_truth_empty_sets() {
        assert_eq!(Aggregate::Count.ground_truth(&[]), Some(0.0));
        assert_eq!(Aggregate::Sum.ground_truth(&[]), Some(0.0));
        assert_eq!(Aggregate::Min.ground_truth(&[]), None);
        assert_eq!(Aggregate::Average.ground_truth(&[]), None);
    }

    #[test]
    fn exact_combines() {
        let mut p = Partial::init_exact(Aggregate::Count, 5);
        p.combine(&Partial::init_exact(Aggregate::Count, 9));
        assert_eq!(p.value(), 2.0);

        let mut p = Partial::init_exact(Aggregate::Sum, 5);
        p.combine(&Partial::init_exact(Aggregate::Sum, 9));
        assert_eq!(p.value(), 14.0);

        let mut p = Partial::init_exact(Aggregate::Average, 10);
        p.combine(&Partial::init_exact(Aggregate::Average, 20));
        assert_eq!(p.value(), 15.0);

        let mut p = Partial::init_exact(Aggregate::Min, 10);
        p.combine(&Partial::init_exact(Aggregate::Min, 3));
        assert_eq!(p.value(), 3.0);

        let mut p = Partial::init_exact(Aggregate::Max, 10);
        p.combine(&Partial::init_exact(Aggregate::Max, 3));
        assert_eq!(p.value(), 10.0);
    }

    #[test]
    fn exact_count_is_duplicate_sensitive() {
        // Demonstrates *why* WILDFIRE cannot use exact count: combining
        // the same contribution twice inflates the result.
        let other = Partial::init_exact(Aggregate::Count, 1);
        let mut p = Partial::init_exact(Aggregate::Count, 1);
        p.combine(&other);
        p.combine(&other);
        assert_eq!(p.value(), 3.0); // counted one host twice
    }

    #[test]
    fn sketched_count_is_duplicate_insensitive() {
        let mut r = rng();
        let other = Partial::init_sketched(Aggregate::Count, 1, 8, &mut r);
        let mut p = Partial::init_sketched(Aggregate::Count, 1, 8, &mut r);
        p.combine(&other);
        let once = p.value();
        p.combine(&other);
        p.combine(&other);
        assert_eq!(p.value(), once);
    }

    #[test]
    fn min_max_sketched_stay_exact() {
        let mut r = rng();
        let p = Partial::init_sketched(Aggregate::Min, 42, 8, &mut r);
        assert_eq!(p, Partial::Min(42));
        let p = Partial::init_sketched(Aggregate::Max, 42, 8, &mut r);
        assert_eq!(p, Partial::Max(42));
    }

    #[test]
    fn sketched_sum_estimates() {
        let mut r = rng();
        let mut agg = Partial::init_sketched(Aggregate::Sum, 100, 32, &mut r);
        for _ in 0..9 {
            agg.combine(&Partial::init_sketched(Aggregate::Sum, 100, 32, &mut r));
        }
        let est = agg.value();
        assert!((300.0..4_000.0).contains(&est), "estimate {est} for 1000");
    }

    #[test]
    fn sketched_avg_estimates() {
        let mut r = rng();
        let mut agg = Partial::init_sketched(Aggregate::Average, 50, 32, &mut r);
        for _ in 0..31 {
            agg.combine(&Partial::init_sketched(Aggregate::Average, 50, 32, &mut r));
        }
        let est = agg.value();
        // True average is 50; FM error on both sketches compounds, so be
        // generous but bounded.
        assert!((10.0..250.0).contains(&est), "avg estimate {est}");
    }

    #[test]
    #[should_panic(expected = "mismatched partials")]
    fn combine_rejects_mismatch() {
        let mut p = Partial::Min(1);
        p.combine(&Partial::Max(2));
    }

    #[test]
    fn spec_deadline() {
        let spec = QuerySpec {
            aggregate: Aggregate::Count,
            d_hat: 12,
            c: 8,
        };
        assert_eq!(spec.deadline(), 24);
    }

    #[test]
    fn duplicate_insensitive_flags() {
        assert!(Aggregate::Min.is_duplicate_insensitive());
        assert!(Aggregate::Max.is_duplicate_insensitive());
        assert!(!Aggregate::Count.is_duplicate_insensitive());
        assert!(!Aggregate::Sum.is_duplicate_insensitive());
        assert!(!Aggregate::Average.is_duplicate_insensitive());
    }
}
