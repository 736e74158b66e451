//! Shared query/aggregate machinery.

use pov_sim::StateSummary;
use pov_sketch::{Buckets, FmSketch, HistogramSketch, KmvSketch};
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
        deadline(self.d_hat)
    }
}

/// The absolute deadline `2·D̂·δ`, in ticks, of a query with diameter
/// overestimate `d_hat`.
pub(crate) fn deadline(d_hat: u32) -> u64 {
    2 * u64::from(d_hat)
}

/// The §4.4 fallback tick of a host `depth` hops below the root of a
/// query due at tick `deadline`: `deadline − depth`, so partial
/// subtrees still drain upward before the root declares, and never
/// before the tick after `now`.
pub(crate) fn fallback_at(deadline: u64, depth: u32, now: u64) -> u64 {
    deadline.saturating_sub(u64::from(depth)).max(now + 1)
}

/// The [`NodeLogic::summary`](pov_sim::NodeLogic::summary) every
/// partial-carrying node reports: an activated host whose partial has
/// sketch weight `w` is active with weight `w`; a host the query has
/// not reached (`None`) is opaque. The summary is a scalar, not the
/// partial: an adaptive adversary of the §3.2 model sees membership and
/// coarse protocol activity, and the sketch-maxima attack only needs to
/// order hosts by how much of the answer they carry.
pub(crate) fn summary_of(weight: Option<f64>) -> StateSummary {
    StateSummary {
        active: weight.is_some(),
        sketch_weight: weight,
    }
}

/// An exact partial aggregate: the conventional combine (+ / min / max)
/// over two words. Count and sum are **duplicate-sensitive** — correct
/// along a tree, wrong if a contribution is ever combined twice — so
/// only the tree protocols use it: SPANNINGTREE ([`crate::spanning_tree`])
/// and the multiplexed engine ([`crate::mux`]), which carry it by value
/// in every child report. Duplicate-insensitive protocols use
/// [`Partial`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExactPartial {
    aggregate: Aggregate,
    /// The min/max/count/sum accumulator (the running sum for AVG).
    a: u64,
    /// Contributing-host count (AVG only; unused elsewhere). A host
    /// count fits a `u32`, as a `HostId` does, which keeps the whole
    /// partial at 16 bytes and SPANNINGTREE's host record, which holds
    /// the two words beside its aggregate, at 32.
    b: u32,
}

impl ExactPartial {
    /// A host's initial partial for `aggregate` given its attribute
    /// `value`.
    pub fn init(aggregate: Aggregate, value: u64) -> ExactPartial {
        let (a, b) = match aggregate {
            Aggregate::Min | Aggregate::Max | Aggregate::Sum => (value, 0),
            Aggregate::Count => (1, 0),
            Aggregate::Average => (value, 1),
        };
        ExactPartial { aggregate, a, b }
    }

    /// The one-host partial of a host whose query has not named its
    /// aggregate yet: it holds `value` as is, for
    /// [`ExactPartial::named`] to seed from. A host record keeps its
    /// value this way instead of in a word of its own.
    pub(crate) fn unnamed(value: u64) -> ExactPartial {
        ExactPartial::init(Aggregate::Sum, value)
    }

    /// `init(aggregate, value)` for the `value` an
    /// [`ExactPartial::unnamed`] partial holds.
    pub(crate) fn named(self, aggregate: Aggregate) -> ExactPartial {
        ExactPartial::init(aggregate, self.a)
    }

    /// The accumulator words `(a, b)`, for a record that keeps the
    /// aggregate beside them rather than in every partial.
    pub(crate) fn words(self) -> (u64, u32) {
        (self.a, self.b)
    }

    /// The partial of `aggregate` whose accumulator words are `(a, b)`:
    /// the inverse of [`ExactPartial::words`].
    pub(crate) fn from_words(aggregate: Aggregate, a: u64, b: u32) -> ExactPartial {
        ExactPartial { aggregate, a, b }
    }

    /// The aggregate function this partial computes.
    pub fn aggregate(&self) -> Aggregate {
        self.aggregate
    }

    /// Fold `other` into `self` (the §5.1 combine; commutative and
    /// associative, so delivery order never reaches the answer).
    pub fn combine(&mut self, other: ExactPartial) {
        debug_assert_eq!(
            self.aggregate, other.aggregate,
            "partials from different queries must never meet"
        );
        match self.aggregate {
            Aggregate::Min => self.a = self.a.min(other.a),
            Aggregate::Max => self.a = self.a.max(other.a),
            Aggregate::Count | Aggregate::Sum => self.a += other.a,
            Aggregate::Average => {
                self.a += other.a;
                self.b += other.b;
            }
        }
    }

    /// The scalar answer this partial represents at declaration time.
    pub fn value(&self) -> f64 {
        match self.aggregate {
            Aggregate::Min | Aggregate::Max | Aggregate::Count | Aggregate::Sum => self.a as f64,
            Aggregate::Average => {
                if self.b == 0 {
                    0.0
                } else {
                    self.a as f64 / f64::from(self.b)
                }
            }
        }
    }

    /// The scalar a protocol-state-aware adversary ranks this host by:
    /// as [`Partial::sketch_weight`] does for min/max (the minimum
    /// negated, so the answer-carrying host ranks highest), and the
    /// answer itself otherwise.
    pub fn sketch_weight(&self) -> f64 {
        match self.aggregate {
            Aggregate::Min => -(self.a as f64),
            _ => self.value(),
        }
    }
}

/// A partial aggregate `A_h` (§5.1) — the state a duplicate-insensitive
/// protocol contributes and combines during convergecast.
///
/// Min and max use the conventional combine, which is already
/// duplicate-insensitive. Count, sum and average use FM bit-vectors
/// with OR-combine (or the §7 KMV and histogram sketches), which is what
/// WILDFIRE and DIRECTEDACYCLICGRAPH require. The exact, duplicate-
/// sensitive form is [`ExactPartial`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Partial {
    /// Running minimum.
    Min(u64),
    /// Running maximum.
    Max(u64),
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

    /// The query-dependent combine function (§5.1), reporting whether
    /// `self` changed. This is WILDFIRE's per-message hot path (Fig 4
    /// resends only on change), so it avoids the clone-and-compare a
    /// naive implementation would need. Panics on mismatched variants:
    /// partials from different queries must never meet.
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

    /// Words in this partial's register row — the flat form WILDFIRE
    /// keeps its own partial and its contacts' knowledge in
    /// ([`crate::wildfire`]). Every partial has one:
    ///
    /// * min / max: one word;
    /// * FM count and sum: the `c` registers; FM avg: sum's `c` then
    ///   count's `c`;
    /// * histogram: each bucket's `c` registers, in bucket order;
    /// * KMV: the number of minima held, then `k` slots with the minima
    ///   ascending and the rest zero.
    ///
    /// Two partials of the same shape (variant, `c`, `k`, bucket layout)
    /// are equal exactly when their rows are.
    pub(crate) fn row_width(&self) -> usize {
        match self {
            Partial::Min(_) | Partial::Max(_) => 1,
            Partial::SketchCount(s) | Partial::SketchSum(s) => s.repetitions(),
            Partial::SketchAvg { sum, count } => sum.repetitions() + count.repetitions(),
            Partial::Histogram(h) => h.bucket_sketches().iter().map(|s| s.repetitions()).sum(),
            Partial::KmvCount(s) => 1 + s.k(),
        }
    }

    /// Write this partial's row into `row` (`row_width` words).
    pub(crate) fn write_row(&self, row: &mut [u64]) {
        debug_assert_eq!(row.len(), self.row_width());
        match self {
            Partial::Min(v) | Partial::Max(v) => row[0] = *v,
            Partial::SketchCount(s) | Partial::SketchSum(s) => row.copy_from_slice(s.registers()),
            Partial::SketchAvg { sum, count } => {
                let (s, c) = row.split_at_mut(sum.repetitions());
                s.copy_from_slice(sum.registers());
                c.copy_from_slice(count.registers());
            }
            Partial::Histogram(h) => {
                let mut rest = row;
                for s in h.bucket_sketches() {
                    let (bucket, tail) = rest.split_at_mut(s.repetitions());
                    bucket.copy_from_slice(s.registers());
                    rest = tail;
                }
            }
            Partial::KmvCount(s) => {
                let (held, slots) = row.split_first_mut().expect("k >= 2 slots");
                let mins = s.mins();
                *held = mins.len() as u64;
                slots[..mins.len()].copy_from_slice(mins);
                slots[mins.len()..].fill(0);
            }
        }
    }

    /// Join this partial into `row`, a row of the same shape, and report
    /// whether the row changed — the row form of
    /// [`Partial::combine_check`], with the same result and flag. FM
    /// shapes are a word-wise OR; min/max one compare.
    pub(crate) fn join_row(&self, row: &mut [u64]) -> bool {
        debug_assert_eq!(row.len(), self.row_width());
        match self {
            Partial::Min(v) => {
                let grew = *v < row[0];
                row[0] = row[0].min(*v);
                grew
            }
            Partial::Max(v) => {
                let grew = *v > row[0];
                row[0] = row[0].max(*v);
                grew
            }
            Partial::SketchCount(s) | Partial::SketchSum(s) => or_into(row, s.registers()),
            Partial::SketchAvg { sum, count } => {
                let (s, c) = row.split_at_mut(sum.repetitions());
                let a = or_into(s, sum.registers());
                let b = or_into(c, count.registers());
                a || b
            }
            Partial::Histogram(h) => {
                let mut grew = false;
                let mut rest = row;
                for s in h.bucket_sketches() {
                    let (bucket, tail) = rest.split_at_mut(s.repetitions());
                    grew |= or_into(bucket, s.registers());
                    rest = tail;
                }
                grew
            }
            // KMV's merge is not word-wise: decode, merge, re-encode.
            Partial::KmvCount(_) => {
                let mut held = self.clone();
                held.read_row(row);
                let grew = held.combine_check(self);
                held.write_row(row);
                grew
            }
        }
    }

    /// Overwrite `self` in place with the partial `row` holds; `row` must
    /// have `self`'s shape, which `self` keeps (no reallocation for FM
    /// registers).
    pub(crate) fn read_row(&mut self, row: &[u64]) {
        debug_assert_eq!(row.len(), self.row_width());
        match self {
            Partial::Min(v) | Partial::Max(v) => *v = row[0],
            Partial::SketchCount(s) | Partial::SketchSum(s) => s.overwrite_registers(row),
            Partial::SketchAvg { sum, count } => {
                let (s, c) = row.split_at(sum.repetitions());
                sum.overwrite_registers(s);
                count.overwrite_registers(c);
            }
            Partial::Histogram(h) => h.overwrite_registers(row),
            Partial::KmvCount(s) => s.overwrite_mins(&row[1..][..row[0] as usize]),
        }
    }

    /// The scalar answer this partial represents at declaration time.
    pub fn value(&self) -> f64 {
        match self {
            Partial::Min(v) | Partial::Max(v) => *v as f64,
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

/// OR `words` into `row` and report whether any bit was gained.
fn or_into(row: &mut [u64], words: &[u64]) -> bool {
    assert_eq!(row.len(), words.len(), "register rows of different widths");
    let mut gained = 0;
    for (r, &w) in row.iter_mut().zip(words) {
        gained |= w & !*r;
        *r |= w;
    }
    gained != 0
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
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    #[test]
    fn inactive_hosts_are_opaque() {
        assert_eq!(summary_of(None), StateSummary::default());
    }

    #[test]
    fn active_hosts_expose_their_sketch_weight() {
        let mut rng = SmallRng::seed_from_u64(5);
        let p = Partial::init_sketched(Aggregate::Count, 1, 8, &mut rng);
        let s = summary_of(Some(p.sketch_weight()));
        assert!(s.active);
        assert_eq!(s.sketch_weight, Some(p.sketch_weight()));
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
        let combined = |aggregate, x, y| {
            let mut p = ExactPartial::init(aggregate, x);
            p.combine(ExactPartial::init(aggregate, y));
            p.value()
        };
        assert_eq!(combined(Aggregate::Count, 5, 9), 2.0);
        assert_eq!(combined(Aggregate::Sum, 5, 9), 14.0);
        assert_eq!(combined(Aggregate::Average, 10, 20), 15.0);
        assert_eq!(combined(Aggregate::Min, 10, 3), 3.0);
        assert_eq!(combined(Aggregate::Max, 10, 3), 10.0);
    }

    #[test]
    fn exact_count_is_duplicate_sensitive() {
        // Demonstrates *why* WILDFIRE cannot use exact count: combining
        // the same contribution twice inflates the result.
        let other = ExactPartial::init(Aggregate::Count, 1);
        let mut p = ExactPartial::init(Aggregate::Count, 1);
        p.combine(other);
        p.combine(other);
        assert_eq!(p.value(), 3.0); // counted one host twice
    }

    #[test]
    fn an_unnamed_partial_seeds_every_aggregate() {
        for aggregate in [
            Aggregate::Min,
            Aggregate::Max,
            Aggregate::Count,
            Aggregate::Sum,
            Aggregate::Average,
        ] {
            let named = ExactPartial::unnamed(42).named(aggregate);
            assert_eq!(named, ExactPartial::init(aggregate, 42), "{aggregate:?}");
        }
        // The adversary's ranking: the smallest minimum weighs most.
        assert_eq!(ExactPartial::init(Aggregate::Min, 7).sketch_weight(), -7.0);
        assert_eq!(ExactPartial::init(Aggregate::Max, 7).sketch_weight(), 7.0);
    }

    #[test]
    fn sketched_count_is_duplicate_insensitive() {
        let mut r = rng();
        let other = Partial::init_sketched(Aggregate::Count, 1, 8, &mut r);
        let mut p = Partial::init_sketched(Aggregate::Count, 1, 8, &mut r);
        p.combine_check(&other);
        let once = p.value();
        assert!(
            !p.combine_check(&other),
            "a repeated contribution changes nothing"
        );
        assert!(!p.combine_check(&other));
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
            agg.combine_check(&Partial::init_sketched(Aggregate::Sum, 100, 32, &mut r));
        }
        let est = agg.value();
        assert!((300.0..4_000.0).contains(&est), "estimate {est} for 1000");
    }

    #[test]
    fn sketched_avg_estimates() {
        let mut r = rng();
        let mut agg = Partial::init_sketched(Aggregate::Average, 50, 32, &mut r);
        for _ in 0..31 {
            agg.combine_check(&Partial::init_sketched(Aggregate::Average, 50, 32, &mut r));
        }
        let est = agg.value();
        // True average is 50; FM error on both sketches compounds, so be
        // generous but bounded.
        assert!((10.0..250.0).contains(&est), "avg estimate {est}");
    }

    /// One of the seven partial shapes WILDFIRE holds (`kind` picks which:
    /// min, max, FM count, sum, avg, KMV, histogram), seeded from a host
    /// value, a repetition count and an RNG seed.
    fn partial(kind: usize, value: u64, c: usize, seed: u64) -> Partial {
        let mut rng = SmallRng::seed_from_u64(seed);
        let aggregates = [
            Aggregate::Min,
            Aggregate::Max,
            Aggregate::Count,
            Aggregate::Sum,
            Aggregate::Average,
        ];
        match kind {
            0..=4 => Partial::init_sketched(aggregates[kind], value, c, &mut rng),
            5 => Operator::KmvCount { k: c + 1 }.init(Aggregate::Count, value, c, &mut rng),
            _ => Operator::ValueHistogram {
                min: 10,
                max: 500,
                buckets: 1 + c % 5,
            }
            .init(Aggregate::Count, value, c, &mut rng),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn register_rows_mirror_partials(
            kind in 0usize..7,
            values in (10u64..500, 10u64..500),
            c in 1usize..34,
            seeds in (0u64..4, 0u64..4),
        ) {
            // Small seed and value ranges make equal pairs common.
            let a = partial(kind, values.0, c, seeds.0);
            let b = partial(kind, values.1 % 40 + 10, c, seeds.1);
            let width = a.row_width();
            prop_assert_eq!(b.row_width(), width);
            let (mut row_a, mut row_b) = (vec![0; width], vec![0; width]);
            a.write_row(&mut row_a);
            b.write_row(&mut row_b);

            let mut back = b.clone();
            back.read_row(&row_a);
            prop_assert_eq!(back, a, "read_row(write_row(a)) != a");
            prop_assert_eq!(row_a == row_b, a == b, "row equality is not partial equality");

            let mut joined = a.clone();
            let changed = joined.combine_check(&b);
            let before = row_a.clone();
            prop_assert_eq!(b.join_row(&mut row_a), changed, "join flag differs");
            let mut expected = vec![0; width];
            joined.write_row(&mut expected);
            prop_assert_eq!(row_a, expected, "join result differs");
            prop_assert_eq!(row_a == before, joined == a);
            prop_assert!(!b.join_row(&mut row_a), "re-join reported a change");
        }
    }

    #[test]
    #[should_panic(expected = "mismatched partials")]
    fn combine_rejects_mismatch() {
        let mut p = Partial::Min(1);
        p.combine_check(&Partial::Max(2));
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
}
