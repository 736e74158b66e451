//! Duplicate-insensitive histograms — the "complex aggregation queries"
//! the paper's §7 points to (Kempe et al. \[19\] explored histograms for
//! gossip; here they ride WILDFIRE's OR-lattice instead).
//!
//! A [`HistogramSketch`] holds one FM count sketch per value bucket.
//! Combining is per-bucket OR, so the whole histogram is
//! duplicate-insensitive and can flow through WILDFIRE unchanged. From
//! the merged histogram the querying host reads off approximate bucket
//! counts, quantiles and a histogram-based average — one convergecast,
//! many answers.

use crate::fm::FmSketch;
use serde::{Deserialize, Serialize};

/// Equi-width bucket boundaries over `[min, max]`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Buckets {
    min: u64,
    max: u64,
    count: usize,
}

impl Buckets {
    /// `count` equi-width buckets spanning `[min, max]` inclusive. Every
    /// bucket holds at least one value, so there can be no more buckets
    /// than values in the range.
    pub fn equi_width(min: u64, max: u64, count: usize) -> Self {
        assert!(max >= min, "empty value range");
        assert!(count >= 1, "need at least one bucket");
        let b = Buckets { min, max, count };
        assert!(
            count as u128 <= b.span(),
            "{count} buckets over [{min}, {max}]: more buckets than values"
        );
        b
    }

    /// Number of values in `[min, max]`; `u64::MAX + 1` for the full
    /// range, hence the wider type.
    fn span(&self) -> u128 {
        u128::from(self.max - self.min) + 1
    }

    /// Offset from `min` of the first value in bucket `i` (`i ≤ count`):
    /// `⌈i · span / count⌉`, the least offset [`Buckets::index_of`] maps
    /// to bucket `i` or later. Exact, and no overflow: `i · span < 2^128`.
    fn start(&self, i: usize) -> u128 {
        let count = self.count as u128;
        (i as u128 * self.span()).div_ceil(count)
    }

    /// Number of buckets.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether there are zero buckets (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The bucket index for a value (values outside the range clamp to
    /// the edge buckets — hosts must never drop data silently).
    pub fn index_of(&self, value: u64) -> usize {
        let offset = u128::from(value.clamp(self.min, self.max) - self.min);
        // offset < span, so the quotient is < count.
        (offset * self.count as u128 / self.span()) as usize
    }

    /// The value range `[lo, hi]` covered by bucket `i`: exactly the
    /// values [`Buckets::index_of`] maps to `i`. The buckets tile
    /// `[min, max]` and none is empty.
    pub fn range_of(&self, i: usize) -> (u64, u64) {
        assert!(i < self.count, "bucket out of range");
        // Both offsets are < span ≤ 2^64, so they fit a u64.
        let lo = self.min + self.start(i) as u64;
        let hi = self.min + (self.start(i + 1) - 1) as u64;
        (lo, hi)
    }

    /// Midpoint of bucket `i` (used by the histogram average).
    pub fn midpoint(&self, i: usize) -> f64 {
        let (lo, hi) = self.range_of(i);
        (lo as f64 + hi as f64) / 2.0
    }
}

/// A duplicate-insensitive histogram: one FM sketch per bucket.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HistogramSketch {
    buckets: Buckets,
    counts: Vec<FmSketch>,
}

impl HistogramSketch {
    /// An empty histogram with `c` FM repetitions per bucket.
    pub fn new(buckets: Buckets, c: usize) -> Self {
        let counts = (0..buckets.len()).map(|_| FmSketch::new(c)).collect();
        HistogramSketch { buckets, counts }
    }

    /// The bucket layout.
    pub fn buckets(&self) -> &Buckets {
        &self.buckets
    }

    /// The per-bucket FM sketches, read-only, in bucket order.
    pub fn bucket_sketches(&self) -> &[FmSketch] {
        &self.counts
    }

    /// Overwrite every bucket's registers in place from `words`: bucket
    /// `i` takes the `i`-th run of `c` words (the layout keeps its shape).
    pub fn overwrite_registers(&mut self, words: &[u64]) {
        let c = self.counts[0].repetitions();
        assert_eq!(
            words.len(),
            self.counts.len() * c,
            "cannot overwrite a histogram of a different shape"
        );
        for (s, w) in self.counts.iter_mut().zip(words.chunks_exact(c)) {
            s.overwrite_registers(w);
        }
    }

    /// Record this host's attribute value (one distinct element in the
    /// value's bucket, §5.2-style).
    pub fn insert(&mut self, value: u64, rng: &mut rand::rngs::SmallRng) {
        let idx = self.buckets.index_of(value);
        self.counts[idx].insert_one(rng);
    }

    /// Duplicate-insensitive combine: per-bucket OR.
    pub fn merge(&mut self, other: &HistogramSketch) {
        assert_eq!(self.buckets, other.buckets, "bucket layouts differ");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            a.merge(b);
        }
    }

    /// Merge and report change (WILDFIRE's resend test).
    pub fn merge_check(&mut self, other: &HistogramSketch) -> bool {
        assert_eq!(self.buckets, other.buckets, "bucket layouts differ");
        let mut changed = false;
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            changed |= a.merge_check(b);
        }
        changed
    }

    /// Estimated host count per bucket.
    pub fn bucket_estimates(&self) -> Vec<f64> {
        self.counts.iter().map(FmSketch::estimate).collect()
    }

    /// Estimated total host count.
    pub fn total(&self) -> f64 {
        self.bucket_estimates().iter().sum()
    }

    /// Histogram-based average: Σ midpoint·count / Σ count.
    pub fn average(&self) -> Option<f64> {
        let est = self.bucket_estimates();
        let total: f64 = est.iter().sum();
        if total <= 0.0 {
            return None;
        }
        let weighted: f64 = est
            .iter()
            .enumerate()
            .map(|(i, &c)| self.buckets.midpoint(i) * c)
            .sum();
        Some(weighted / total)
    }

    /// Approximate `q`-quantile (`0 < q < 1`): the midpoint of the bucket
    /// where the cumulative estimated count crosses `q · total`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile in [0,1]");
        let est = self.bucket_estimates();
        let total: f64 = est.iter().sum();
        if total <= 0.0 {
            return None;
        }
        let target = q * total;
        let mut acc = 0.0;
        for (i, &c) in est.iter().enumerate() {
            acc += c;
            if acc >= target {
                return Some(self.buckets.midpoint(i));
            }
        }
        Some(self.buckets.midpoint(self.buckets.len() - 1))
    }

    /// Wire size in bytes.
    pub fn wire_bytes(&self) -> usize {
        self.counts.iter().map(FmSketch::wire_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn bucket_indexing() {
        let b = Buckets::equi_width(10, 509, 10); // width 50 each
        assert_eq!(b.index_of(10), 0);
        assert_eq!(b.index_of(59), 0);
        assert_eq!(b.index_of(60), 1);
        assert_eq!(b.index_of(509), 9);
        // Out-of-range values clamp.
        assert_eq!(b.index_of(0), 0);
        assert_eq!(b.index_of(10_000), 9);
    }

    #[test]
    fn bucket_ranges_partition() {
        let b = Buckets::equi_width(0, 99, 7);
        let mut expected = 0;
        for i in 0..7 {
            let (lo, hi) = b.range_of(i);
            assert_eq!(lo, expected, "bucket {i}");
            assert!(hi >= lo);
            expected = hi + 1;
        }
        assert_eq!(expected, 100);
    }

    #[test]
    fn full_range_buckets_index_without_overflow() {
        let b = Buckets::equi_width(0, u64::MAX, 4);
        assert_eq!(b.index_of(5), 0);
        assert_eq!(b.index_of(u64::MAX / 4), 0);
        assert_eq!(b.index_of(u64::MAX / 4 + 1), 1);
        assert_eq!(b.index_of(u64::MAX / 2 + 1), 2);
        assert_eq!(b.index_of(u64::MAX), 3);
        assert_eq!(b.range_of(0), (0, u64::MAX / 4));
        assert_eq!(b.range_of(3), (u64::MAX / 4 * 3 + 3, u64::MAX));
        assert_eq!(b.midpoint(3), (u64::MAX / 8 * 7) as f64);
    }

    #[test]
    #[should_panic(expected = "more buckets than values")]
    fn rejects_more_buckets_than_values() {
        Buckets::equi_width(0, 2, 5);
    }

    #[test]
    fn histogram_recovers_distribution_shape() {
        // Two-point distribution: 80% of hosts at 20, 20% at 450.
        let b = Buckets::equi_width(10, 509, 10);
        let mut r = rng(5);
        let mut merged = HistogramSketch::new(b.clone(), 16);
        for i in 0..2_000u64 {
            let mut host = HistogramSketch::new(b.clone(), 16);
            host.insert(if i % 5 == 4 { 450 } else { 20 }, &mut r);
            merged.merge(&host);
        }
        let est = merged.bucket_estimates();
        let low_bucket = b.index_of(20);
        let high_bucket = b.index_of(450);
        assert!(
            est[low_bucket] > 2.5 * est[high_bucket],
            "low {} vs high {}",
            est[low_bucket],
            est[high_bucket]
        );
        // Total within FM error of 2000.
        let total = merged.total();
        assert!((800.0..5_000.0).contains(&total), "total {total}");
    }

    #[test]
    fn average_and_quantiles_plausible() {
        let b = Buckets::equi_width(0, 999, 20);
        let mut r = rng(6);
        let mut merged = HistogramSketch::new(b.clone(), 16);
        // Uniform values 0..1000 over 3000 hosts.
        for i in 0..3_000u64 {
            let mut host = HistogramSketch::new(b.clone(), 16);
            host.insert(i % 1_000, &mut r);
            merged.merge(&host);
        }
        let avg = merged.average().unwrap();
        assert!((300.0..700.0).contains(&avg), "avg {avg}");
        let median = merged.quantile(0.5).unwrap();
        assert!((250.0..750.0).contains(&median), "median {median}");
        let p10 = merged.quantile(0.1).unwrap();
        let p90 = merged.quantile(0.9).unwrap();
        assert!(p10 < p90, "p10 {p10} !< p90 {p90}");
    }

    #[test]
    fn merge_is_duplicate_insensitive() {
        let b = Buckets::equi_width(0, 9, 2);
        let mut r = rng(7);
        let mut host = HistogramSketch::new(b.clone(), 8);
        host.insert(3, &mut r);
        let mut agg = HistogramSketch::new(b, 8);
        agg.merge(&host);
        let once = agg.bucket_estimates();
        agg.merge(&host);
        agg.merge(&host);
        assert_eq!(agg.bucket_estimates(), once);
    }

    #[test]
    fn merge_check_reports_change() {
        let b = Buckets::equi_width(0, 9, 2);
        let mut r = rng(8);
        let mut a = HistogramSketch::new(b.clone(), 8);
        let mut h = HistogramSketch::new(b, 8);
        h.insert(1, &mut r);
        assert!(a.merge_check(&h));
        assert!(!a.merge_check(&h));
    }

    #[test]
    fn empty_histogram_has_no_answers() {
        let b = Buckets::equi_width(0, 9, 3);
        let h = HistogramSketch::new(b, 8);
        assert_eq!(h.total(), 0.0);
        assert_eq!(h.average(), None);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    #[should_panic(expected = "layouts differ")]
    fn rejects_layout_mismatch() {
        let mut a = HistogramSketch::new(Buckets::equi_width(0, 9, 2), 8);
        let b = HistogramSketch::new(Buckets::equi_width(0, 9, 3), 8);
        a.merge(&b);
    }
}
