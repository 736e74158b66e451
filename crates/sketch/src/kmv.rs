//! K-minimum-values (KMV) distinct-count sketch — a §7 "future work"
//! operator.
//!
//! The paper closes by asking for more duplicate-insensitive operators
//! beyond FM. KMV (Bar-Yossef et al.) is the natural second member of
//! the family: keep the `k` smallest hashed values seen; merging two
//! sketches is "union then keep the k smallest", which is idempotent,
//! commutative and associative — exactly the lattice WILDFIRE needs —
//! and the estimate `(k − 1) / v_k` (with `v_k` the k-th smallest value
//! mapped to `(0,1)`) has relative error `≈ 1/√(k−2)`. Per stored word
//! it is comparable to FM averaging, but it is *exact* below `k`
//! elements and its error is tunable smoothly, where FM's `2^ẑ`
//! quantization needs many registers to wash out.

use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A KMV sketch: the `k` smallest draws from a uniform 64-bit hash space.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct KmvSketch {
    k: usize,
    /// Sorted ascending; at most `k` entries, all distinct.
    mins: Vec<u64>,
}

impl KmvSketch {
    /// An empty sketch keeping the `k` smallest values.
    pub fn new(k: usize) -> Self {
        assert!(k >= 2, "KMV needs k >= 2 (the estimate divides by v_k)");
        KmvSketch {
            k,
            mins: Vec::new(),
        }
    }

    /// The `k` parameter.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The retained minima, ascending and distinct (at most `k`).
    pub fn mins(&self) -> &[u64] {
        &self.mins
    }

    /// Replace the retained minima with `mins`, which must be ascending,
    /// distinct and at most `k` long (the sketch keeps its `k`).
    pub fn overwrite_mins(&mut self, mins: &[u64]) {
        assert!(mins.len() <= self.k, "more than k = {} minima", self.k);
        debug_assert!(mins.windows(2).all(|w| w[0] < w[1]), "minima not ascending");
        self.mins.clear();
        self.mins.extend_from_slice(mins);
    }

    /// Whether no element was ever inserted.
    pub fn is_empty(&self) -> bool {
        self.mins.is_empty()
    }

    /// Wire size in bytes.
    pub fn wire_bytes(&self) -> usize {
        self.mins.len() * 8 + 8
    }

    /// Insert one distinct element (each host pretends to hold distinct
    /// elements, as in §5.2: the "hash" of a fresh element is a fresh
    /// uniform draw).
    pub fn insert_one(&mut self, rng: &mut SmallRng) {
        let v: u64 = rng.gen();
        self.offer(v);
    }

    /// Insert `m` distinct elements.
    pub fn insert_elements(&mut self, m: u64, rng: &mut SmallRng) {
        for _ in 0..m {
            self.insert_one(rng);
        }
    }

    fn offer(&mut self, v: u64) {
        match self.mins.binary_search(&v) {
            Ok(_) => {} // duplicate hash — ignore
            Err(pos) => {
                if pos < self.k {
                    self.mins.insert(pos, v);
                    self.mins.truncate(self.k);
                }
            }
        }
    }

    /// Duplicate-insensitive combine: union, keep the `k` smallest.
    pub fn merge(&mut self, other: &KmvSketch) {
        assert_eq!(
            self.k, other.k,
            "cannot merge KMV sketches with different k"
        );
        for &v in &other.mins {
            self.offer(v);
        }
    }

    /// Merge and report whether `self` changed (WILDFIRE's resend test).
    /// `mins` holds at most `k` words, so the snapshot is cheap.
    pub fn merge_check(&mut self, other: &KmvSketch) -> bool {
        let before = self.mins.clone();
        self.merge(other);
        self.mins != before
    }

    /// The distinct-count estimate `(k − 1) / v_k`, or the exact count
    /// when fewer than `k` elements were seen.
    pub fn estimate(&self) -> f64 {
        if self.mins.len() < self.k {
            return self.mins.len() as f64;
        }
        let v_k = *self.mins.last().expect("k >= 2 entries") as f64;
        let unit = v_k / (u64::MAX as f64); // map to (0, 1)
        if unit <= 0.0 {
            return self.mins.len() as f64;
        }
        (self.k as f64 - 1.0) / unit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn small_counts_are_exact() {
        let mut r = rng(1);
        let mut s = KmvSketch::new(64);
        s.insert_elements(40, &mut r);
        assert_eq!(s.estimate(), 40.0);
    }

    #[test]
    fn large_counts_estimate_within_expected_error() {
        let mut r = rng(2);
        let k = 256;
        let n = 50_000u64;
        let mut s = KmvSketch::new(k);
        s.insert_elements(n, &mut r);
        let est = s.estimate();
        let rel = (est - n as f64).abs() / n as f64;
        // 1/sqrt(256) ≈ 6.25%; allow 4 sigma.
        assert!(rel < 0.25, "relative error {rel} (estimate {est})");
    }

    #[test]
    fn kmv_more_accurate_than_papers_fm_config() {
        // The §7 motivation: trading message size for accuracy. KMV with
        // k = 64 (512 B) is far more accurate than the paper's FM
        // configuration c = 8 (64 B), measured as mean |ratio − 1|.
        let n = 20_000u64;
        let trials = 15;
        let mut kmv_err = 0.0;
        let mut fm_err = 0.0;
        for seed in 0..trials {
            let mut r = rng(seed);
            let mut kmv = KmvSketch::new(64);
            kmv.insert_elements(n, &mut r);
            kmv_err += (kmv.estimate() / n as f64 - 1.0).abs();

            let mut r = rng(seed + 1_000);
            let mut fm = crate::FmSketch::new(8);
            fm.insert_elements_fast(n, &mut r);
            fm_err += (fm.estimate() / n as f64 - 1.0).abs();
        }
        assert!(
            kmv_err < fm_err / 1.5,
            "KMV mean error {:.3} should clearly beat FM-c8 {:.3}",
            kmv_err / trials as f64,
            fm_err / trials as f64
        );
    }

    #[test]
    fn merge_is_union_semantics() {
        let mut r = rng(3);
        let mut a = KmvSketch::new(32);
        let mut b = KmvSketch::new(32);
        a.insert_elements(500, &mut r);
        b.insert_elements(500, &mut r);
        let mut ab = a.clone();
        ab.merge(&b);
        // Idempotent / commutative / associative.
        let mut ab2 = ab.clone();
        ab2.merge(&b);
        ab2.merge(&a);
        assert_eq!(ab, ab2);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        // Union estimates ~1000.
        let est = ab.estimate();
        assert!((600.0..1_500.0).contains(&est), "union estimate {est}");
    }

    #[test]
    fn merge_check_detects_change_and_stability() {
        let mut r = rng(4);
        let mut a = KmvSketch::new(16);
        let mut b = KmvSketch::new(16);
        a.insert_elements(100, &mut r);
        b.insert_elements(100, &mut r);
        let mut acc = a.clone();
        acc.merge_check(&b);
        assert!(!acc.merge_check(&b), "re-merge must report no change");
        assert!(!acc.merge_check(&a), "re-merge must report no change");
    }

    #[test]
    fn empty_sketch() {
        let s = KmvSketch::new(8);
        assert!(s.is_empty());
        assert_eq!(s.estimate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "k >= 2")]
    fn rejects_tiny_k() {
        KmvSketch::new(1);
    }

    #[test]
    #[should_panic(expected = "different k")]
    fn rejects_mismatched_merge() {
        let mut a = KmvSketch::new(8);
        let b = KmvSketch::new(16);
        a.merge(&b);
    }
}
