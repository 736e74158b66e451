//! The FM sketch proper.

use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Bits per register (bit-vector). 64 bits bound the countable domain by
/// `2^64`; the paper notes 32 suffices unless `|H| > 2^32` (§5.2) — we
/// use a whole machine word since the message-size difference is noise.
pub const REGISTER_BITS: u32 = 64;

/// The Flajolet–Martin correction constant. The paper rounds it to 0.78;
/// the exact value is `φ ≈ 0.775351` (Flajolet & Martin \[13\]). We keep
/// the paper's 0.78 so reproduced numbers match the text.
pub const PHI: f64 = 0.78;

/// A duplicate-insensitive cardinality sketch: `c` bit-vector registers
/// combined by bitwise OR.
///
/// `c` (the number of *repetitions*) trades message size for accuracy —
/// Fig 6 of the paper shows the estimate converging by `c ≈ 8`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FmSketch {
    registers: Vec<u64>,
}

impl FmSketch {
    /// An empty sketch with `c` registers.
    pub fn new(c: usize) -> Self {
        assert!(c >= 1, "need at least one register");
        FmSketch {
            registers: vec![0; c],
        }
    }

    /// Number of registers (the paper's `c`).
    pub fn repetitions(&self) -> usize {
        self.registers.len()
    }

    /// Whether no element has ever been inserted (all registers zero).
    pub fn is_empty(&self) -> bool {
        self.registers.iter().all(|&r| r == 0)
    }

    /// Size of the sketch on the wire, in bytes (§6.4 notes convergecast
    /// messages carry the `c` registers).
    pub fn wire_bytes(&self) -> usize {
        self.registers.len() * (REGISTER_BITS as usize / 8)
    }

    /// Insert one distinct element: in every register, set bit `b` where
    /// `b` is the number of Tails before the first Head in a fair coin
    /// sequence (§5.2) — i.e. geometric with `P(b) = 2^{-(b+1)}`.
    pub fn insert_one(&mut self, rng: &mut SmallRng) {
        for reg in &mut self.registers {
            *reg |= 1u64 << geometric_bit(rng);
        }
    }

    /// Insert `m` distinct elements one at a time — the literal §5.2 sum
    /// procedure (*"each host pretends to have `h` elements distinct from
    /// other hosts and runs the count procedure `h` times"*), with the
    /// local pre-OR of Theorem 5.2 (one set of vectors leaves the host).
    pub fn insert_elements(&mut self, m: u64, rng: &mut SmallRng) {
        for _ in 0..m {
            self.insert_one(rng);
        }
    }

    /// Insert `m` distinct elements in `O(c · log m)` instead of
    /// `O(c · m)` — the ablation-A3 fast path.
    ///
    /// For one register, the `m` elements throw geometric darts; bit `b`
    /// receives `Binomial(remaining, 1/2)` of the darts that got past bit
    /// `b−1`. Sampling those binomials level by level reproduces the
    /// exact joint distribution of the OR'd register.
    pub fn insert_elements_fast(&mut self, m: u64, rng: &mut SmallRng) {
        for reg in &mut self.registers {
            let mut remaining = m;
            let mut bit = 0u32;
            while remaining > 0 && bit < REGISTER_BITS - 1 {
                let here = binomial_half(remaining, rng);
                if here > 0 {
                    *reg |= 1u64 << bit;
                }
                remaining -= here;
                bit += 1;
            }
            if remaining > 0 {
                // Darts beyond the register width pile into the last bit.
                *reg |= 1u64 << (REGISTER_BITS - 1);
            }
        }
    }

    /// Bitwise-OR merge — the duplicate-insensitive combine operator.
    /// Panics if the register counts differ (mixing sketches from
    /// different queries is a protocol bug).
    pub fn merge(&mut self, other: &FmSketch) {
        assert_eq!(
            self.registers.len(),
            other.registers.len(),
            "cannot merge sketches with different repetition counts"
        );
        for (a, b) in self.registers.iter_mut().zip(&other.registers) {
            *a |= b;
        }
    }

    /// Non-destructive merge.
    pub fn merged(mut self, other: &FmSketch) -> FmSketch {
        self.merge(other);
        self
    }

    /// Merge and report whether `self` gained any bits. WILDFIRE resends
    /// its partial aggregate only when it changed (Fig 4), so this runs
    /// on every message receipt — hence no clone-and-compare.
    pub fn merge_check(&mut self, other: &FmSketch) -> bool {
        assert_eq!(
            self.registers.len(),
            other.registers.len(),
            "cannot merge sketches with different repetition counts"
        );
        let mut changed = false;
        for (a, b) in self.registers.iter_mut().zip(&other.registers) {
            let merged = *a | b;
            changed |= merged != *a;
            *a = merged;
        }
        changed
    }

    /// The `c` register words, read-only (WILDFIRE copies them into its
    /// flat per-host register rows).
    pub fn registers(&self) -> &[u64] {
        &self.registers
    }

    /// Overwrite the registers in place with `words`, which must hold
    /// exactly `c` words (the sketch keeps its shape).
    pub fn overwrite_registers(&mut self, words: &[u64]) {
        assert_eq!(
            self.registers.len(),
            words.len(),
            "cannot overwrite a sketch with a different repetition count"
        );
        self.registers.copy_from_slice(words);
    }

    /// Per-register `z_i`: index of the lowest-order bit still 0.
    fn lowest_zero_bits(&self) -> impl Iterator<Item = u32> + '_ {
        self.registers.iter().map(|r| (!r).trailing_zeros())
    }

    /// The FM estimate `2^ẑ / 0.78` with `ẑ` the mean of the per-register
    /// lowest-zero indexes. An all-empty sketch estimates 0.
    pub fn estimate(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let c = self.registers.len() as f64;
        let z_sum: u32 = self.lowest_zero_bits().sum();
        let z_mean = z_sum as f64 / c;
        z_mean.exp2() / PHI
    }
}

/// Geometric bit index: number of Tails before the first Head.
/// `P(b) = 2^{-(b+1)}`, capped at the register width.
fn geometric_bit(rng: &mut SmallRng) -> u32 {
    // trailing_zeros of a uniform word is exactly the Tails-before-Head
    // count; a zero word (P = 2^-64) means "all tails", capped below.
    let word: u64 = rng.gen();
    word.trailing_zeros().min(REGISTER_BITS - 1)
}

/// Sample `Binomial(n, 1/2)` exactly by popcounting random words.
fn binomial_half(n: u64, rng: &mut SmallRng) -> u64 {
    let mut remaining = n;
    let mut total = 0u64;
    while remaining >= 64 {
        total += u64::from(rng.gen::<u64>().count_ones());
        remaining -= 64;
    }
    if remaining > 0 {
        let mask = (1u64 << remaining) - 1;
        total += u64::from((rng.gen::<u64>() & mask).count_ones());
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn empty_sketch_estimates_zero() {
        let s = FmSketch::new(8);
        assert!(s.is_empty());
        assert_eq!(s.estimate(), 0.0);
    }

    #[test]
    fn single_element_is_order_one() {
        let mut r = rng(1);
        let mut s = FmSketch::new(16);
        s.insert_one(&mut r);
        assert!(!s.is_empty());
        let est = s.estimate();
        assert!((0.5..8.0).contains(&est), "estimate {est}");
    }

    #[test]
    fn estimate_tracks_cardinality() {
        // With c = 32 the estimate should land within a factor ~2 of the
        // true count for the sizes in Fig 6.
        let mut r = rng(42);
        for &n in &[1_024u64, 4_096, 16_384] {
            let mut s = FmSketch::new(32);
            for _ in 0..n {
                s.insert_one(&mut r);
            }
            let est = s.estimate();
            let ratio = est / n as f64;
            assert!((0.4..2.5).contains(&ratio), "n={n} est={est} ratio={ratio}");
        }
    }

    #[test]
    fn lemma_5_1_envelope() {
        // Pr(1/c <= m_hat/m <= c) >= 1 - 2/c; check empirically for c=8
        // over 50 trials: at most ~25% violations allowed, expect far fewer.
        let c = 8usize;
        let n = 2_000u64;
        let mut violations = 0;
        for seed in 0..50 {
            let mut r = rng(seed);
            let mut s = FmSketch::new(c);
            for _ in 0..n {
                s.insert_one(&mut r);
            }
            let ratio = s.estimate() / n as f64;
            if !((1.0 / c as f64)..=(c as f64)).contains(&ratio) {
                violations += 1;
            }
        }
        assert!(violations <= 12, "{violations}/50 outside Lemma 5.1 bound");
    }

    #[test]
    fn merge_is_or() {
        let mut r = rng(3);
        let mut a = FmSketch::new(4);
        let mut b = FmSketch::new(4);
        a.insert_elements(100, &mut r);
        b.insert_elements(100, &mut r);
        let m = a.clone().merged(&b);
        // OR of registers: every bit of a and b present.
        for i in 0..4 {
            assert_eq!(m.registers[i], a.registers[i] | b.registers[i]);
        }
    }

    #[test]
    fn merge_check_reports_change() {
        let mut r = rng(11);
        let mut a = FmSketch::new(8);
        let mut b = FmSketch::new(8);
        a.insert_elements(20, &mut r);
        b.insert_elements(20, &mut r);
        let mut acc = a.clone();
        // Merging b likely adds bits at least once across 8 registers.
        let first = acc.merge_check(&b);
        // Re-merging either input never changes anything.
        assert!(!acc.merge_check(&b));
        assert!(!acc.merge_check(&a));
        assert_eq!(acc, a.merged(&b));
        let _ = first;
    }

    #[test]
    #[should_panic(expected = "different repetition count")]
    fn overwrite_registers_keeps_the_shape() {
        FmSketch::new(4).overwrite_registers(&[0; 8]);
    }

    #[test]
    fn merge_idempotent() {
        let mut r = rng(4);
        let mut a = FmSketch::new(8);
        a.insert_elements(50, &mut r);
        let twice = a.clone().merged(&a);
        assert_eq!(twice, a);
    }

    #[test]
    fn merge_commutative_associative() {
        let mut r = rng(5);
        let mk = |r: &mut SmallRng| {
            let mut s = FmSketch::new(8);
            s.insert_elements(30, r);
            s
        };
        let (a, b, c) = (mk(&mut r), mk(&mut r), mk(&mut r));
        let ab_c = a.clone().merged(&b).merged(&c);
        let a_bc = a.clone().merged(&b.clone().merged(&c));
        let ba_c = b.clone().merged(&a).merged(&c);
        assert_eq!(ab_c, a_bc);
        assert_eq!(ab_c, ba_c);
    }

    #[test]
    #[should_panic(expected = "different repetition counts")]
    fn merge_rejects_mismatched_c() {
        let mut a = FmSketch::new(4);
        let b = FmSketch::new(8);
        a.merge(&b);
    }

    #[test]
    fn duplicate_insensitivity_end_to_end() {
        // Simulate the same host's sketch flowing along two paths and
        // being combined twice: the estimate must be unchanged.
        let mut r = rng(6);
        let mut host = FmSketch::new(8);
        host.insert_one(&mut r);
        let mut agg = FmSketch::new(8);
        agg.merge(&host);
        let once = agg.estimate();
        agg.merge(&host);
        agg.merge(&host);
        assert_eq!(agg.estimate(), once);
    }

    #[test]
    fn sum_via_elements() {
        // Hosts with values summing to S produce an estimate near S.
        let mut r = rng(7);
        let values = [120u64, 340, 55, 410, 75, 200, 310, 90];
        let total: u64 = values.iter().sum();
        let mut agg = FmSketch::new(32);
        for &v in &values {
            let mut host = FmSketch::new(32);
            host.insert_elements(v, &mut r);
            agg.merge(&host);
        }
        let est = agg.estimate();
        let ratio = est / total as f64;
        assert!((0.3..3.0).contains(&ratio), "est {est} vs {total}");
    }

    #[test]
    fn fast_insert_statistically_matches_naive() {
        // Compare mean estimates of the two insertion paths over several
        // seeds; they sample the same distribution.
        let m = 5_000u64;
        let trials = 20;
        let mean = |fast: bool| -> f64 {
            let mut acc = 0.0;
            for seed in 0..trials {
                let mut r = rng(seed + if fast { 1_000 } else { 0 });
                let mut s = FmSketch::new(16);
                if fast {
                    s.insert_elements_fast(m, &mut r);
                } else {
                    s.insert_elements(m, &mut r);
                }
                acc += s.estimate();
            }
            acc / trials as f64
        };
        let (naive, fast) = (mean(false), mean(true));
        let ratio = fast / naive;
        assert!((0.5..2.0).contains(&ratio), "naive {naive} vs fast {fast}");
    }

    #[test]
    fn binomial_half_bounds_and_mean() {
        let mut r = rng(8);
        let mut acc = 0u64;
        let trials = 400;
        for _ in 0..trials {
            let x = binomial_half(100, &mut r);
            assert!(x <= 100);
            acc += x;
        }
        let mean = acc as f64 / trials as f64;
        assert!((40.0..60.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn geometric_bit_distribution() {
        let mut r = rng(9);
        let mut zero = 0u32;
        let n = 10_000;
        for _ in 0..n {
            if geometric_bit(&mut r) == 0 {
                zero += 1;
            }
        }
        let frac = zero as f64 / n as f64;
        assert!((0.45..0.55).contains(&frac), "P(bit=0) = {frac}");
    }

    #[test]
    fn wire_size() {
        assert_eq!(FmSketch::new(8).wire_bytes(), 64);
    }

    #[test]
    #[should_panic(expected = "at least one register")]
    fn zero_registers_rejected() {
        FmSketch::new(0);
    }
}
