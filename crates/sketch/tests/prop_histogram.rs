//! Property-based tests for histogram bucket layouts: for any value range
//! and any bucket count the range can hold, the buckets tile `[min, max]`
//! exactly and bucket indexing agrees with the bucket ranges.

use pov_sketch::Buckets;
use proptest::prelude::*;

/// `(min, max, count)` with `1 ≤ count ≤ max − min + 1`, over narrow
/// ranges near zero, ranges anywhere in `u64`, and the full range.
fn layout() -> impl Strategy<Value = (u64, u64, usize)> {
    (0u8..3, 0..=u64::MAX, 0..=u64::MAX)
        .prop_map(|(shape, a, b)| match shape {
            0 => (a % 1_000, a % 1_000 + b % 200),
            1 => (a.min(b), a.max(b)),
            _ => (0, u64::MAX),
        })
        .prop_flat_map(|(min, max)| {
            let most = (u128::from(max - min) + 1).min(64) as usize;
            (Just(min), Just(max), 1..=most)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn buckets_tile_the_range_and_index_agrees(
        (min, max, count) in layout(),
        probe in 0..=u64::MAX,
    ) {
        let b = Buckets::equi_width(min, max, count);
        let mut next = min;
        for i in 0..count {
            let (lo, hi) = b.range_of(i);
            prop_assert_eq!(lo, next, "gap or overlap before bucket {}", i);
            prop_assert!(lo <= hi, "bucket {} inverted: ({}, {})", i, lo, hi);
            prop_assert_eq!(b.index_of(lo), i);
            prop_assert_eq!(b.index_of(hi), i);
            // One more value of the bucket, drawn from the probe.
            let inside = lo + probe % (hi - lo).saturating_add(1);
            prop_assert_eq!(b.index_of(inside), i);
            if i + 1 == count {
                prop_assert_eq!(hi, max);
            } else {
                next = hi + 1;
            }
        }
        // Values outside the range clamp to the edge buckets.
        if min > 0 {
            prop_assert_eq!(b.index_of(min - 1), 0);
        }
        if max < u64::MAX {
            prop_assert_eq!(b.index_of(max + 1), count - 1);
        }
    }
}
