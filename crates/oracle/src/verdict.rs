//! Deciding whether a declared value satisfies Single-Site Validity.

use crate::bounds::HostSets;
use pov_protocols::Aggregate;

/// Tolerance for floating-point membership checks (declared values come
/// back as `f64` even when exact).
const EPS: f64 = 1e-9;

/// The valid range `[lo, hi]` such that `v = q(H)` for some
/// `HC ⊆ H ⊆ HU` implies `lo ≤ v ≤ hi`.
///
/// * `count`/`sum`: monotone in the host set, so the range is exactly
///   `[q(HC), q(HU)]`.
/// * `min`: adding hosts can only lower the minimum, so
///   `[min(HU), min(HC)]`; symmetric for `max`.
/// * `average`: extremal averages are reached by greedily adjoining
///   `HU \ HC` hosts with values below (resp. above) the running mean.
///
/// Returns `None` when no valid `H` can produce a defined answer (e.g.
/// `min` with `HU = ∅`).
pub fn aggregate_bounds(
    aggregate: Aggregate,
    sets: &HostSets,
    values: &[u64],
) -> Option<(f64, f64)> {
    let hc = sets.hc_values(values);
    let hu = sets.hu_values(values);
    match aggregate {
        Aggregate::Count => Some((hc.len() as f64, hu.len() as f64)),
        Aggregate::Sum => Some((hc.iter().sum::<u64>() as f64, hu.iter().sum::<u64>() as f64)),
        Aggregate::Min => {
            let lo = hu.iter().min().copied()? as f64;
            // H ⊇ HC forces min(H) ≤ min(HC); with empty HC any single
            // HU host is a valid H, so the upper end is max(HU).
            let hi = match hc.iter().min() {
                Some(&m) => m as f64,
                None => *hu.iter().max().expect("hu non-empty") as f64,
            };
            Some((lo, hi))
        }
        Aggregate::Max => {
            let hi = hu.iter().max().copied()? as f64;
            let lo = match hc.iter().max() {
                Some(&m) => m as f64,
                None => *hu.iter().min().expect("hu non-empty") as f64,
            };
            Some((lo, hi))
        }
        Aggregate::Average => {
            if hu.is_empty() {
                return None;
            }
            let extras: Vec<u64> = sets
                .hu
                .iter()
                .zip(&sets.hc)
                .enumerate()
                .filter(|&(_, (&in_hu, &in_hc))| in_hu && !in_hc)
                .map(|(i, _)| values[i])
                .collect();
            Some((
                extremal_average(&hc, &extras, false),
                extremal_average(&hc, &extras, true),
            ))
        }
    }
}

/// Greedy extremal average: start from the mandatory `base` multiset and
/// adjoin optional values while they push the mean in the requested
/// direction. With an empty base the first optional value is always
/// taken (the host set must be non-empty for `avg` to be defined).
fn extremal_average(base: &[u64], optional: &[u64], maximize: bool) -> f64 {
    let mut sorted: Vec<u64> = optional.to_vec();
    sorted.sort_unstable();
    if maximize {
        sorted.reverse();
    }
    let mut sum: f64 = base.iter().map(|&v| v as f64).sum();
    let mut n = base.len() as f64;
    for &v in &sorted {
        let v = v as f64;
        if n == 0.0 {
            sum += v;
            n += 1.0;
            continue;
        }
        let improves = if maximize { v > sum / n } else { v < sum / n };
        if improves {
            sum += v;
            n += 1.0;
        } else {
            break;
        }
    }
    if n == 0.0 {
        f64::NAN
    } else {
        sum / n
    }
}

/// Multiplicative deviation of a declared value `v` from the valid
/// envelope `[lo, hi]`: `max(lo/v, v/hi, 1)` with `hi` floored at
/// `1e-12`. `1.0` means `v` sat inside the envelope; WILDFIRE's
/// Approximate SSV (Thm 5.3) keeps it within FM noise while best-effort
/// protocols blow up. `None` when `v <= 0`, where no finite factor
/// exists.
pub fn ssv_deviation(v: f64, lo: f64, hi: f64) -> Option<f64> {
    if v <= 0.0 {
        return None;
    }
    Some((lo / v).max(v / hi.max(1e-12)).max(1.0))
}

/// The oracle's judgement of a declared value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Verdict {
    /// Whether `v` lies inside the Single-Site-Validity range — what the
    /// paper's Figs 7–9 check visually against the ORACLE curves.
    pub within_bounds: bool,
    /// The valid range, if any valid `H` yields a defined answer.
    pub bounds: Option<(f64, f64)>,
    /// For min/max only: whether `v` additionally equals some `HU`
    /// host's attribute value (the strict set-semantics requirement).
    pub witnessed: Option<bool>,
    /// Smallest factor `f ≥ 1` with `lo/f ≤ v ≤ hi·f` — the Approximate
    /// Single-Site-Validity slack (Thm 5.3 guarantees WILDFIRE stays
    /// within factor `c` with probability `1 − 2/c`). `None` when
    /// undefined (no bounds, or `v ≤ 0` with positive bounds).
    pub approx_factor: Option<f64>,
}

impl Verdict {
    /// Judge a declared value against the oracle's host sets.
    pub fn judge(aggregate: Aggregate, sets: &HostSets, values: &[u64], v: f64) -> Verdict {
        let bounds = aggregate_bounds(aggregate, sets, values);
        let within_bounds = match bounds {
            Some((lo, hi)) => v >= lo - EPS && v <= hi + EPS,
            None => false,
        };
        let witnessed = match aggregate {
            Aggregate::Min | Aggregate::Max => Some(
                sets.hu_values(values)
                    .iter()
                    .any(|&w| (w as f64 - v).abs() < EPS),
            ),
            _ => None,
        };
        let approx_factor = bounds.and_then(|(lo, hi)| {
            if v <= 0.0 {
                // A non-positive estimate of a positive quantity has no
                // finite multiplicative slack (unless the bounds allow 0).
                return (lo <= EPS).then_some(1.0);
            }
            let need_low = if v < lo { lo / v } else { 1.0 };
            let need_high = if v > hi {
                if hi <= EPS {
                    return None;
                }
                v / hi
            } else {
                1.0
            };
            Some(need_low.max(need_high))
        });
        Verdict {
            within_bounds,
            bounds,
            witnessed,
            approx_factor,
        }
    }

    /// Strict Single-Site Validity: inside the bounds, and for min/max
    /// the value is witnessed by a real host.
    pub fn is_valid(&self) -> bool {
        self.within_bounds && self.witnessed.unwrap_or(true)
    }

    /// Approximate Single-Site Validity within factor `c` (Thm 5.3).
    pub fn is_approx_valid(&self, c: f64) -> bool {
        self.approx_factor.is_some_and(|f| f <= c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::HostSets;

    /// Hand-built sets: hosts 0..n with `hc`/`hu` membership lists.
    fn sets(n: usize, hc: &[usize], hu: &[usize]) -> HostSets {
        let mut s = HostSets {
            hc: vec![false; n],
            hu: vec![false; n],
        };
        for &i in hc {
            s.hc[i] = true;
        }
        for &i in hu {
            s.hu[i] = true;
        }
        s
    }

    #[test]
    fn count_bounds() {
        let s = sets(5, &[0, 1], &[0, 1, 2, 3]);
        let values = [1u64; 5];
        let b = aggregate_bounds(Aggregate::Count, &s, &values).unwrap();
        assert_eq!(b, (2.0, 4.0));
        assert!(Verdict::judge(Aggregate::Count, &s, &values, 3.0).is_valid());
        assert!(!Verdict::judge(Aggregate::Count, &s, &values, 1.0).is_valid());
        assert!(!Verdict::judge(Aggregate::Count, &s, &values, 5.0).is_valid());
    }

    #[test]
    fn sum_bounds() {
        let values = [10u64, 20, 30, 40, 50];
        let s = sets(5, &[0, 1], &[0, 1, 2, 3]);
        let b = aggregate_bounds(Aggregate::Sum, &s, &values).unwrap();
        assert_eq!(b, (30.0, 100.0));
    }

    #[test]
    fn min_bounds_and_witness() {
        let values = [10u64, 20, 30, 5, 50];
        // HC = {1, 2} (min 20); HU adds host 3 (value 5).
        let s = sets(5, &[1, 2], &[1, 2, 3]);
        let b = aggregate_bounds(Aggregate::Min, &s, &values).unwrap();
        assert_eq!(b, (5.0, 20.0));
        // 20 and 5 are valid minima; 30 exceeds min(HC); 7 is in range
        // but no host holds 7 → fails the witness test.
        assert!(Verdict::judge(Aggregate::Min, &s, &values, 20.0).is_valid());
        assert!(Verdict::judge(Aggregate::Min, &s, &values, 5.0).is_valid());
        assert!(!Verdict::judge(Aggregate::Min, &s, &values, 30.0).is_valid());
        let v7 = Verdict::judge(Aggregate::Min, &s, &values, 7.0);
        assert!(v7.within_bounds && !v7.is_valid());
    }

    #[test]
    fn max_bounds() {
        let values = [10u64, 20, 30, 5, 50];
        let s = sets(5, &[1, 2], &[1, 2, 4]);
        let b = aggregate_bounds(Aggregate::Max, &s, &values).unwrap();
        assert_eq!(b, (30.0, 50.0));
        assert!(Verdict::judge(Aggregate::Max, &s, &values, 50.0).is_valid());
        assert!(!Verdict::judge(Aggregate::Max, &s, &values, 20.0).is_valid());
    }

    #[test]
    fn average_bounds_greedy() {
        let values = [10u64, 20, 90, 2, 50];
        // HC = {1} (avg 20). Extras: 0 (10), 2 (90), 3 (2), 4 (50).
        let s = sets(5, &[1], &[0, 1, 2, 3, 4]);
        let (lo, hi) = aggregate_bounds(Aggregate::Average, &s, &values).unwrap();
        // Min avg: take 2 then 10: (20+2+10)/3 = 32/3 ≈ 10.67 (50 and 90
        // would raise it again, so the greedy stops).
        assert!((lo - 32.0 / 3.0).abs() < 1e-9, "lo = {lo}");
        // Max avg: take 90 → (20+90)/2 = 55; adjoining 50 < 55 would
        // lower the mean, so the greedy stops at 55.
        assert!((hi - 55.0).abs() < 1e-9, "hi = {hi}");
    }

    #[test]
    fn average_with_empty_hc() {
        let values = [10u64, 40];
        let s = sets(2, &[], &[0, 1]);
        let (lo, hi) = aggregate_bounds(Aggregate::Average, &s, &values).unwrap();
        assert_eq!((lo, hi), (10.0, 40.0));
    }

    #[test]
    fn min_with_empty_everything() {
        let s = sets(3, &[], &[]);
        assert!(aggregate_bounds(Aggregate::Min, &s, &[1, 2, 3]).is_none());
        let v = Verdict::judge(Aggregate::Min, &s, &[1, 2, 3], 1.0);
        assert!(!v.within_bounds);
    }

    #[test]
    fn count_with_empty_hc_accepts_zero() {
        let s = sets(3, &[], &[0, 1]);
        let v = Verdict::judge(Aggregate::Count, &s, &[1, 1, 1], 0.0);
        assert!(v.is_valid(), "empty H is allowed when HC = ∅");
    }

    #[test]
    fn approx_factor() {
        let s = sets(10, &[0, 1, 2, 3], &[0, 1, 2, 3, 4, 5]);
        let values = [1u64; 10];
        // Bounds [4, 6]. v = 12 needs factor 2 on the high side.
        let v = Verdict::judge(Aggregate::Count, &s, &values, 12.0);
        assert!(!v.within_bounds);
        assert!((v.approx_factor.unwrap() - 2.0).abs() < 1e-9);
        assert!(v.is_approx_valid(2.0));
        assert!(!v.is_approx_valid(1.5));
        // v = 1 needs factor 4 on the low side.
        let v = Verdict::judge(Aggregate::Count, &s, &values, 1.0);
        assert!((v.approx_factor.unwrap() - 4.0).abs() < 1e-9);
        // In-bounds values need factor 1.
        let v = Verdict::judge(Aggregate::Count, &s, &values, 5.0);
        assert_eq!(v.approx_factor, Some(1.0));
        // The SSV deviation reads the same factors off the envelope.
        assert_eq!(ssv_deviation(12.0, 4.0, 6.0), Some(2.0));
        assert_eq!(ssv_deviation(1.0, 4.0, 6.0), Some(4.0));
        assert_eq!(ssv_deviation(5.0, 4.0, 6.0), Some(1.0));
    }

    #[test]
    fn zero_estimate_of_positive_quantity() {
        let s = sets(4, &[0, 1], &[0, 1, 2]);
        let v = Verdict::judge(Aggregate::Count, &s, &[1; 4], 0.0);
        assert!(!v.within_bounds);
        assert_eq!(v.approx_factor, None);
        assert_eq!(ssv_deviation(0.0, 2.0, 3.0), None);
        assert_eq!(ssv_deviation(-1.0, 0.0, 3.0), None);
    }
}
