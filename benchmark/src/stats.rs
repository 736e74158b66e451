//! Order statistics for small timing samples.

/// Median of `xs` (mean of the two middle values for even lengths).
///
/// # Panics
/// Panics on an empty slice or a NaN sample.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// First and third quartile by the *exclusive* method — the same cut
/// points as Python's `statistics.quantiles(xs, n=4)`, which is what
/// the benchmark contract's repeatability check uses. Needs two samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    assert!(s.len() >= 2, "quartiles need at least two samples");
    let m = s.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, s.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile range as a share of the median (`0` for fewer than two
/// samples or a zero median).
pub fn iqr_rel(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(xs);
    let med = median(xs);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    assert!(!xs.is_empty(), "order statistic of an empty sample");
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a timing sample"));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2, 8, 32]
        assert_eq!(
            quartiles(&[64.0, 1.0, 2.0, 32.0, 4.0, 8.0, 16.0]),
            (2.0, 32.0)
        );
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 3.5));
    }

    #[test]
    fn iqr_rel_is_spread_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_rel(&xs) - 1.0).abs() < 1e-12); // (8.25 - 2.75) / 5.5
        assert_eq!(iqr_rel(&[5.0]), 0.0);
        assert_eq!(iqr_rel(&[2.0, 2.0, 2.0]), 0.0);
    }
}
