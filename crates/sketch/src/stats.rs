//! Small statistics helpers shared by experiments: mean, standard
//! deviation and confidence intervals (the §6.5 plots show 95% CIs over
//! 10 trials).

/// Sample mean. Empty input yields 0.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample standard deviation. Fewer than two samples yield 0.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64;
    var.sqrt()
}

/// Half-width of the 95% normal-approximation confidence interval:
/// `1.96 · s / √n`. The paper's Figs 7–9 plot means ± this.
pub fn ci95_half_width(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    1.96 * std_dev(xs) / (xs.len() as f64).sqrt()
}

/// Mean and 95% CI half-width in one pass.
pub fn mean_ci95(xs: &[f64]) -> (f64, f64) {
    (mean(xs), ci95_half_width(xs))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((std_dev(&xs) - 2.138089935).abs() < 1e-6);
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[3.0]), 0.0);
        assert_eq!(ci95_half_width(&[3.0]), 0.0);
    }

    #[test]
    fn ci_shrinks_with_samples() {
        let few = [1.0, 2.0, 3.0, 4.0];
        let many: Vec<f64> = few.iter().cycle().take(64).copied().collect();
        assert!(ci95_half_width(&many) < ci95_half_width(&few));
    }
}
