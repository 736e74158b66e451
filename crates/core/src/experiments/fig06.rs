//! Fig 6 — accuracy of the duplicate-insensitive count and sum
//! operators.
//!
//! §6.4: a set `M` of Zipf-distributed elements in `[10, 500]` with
//! `|M| ∈ {2^10, 2^12, 2^14}`; estimate the cardinality (count) and the
//! total (sum); plot the ratio `m̂/m` against the repetition count `c`.
//! The paper observes the ratio converging to 1 by `c ≈ 8`.

use super::{Output, Scale};
use crate::report::Table;
use crate::workload::Zipf;
use pov_sketch::{stats, FmSketch};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Configuration for the Fig 6 sweep.
#[derive(Clone, Debug)]
pub struct Config {
    /// Operand-set sizes `|M|`.
    pub set_sizes: Vec<u64>,
    /// Repetition counts `c` to sweep.
    pub c_values: Vec<usize>,
    /// Independent trials per point.
    pub trials: usize,
    /// Root seed.
    pub seed: u64,
}

impl Config {
    /// The paper's configuration.
    pub fn paper() -> Self {
        Config {
            set_sizes: vec![1 << 10, 1 << 12, 1 << 14],
            c_values: (1..=16).collect(),
            trials: 10,
            seed: 2004,
        }
    }

    /// The sizes `repro` runs at `scale`.
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Paper => Self::paper(),
            Scale::Quick => Config {
                set_sizes: vec![1 << 10, 1 << 12],
                c_values: vec![1, 2, 4, 8, 12, 16],
                trials: 10,
                seed: 2004,
            },
        }
    }

    /// A fast configuration for tests/benches.
    pub fn smoke() -> Self {
        Config {
            set_sizes: vec![1 << 10],
            c_values: vec![2, 8, 16],
            trials: 3,
            seed: 2004,
        }
    }
}

/// One point of the figure.
#[derive(Clone, Debug)]
pub struct Row {
    /// `"count"` or `"sum"`.
    pub operator: &'static str,
    /// `|M|`.
    pub m: u64,
    /// Repetitions `c`.
    pub c: usize,
    /// Mean of `m̂/m` over the trials.
    pub ratio_mean: f64,
    /// 95% CI half-width of the ratio.
    pub ratio_ci: f64,
}

/// Run the sweep.
pub fn run(cfg: &Config) -> Vec<Row> {
    let mut rows = Vec::new();
    for &m in &cfg.set_sizes {
        for &c in &cfg.c_values {
            let mut count_ratios = Vec::with_capacity(cfg.trials);
            let mut sum_ratios = Vec::with_capacity(cfg.trials);
            for t in 0..cfg.trials {
                let seed = cfg
                    .seed
                    .wrapping_add(m)
                    .wrapping_mul(31)
                    .wrapping_add(c as u64)
                    .wrapping_mul(31)
                    .wrapping_add(t as u64);
                let mut rng = SmallRng::seed_from_u64(seed);
                let values = Zipf::paper().sample_n(m as usize, &mut rng);

                // count: each element of M sets one sketch entry.
                let mut count_sketch = FmSketch::new(c);
                for _ in 0..m {
                    count_sketch.insert_one(&mut rng);
                }
                count_ratios.push(count_sketch.estimate() / m as f64);

                // sum: each element contributes `value` pretend-elements.
                let total: u64 = values.iter().sum();
                let mut sum_sketch = FmSketch::new(c);
                for &v in &values {
                    sum_sketch.insert_elements_fast(v, &mut rng);
                }
                sum_ratios.push(sum_sketch.estimate() / total as f64);
            }
            let (cm, cci) = stats::mean_ci95(&count_ratios);
            rows.push(Row {
                operator: "count",
                m,
                c,
                ratio_mean: cm,
                ratio_ci: cci,
            });
            let (sm, sci) = stats::mean_ci95(&sum_ratios);
            rows.push(Row {
                operator: "sum",
                m,
                c,
                ratio_mean: sm,
                ratio_ci: sci,
            });
        }
    }
    rows
}

/// `repro fig6`: the sweep at `scale`, as one table.
pub fn experiment(scale: Scale) -> Output {
    table(&run(&Config::at(scale))).into()
}

/// Render as the paper's series.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "Fig 6 — accuracy of count and sum operators (ratio m̂/m vs repetitions c)",
        &["operator", "|M|", "c", "ratio", "±95% CI"],
    );
    for r in rows {
        t.push(vec![
            r.operator.to_string(),
            r.m.to_string(),
            r.c.to_string(),
            format!("{:.3}", r.ratio_mean),
            format!("{:.3}", r.ratio_ci),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_converges_toward_one_with_c() {
        let cfg = Config {
            set_sizes: vec![1 << 12],
            c_values: vec![2, 16],
            trials: 6,
            seed: 9,
        };
        let rows = run(&cfg);
        let err = |c: usize, op: &str| -> f64 {
            rows.iter()
                .find(|r| r.c == c && r.operator == op)
                .map(|r| (r.ratio_mean - 1.0).abs())
                .unwrap()
        };
        // More repetitions → closer to 1 (allow slack for randomness but
        // require the headline trend).
        assert!(
            err(16, "count") < err(2, "count") + 0.35,
            "count: c=16 err {} vs c=2 err {}",
            err(16, "count"),
            err(2, "count")
        );
        assert!(
            err(16, "count") < 0.5,
            "count at c=16: {}",
            err(16, "count")
        );
        assert!(err(16, "sum") < 0.6, "sum at c=16: {}", err(16, "sum"));
    }

    #[test]
    fn row_count_matches_grid() {
        let cfg = Config {
            set_sizes: vec![256, 512],
            c_values: vec![4, 8],
            trials: 2,
            seed: 1,
        };
        let rows = run(&cfg);
        assert_eq!(rows.len(), 2 * 2 * 2); // sizes × c × operators
        let t = table(&rows);
        assert_eq!(t.len(), rows.len());
    }
}
