//! Extension experiment: accuracy vs wire size of the duplicate-
//! insensitive count operators (the §7 design space).
//!
//! The paper fixes FM with `c` repetitions; this sweep puts FM and KMV
//! on the same axis — bytes a convergecast message spends on the sketch —
//! and measures the mean relative error of each at equal budgets.

use super::{Output, Scale};
use crate::report::Table;
use pov_sketch::{stats, FmSketch, KmvSketch};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Configuration for the operator-accuracy sweep.
#[derive(Clone, Debug)]
pub struct Config {
    /// True cardinality being estimated.
    pub n: u64,
    /// Wire budgets in bytes (each maps to FM `c = bytes/8` and KMV
    /// `k = bytes/8`).
    pub budgets: Vec<usize>,
    /// Trials per point.
    pub trials: usize,
    /// Root seed.
    pub seed: u64,
}

impl Config {
    /// Default sweep.
    pub fn paper() -> Self {
        Config {
            n: 40_000,
            budgets: vec![64, 128, 256, 512, 1024],
            trials: 20,
            seed: 70,
        }
    }

    /// The sizes `repro` runs at `scale`.
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Paper => Self::paper(),
            Scale::Quick => Config {
                n: 20_000,
                ..Self::paper()
            },
        }
    }

    /// A fast configuration for tests.
    pub fn smoke() -> Self {
        Config {
            n: 5_000,
            budgets: vec![64, 256],
            trials: 8,
            seed: 70,
        }
    }
}

/// One measured point.
#[derive(Clone, Debug)]
pub struct Row {
    /// Sketch wire budget in bytes.
    pub bytes: usize,
    /// Operator name.
    pub operator: &'static str,
    /// Mean relative error |est/n − 1|.
    pub mean_error: f64,
    /// 95% CI half-width of the error.
    pub error_ci: f64,
}

/// Run the sweep.
pub fn run(cfg: &Config) -> Vec<Row> {
    let mut rows = Vec::new();
    for &bytes in &cfg.budgets {
        let words = (bytes / 8).max(2);
        let mut fm_errors = Vec::with_capacity(cfg.trials);
        let mut kmv_errors = Vec::with_capacity(cfg.trials);
        for t in 0..cfg.trials {
            let seed = cfg
                .seed
                .wrapping_mul(1000)
                .wrapping_add(bytes as u64)
                .wrapping_mul(1000)
                .wrapping_add(t as u64);
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut fm = FmSketch::new(words);
            fm.insert_elements_fast(cfg.n, &mut rng);
            fm_errors.push((fm.estimate() / cfg.n as f64 - 1.0).abs());

            let mut rng = SmallRng::seed_from_u64(seed ^ 0xffff);
            let mut kmv = KmvSketch::new(words);
            kmv.insert_elements(cfg.n, &mut rng);
            kmv_errors.push((kmv.estimate() / cfg.n as f64 - 1.0).abs());
        }
        let (fm_mean, fm_ci) = stats::mean_ci95(&fm_errors);
        rows.push(Row {
            bytes,
            operator: "FM",
            mean_error: fm_mean,
            error_ci: fm_ci,
        });
        let (kmv_mean, kmv_ci) = stats::mean_ci95(&kmv_errors);
        rows.push(Row {
            bytes,
            operator: "KMV",
            mean_error: kmv_mean,
            error_ci: kmv_ci,
        });
    }
    rows
}

/// `repro ext`: the sweep at `scale`, as one table.
pub fn experiment(scale: Scale) -> Output {
    let cfg = Config::at(scale);
    table(&cfg, &run(&cfg)).into()
}

/// Render the sweep.
pub fn table(cfg: &Config, rows: &[Row]) -> Table {
    let mut t = Table::new(
        format!(
            "Extension — count-operator accuracy vs message size (n = {})",
            cfg.n
        ),
        &["bytes", "operator", "mean rel. error", "±95% CI"],
    );
    for r in rows {
        t.push(vec![
            r.bytes.to_string(),
            r.operator.to_string(),
            format!("{:.3}", r.mean_error),
            format!("{:.3}", r.error_ci),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_shrinks_with_budget() {
        let cfg = Config::smoke();
        let rows = run(&cfg);
        let err = |bytes: usize, op: &str| {
            rows.iter()
                .find(|r| r.bytes == bytes && r.operator == op)
                .map(|r| r.mean_error)
                .unwrap()
        };
        for op in ["FM", "KMV"] {
            assert!(
                err(256, op) < err(64, op) + 0.05,
                "{op}: 256 B ({:.3}) should beat 64 B ({:.3})",
                err(256, op),
                err(64, op)
            );
        }
        // At the bigger budget both land under 25% mean error.
        assert!(err(256, "FM") < 0.25);
        assert!(err(256, "KMV") < 0.25);
    }

    #[test]
    fn table_renders() {
        let cfg = Config::smoke();
        let rows = run(&cfg);
        let t = table(&cfg, &rows);
        assert_eq!(t.len(), rows.len());
    }
}
