//! Experiment drivers — one per figure of the paper's §6 evaluation.
//!
//! Every driver has a `paper()` configuration (the sizes and sweeps of
//! the paper), a quick one of the same shape (the `repro` default) and a
//! `smoke()` configuration (minutes → milliseconds, for tests), runs
//! deterministically from its seed, and renders its results as the same
//! rows/series the paper plots.
//!
//! [`REGISTRY`] is the list of `repro` experiments: one row per name,
//! each naming the driver entry that picks its size from a [`Scale`] and
//! returns what it prints as an [`Output`]. Adding an experiment means
//! one driver and one row.
//!
//! | Module | Paper figure |
//! |--------|--------------|
//! | [`fig06`] | Fig 6 — accuracy of the count/sum operators vs `c` |
//! | [`validity`] | Figs 7, 8, 9 — declared values vs ORACLE bounds under churn |
//! | [`fig10`] | Fig 10 — communication cost on Random (+ Gnutella) |
//! | [`fig11`] | Fig 11 — communication cost on Grid (radio) |
//! | [`fig12`] | Fig 12 — computation-cost distribution |
//! | [`fig13`] | Fig 13a/b — time cost; messages per time instant |
//! | [`price`] | §1.1/§7 headline — the price of validity |
//! | [`ablation`] | ablations A1–A3 — §5.3 optimizations, sketch paths |
//! | [`ext_accuracy`] | §7 design space — FM vs KMV count accuracy at equal message size |
//! | [`adversary`] | beyond the paper — sketch-targeted vs uniform churn at equal budget |
//! | [`overlay`] | beyond the paper — static graph vs maintained overlay at equal churn |

use crate::report::Table;
use std::fmt;

pub mod ablation;
pub mod adversary;
pub mod ext_accuracy;
pub mod fig06;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod overlay;
pub mod price;
pub mod validity;

/// A driver entry: run one experiment at a [`Scale`] and return what it
/// prints.
pub type Experiment = fn(Scale) -> Output;

/// Every `repro` experiment, in `repro list` order: its name and the
/// driver entry that runs it.
pub const REGISTRY: &[(&str, Experiment)] = &[
    ("fig6", fig06::experiment),
    ("fig7", validity::fig7),
    ("fig8", validity::fig8),
    ("fig9", validity::fig9),
    ("fig10", fig10::experiment),
    ("fig11", fig11::experiment),
    ("fig12", fig12::experiment),
    ("fig13a", fig13::fig13a),
    ("fig13b", fig13::fig13b),
    ("price", price::experiment),
    ("ablation", ablation::experiment),
    ("ext", ext_accuracy::experiment),
    ("adversary", adversary::experiment),
    ("overlay", overlay::experiment),
];

/// Experiment size preset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Scaled-down sweeps of the paper's shapes, topologies of a few
    /// thousand hosts (the `repro` default).
    Quick,
    /// The paper's §6 sizes (Gnutella 39,046; Random / Power-law 40K;
    /// Grid 100×100), selected with `repro --paper`.
    Paper,
}

/// What one experiment prints: its tables, then note lines that go to
/// stdout only (`repro --json` carries the tables alone).
#[derive(Clone, Debug)]
pub struct Output {
    /// The experiment's tables, in print order.
    pub tables: Vec<Table>,
    /// Lines printed after the tables, then one blank line when any.
    pub notes: Vec<String>,
}

impl From<Table> for Output {
    fn from(table: Table) -> Self {
        Output {
            tables: vec![table],
            notes: Vec::new(),
        }
    }
}

impl fmt::Display for Output {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for t in &self.tables {
            writeln!(f, "{t}")?;
        }
        if !self.notes.is_empty() {
            for line in &self.notes {
                writeln!(f, "{line}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Multiplicative deviation of `v` from an envelope `[lo, hi]`, with
/// `v` floored at `1e-12` so a non-positive value reads as far outside.
fn envelope_deviation(v: f64, lo: f64, hi: f64) -> f64 {
    pov_oracle::ssv_deviation(v.max(1e-12), lo, hi).expect("a floored value is positive")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_scales_materialize() {
        for s in [Scale::Quick, Scale::Paper] {
            assert!(!fig06::Config::at(s).set_sizes.is_empty());
            assert!(!validity::Config::fig07(s).r_values.is_empty());
            assert!(!fig10::Config::at(s).sizes.is_empty());
            assert!(!fig11::Config::at(s).sides.is_empty());
            assert!(!fig12::Config::at(s).topologies.is_empty());
            assert!(!fig13::Config::at(s).sizes.is_empty());
            assert!(!price::Config::at(s).topologies.is_empty());
            assert!(ablation::Config::at(s).n > 0);
        }
    }

    #[test]
    fn paper_scale_matches_section_6() {
        assert_eq!(validity::Config::fig07(Scale::Paper).n, 39_046);
        assert_eq!(validity::Config::fig09(Scale::Paper).n, 10_000);
        assert_eq!(fig10::Config::at(Scale::Paper).sizes.last(), Some(&40_000));
        assert_eq!(fig11::Config::at(Scale::Paper).sides.last(), Some(&100));
    }
}
