//! Ablations A1–A3: the §5.3 WILDFIRE optimizations (A1 early deadline,
//! A2 piggyback) and the §5.2 sum-insertion fast path (A3).
//!
//! The paper asserts both engineering optimizations without isolating
//! them; these drivers quantify each one.

use super::{Output, Scale};
use crate::report::Table;
use crate::workload;
use pov_protocols::wildfire::WildfireOpts;
use pov_protocols::{runner, Aggregate, ProtocolKind, RunPlan};
use pov_topology::analysis;
use pov_topology::generators::TopologyKind;

/// Configuration for the WILDFIRE-opts ablation (A1/A2).
#[derive(Clone, Debug)]
pub struct Config {
    /// Topology under test.
    pub topology: TopologyKind,
    /// Network size.
    pub n: usize,
    /// Aggregate under test.
    pub aggregate: Aggregate,
    /// FM repetitions.
    pub c: usize,
    /// Root seed.
    pub seed: u64,
}

impl Config {
    /// Paper-scale ablation on Random.
    pub fn paper() -> Self {
        Config {
            topology: TopologyKind::Random,
            n: 20_000,
            aggregate: Aggregate::Count,
            c: 8,
            seed: 99,
        }
    }

    /// The sizes `repro` runs at `scale`.
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Paper => Self::paper(),
            Scale::Quick => Config {
                n: 4_000,
                ..Self::paper()
            },
        }
    }

    /// A fast configuration for tests/benches.
    pub fn smoke() -> Self {
        Config {
            n: 500,
            ..Self::paper()
        }
    }
}

/// One ablation variant's cost.
#[derive(Clone, Debug)]
pub struct Row {
    /// Variant label.
    pub variant: String,
    /// Total messages.
    pub messages: u64,
    /// Declared-value correctness anchor (all variants must agree within
    /// FM noise; recorded for the table).
    pub value: f64,
}

/// Run WILDFIRE with each combination of the §5.3 optimizations.
pub fn run(cfg: &Config) -> Vec<Row> {
    let graph = cfg.topology.build(cfg.n, cfg.seed);
    let values = workload::paper_values(graph.num_hosts(), cfg.seed ^ 0xab1a);
    let d = analysis::diameter_estimate(&graph, 4, cfg.seed | 1).max(1);
    let variants = [
        ("baseline (no opts)", false, false),
        ("+early deadline", true, false),
        ("+piggyback", false, true),
        ("+both (paper)", true, true),
    ];
    variants
        .iter()
        .map(|&(label, early_deadline, piggyback)| {
            let run_cfg = RunPlan::query(cfg.aggregate)
                .d_hat(d + 2)
                .repetitions(cfg.c)
                .seed(cfg.seed);
            let out = runner::run(
                ProtocolKind::Wildfire(WildfireOpts {
                    early_deadline,
                    piggyback,
                }),
                &graph,
                &values,
                &run_cfg,
            );
            Row {
                variant: label.to_string(),
                messages: out.metrics.messages_sent,
                value: out.value.unwrap_or(f64::NAN),
            }
        })
        .collect()
}

/// `repro ablation`: the ablation at `scale`, as one table.
pub fn experiment(scale: Scale) -> Output {
    table(&run(&Config::at(scale))).into()
}

/// Render the ablation.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "Ablation A1/A2 — WILDFIRE §5.3 optimizations",
        &["variant", "messages", "declared value"],
    );
    for r in rows {
        t.push(vec![
            r.variant.clone(),
            r.messages.to_string(),
            format!("{:.1}", r.value),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn piggyback_saves_messages() {
        let rows = run(&Config::smoke());
        let get = |v: &str| {
            rows.iter()
                .find(|r| r.variant == v)
                .map(|r| r.messages)
                .unwrap()
        };
        assert!(
            get("+piggyback") < get("baseline (no opts)"),
            "piggyback {} vs baseline {}",
            get("+piggyback"),
            get("baseline (no opts)")
        );
        assert!(
            get("+both (paper)") <= get("+early deadline"),
            "both opts should not exceed early-deadline alone"
        );
    }

    #[test]
    fn all_variants_return_plausible_values() {
        let cfg = Config::smoke();
        let rows = run(&cfg);
        for r in &rows {
            // count of 500 hosts, FM error: generous envelope.
            assert!(
                (100.0..2_500.0).contains(&r.value),
                "{}: value {}",
                r.variant,
                r.value
            );
        }
    }
}
