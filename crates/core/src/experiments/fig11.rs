//! Fig 11 — communication costs on Grid topologies under the radio
//! medium.
//!
//! §6.6: sensor hosts broadcast — one transmission reaches all 8
//! neighbours for the price of a single message — so DAG overlaps
//! SPANNINGTREE exactly, WILDFIRE's count costs ~5× SPANNINGTREE, and
//! (the striking result) WILDFIRE's min/max cost *less* than
//! SPANNINGTREE thanks to early aggregation: a host whose value is
//! already dominated never sends it.

use super::{Output, Scale};
use crate::report::Table;
use crate::workload;
use pov_protocols::wildfire::WildfireOpts;
use pov_protocols::{runner, Aggregate, ProtocolKind, RunPlan};
use pov_sim::Medium;
use pov_topology::analysis;
use pov_topology::generators;

/// Configuration for the Fig 11 sweep.
#[derive(Clone, Debug)]
pub struct Config {
    /// Grid side lengths (|H| = side²).
    pub sides: Vec<usize>,
    /// FM repetitions.
    pub c: usize,
    /// Root seed.
    pub seed: u64,
}

impl Config {
    /// The paper's configuration (grids up to 100×100 = 10K hosts).
    pub fn paper() -> Self {
        Config {
            sides: vec![50, 70, 85, 100],
            c: 8,
            seed: 11,
        }
    }

    /// The sizes `repro` runs at `scale`.
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Paper => Self::paper(),
            Scale::Quick => Config {
                sides: vec![30, 40, 50],
                c: 8,
                seed: 11,
            },
        }
    }

    /// A fast configuration for tests/benches.
    pub fn smoke() -> Self {
        Config {
            sides: vec![15, 20],
            c: 8,
            seed: 11,
        }
    }
}

/// One measured point.
#[derive(Clone, Debug)]
pub struct Row {
    /// Hosts in the grid.
    pub n: usize,
    /// Series label.
    pub series: String,
    /// Total messages (radio transmissions).
    pub messages: u64,
}

/// Run the sweep.
pub fn run(cfg: &Config) -> Vec<Row> {
    let mut rows = Vec::new();
    for &side in &cfg.sides {
        let graph = generators::grid_square(side);
        let values = workload::paper_values(graph.num_hosts(), cfg.seed ^ 0xcafe);
        let d = analysis::diameter_estimate(&graph, 2, cfg.seed | 1).max(1);
        let mut measure = |series: &str, kind: ProtocolKind, aggregate: Aggregate| {
            let run_cfg = RunPlan::query(aggregate)
                .d_hat(d + 2)
                .repetitions(cfg.c)
                .medium(Medium::Radio)
                .seed(cfg.seed);
            let out = runner::run(kind, &graph, &values, &run_cfg);
            rows.push(Row {
                n: graph.num_hosts(),
                series: series.to_string(),
                messages: out.metrics.messages_sent,
            });
        };
        let wf = ProtocolKind::Wildfire(WildfireOpts::default());
        measure("WILDFIRE count", wf, Aggregate::Count);
        measure("WILDFIRE max", wf, Aggregate::Max);
        measure("WILDFIRE min", wf, Aggregate::Min);
        measure(
            "SPANNINGTREE count",
            ProtocolKind::SpanningTree,
            Aggregate::Count,
        );
        measure(
            "DAG(k=2) count",
            ProtocolKind::Dag { k: 2 },
            Aggregate::Count,
        );
    }
    rows
}

/// `repro fig11`: the sweep at `scale`, as one table.
pub fn experiment(scale: Scale) -> Output {
    table(&run(&Config::at(scale))).into()
}

/// Render as the paper's figure series.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "Fig 11 — communication cost on Grid (radio medium)",
        &["|H|", "series", "messages"],
    );
    for r in rows {
        t.push(vec![
            r.n.to_string(),
            r.series.clone(),
            r.messages.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(rows: &[Row], n: usize, s: &str) -> u64 {
        rows.iter()
            .find(|r| r.n == n && r.series == s)
            .map(|r| r.messages)
            .unwrap()
    }

    #[test]
    fn dag_overlaps_spanning_tree_on_radio() {
        let rows = run(&Config::smoke());
        let n = 15 * 15;
        let st = series(&rows, n, "SPANNINGTREE count") as f64;
        let dag = series(&rows, n, "DAG(k=2) count") as f64;
        // §6.6: "the DIRECTEDACYCLICGRAPH curve overlaps SPANNINGTREE as
        // the cost of sending messages to k ≥ 1 parents is the same".
        // (Our DAG unicasts reports, so allow modest slack.)
        assert!((0.7..1.5).contains(&(dag / st)), "DAG {dag} vs ST {st}");
    }

    #[test]
    fn wildfire_count_costs_multiple_of_st() {
        let rows = run(&Config::smoke());
        let n = 20 * 20;
        let wf = series(&rows, n, "WILDFIRE count") as f64;
        let st = series(&rows, n, "SPANNINGTREE count") as f64;
        let ratio = wf / st;
        assert!(
            (1.5..12.0).contains(&ratio),
            "WILDFIRE/ST = {ratio:.2} (paper: ~5x)"
        );
    }

    #[test]
    fn wildfire_min_beats_count() {
        // §6.6: early aggregation makes min/max far cheaper than count.
        let rows = run(&Config::smoke());
        let n = 20 * 20;
        let count = series(&rows, n, "WILDFIRE count");
        let min = series(&rows, n, "WILDFIRE min");
        assert!(
            min < count,
            "min ({min}) should cost less than count ({count})"
        );
    }

    #[test]
    fn all_series_present_per_size() {
        let cfg = Config::smoke();
        let rows = run(&cfg);
        assert_eq!(rows.len(), cfg.sides.len() * 5);
    }
}
