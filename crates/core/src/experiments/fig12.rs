//! Fig 12 — computation-cost distribution.
//!
//! §6.6.1: for a count query, plot how many hosts processed how many
//! messages, on Power-Law and Grid. WILDFIRE's curve has the same shape
//! as SPANNINGTREE's, shifted right; the *maximum* is ~2× SPANNINGTREE's
//! on Power-Law, ~4× on Random, and a dramatic ~44× on Grid (8
//! neighbours hear every radio transmission × ~5× more transmissions).

use super::{Output, Scale};
use crate::report::Table;
use crate::workload;
use pov_protocols::wildfire::WildfireOpts;
use pov_protocols::{runner, Aggregate, ProtocolKind, RunPlan};
use pov_sim::Medium;
use pov_topology::analysis;
use pov_topology::generators::TopologyKind;

/// Configuration for the Fig 12 measurement.
#[derive(Clone, Debug)]
pub struct Config {
    /// Topologies (with sizes) to measure.
    pub topologies: Vec<(TopologyKind, usize)>,
    /// FM repetitions.
    pub c: usize,
    /// Root seed.
    pub seed: u64,
}

impl Config {
    /// The paper's configuration.
    pub fn paper() -> Self {
        Config {
            topologies: vec![
                (TopologyKind::PowerLaw, 40_000),
                (TopologyKind::Grid, 10_000),
            ],
            c: 8,
            seed: 12,
        }
    }

    /// The sizes `repro` runs at `scale`.
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Paper => Self::paper(),
            Scale::Quick => Config {
                topologies: vec![(TopologyKind::PowerLaw, 4_000), (TopologyKind::Grid, 2_500)],
                c: 8,
                seed: 12,
            },
        }
    }

    /// A fast configuration for tests/benches.
    pub fn smoke() -> Self {
        Config {
            topologies: vec![(TopologyKind::PowerLaw, 600), (TopologyKind::Grid, 400)],
            c: 8,
            seed: 12,
        }
    }
}

/// Distribution summary for one (topology, protocol) pair.
#[derive(Clone, Debug)]
pub struct Row {
    /// Topology name.
    pub topology: String,
    /// Protocol name.
    pub protocol: String,
    /// Full histogram: `histogram[c]` = hosts that processed `c` messages.
    pub histogram: Vec<u64>,
    /// Median messages processed per host.
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Maximum (the protocol's computation cost, §6.3).
    pub max: u64,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Run the measurement.
pub fn run(cfg: &Config) -> Vec<Row> {
    let mut rows = Vec::new();
    for &(kind, n) in &cfg.topologies {
        let graph = kind.build(n, cfg.seed);
        let values = workload::paper_values(graph.num_hosts(), cfg.seed ^ 0xd15c);
        let d = analysis::diameter_estimate(&graph, 2, cfg.seed | 1).max(1);
        // Grid runs under radio (the sensor scenario of §6.6.1), overlay
        // topologies point-to-point.
        let medium = if kind == TopologyKind::Grid {
            Medium::Radio
        } else {
            Medium::PointToPoint
        };
        for (label, proto) in [
            ("WILDFIRE", ProtocolKind::Wildfire(WildfireOpts::default())),
            ("SPANNINGTREE", ProtocolKind::SpanningTree),
        ] {
            let run_cfg = RunPlan::query(Aggregate::Count)
                .d_hat(d + 2)
                .repetitions(cfg.c)
                .medium(medium)
                .seed(cfg.seed);
            let out = runner::run(proto, &graph, &values, &run_cfg);
            let mut sorted: Vec<u64> = out
                .metrics
                .processed_per_host
                .iter()
                .map(|&c| u64::from(c))
                .collect();
            sorted.sort_unstable();
            rows.push(Row {
                topology: kind.name().to_string(),
                protocol: label.to_string(),
                histogram: out.metrics.computation_histogram(),
                p50: percentile(&sorted, 0.50),
                p99: percentile(&sorted, 0.99),
                max: *sorted.last().unwrap_or(&0),
            });
        }
    }
    rows
}

/// `repro fig12`: the measurement at `scale`, as one table, then the
/// WILDFIRE/SPANNINGTREE max-computation-cost ratio per topology.
pub fn experiment(scale: Scale) -> Output {
    let rows = run(&Config::at(scale));
    let mut notes = vec!["max computation-cost ratios (WILDFIRE/SPANNINGTREE):".to_string()];
    for (topo, ratio) in max_ratios(&rows) {
        notes.push(format!("  {topo:<10} {ratio:.1}x"));
    }
    Output {
        tables: vec![table(&rows)],
        notes,
    }
}

/// Max-computation-cost ratio WILDFIRE / SPANNINGTREE per topology.
pub fn max_ratios(rows: &[Row]) -> Vec<(String, f64)> {
    let mut topologies: Vec<String> = rows.iter().map(|r| r.topology.clone()).collect();
    topologies.sort();
    topologies.dedup();
    topologies
        .into_iter()
        .filter_map(|t| {
            let wf = rows
                .iter()
                .find(|r| r.topology == t && r.protocol == "WILDFIRE")?
                .max as f64;
            let st = rows
                .iter()
                .find(|r| r.topology == t && r.protocol == "SPANNINGTREE")?
                .max as f64;
            Some((t, wf / st.max(1.0)))
        })
        .collect()
}

/// Render the distribution summary.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "Fig 12 — computation cost per host (count query)",
        &["topology", "protocol", "p50", "p99", "max"],
    );
    for r in rows {
        t.push(vec![
            r.topology.clone(),
            r.protocol.clone(),
            r.p50.to_string(),
            r.p99.to_string(),
            r.max.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wildfire_costs_more_computation() {
        let rows = run(&Config::smoke());
        for (topo, ratio) in max_ratios(&rows) {
            assert!(
                ratio > 1.0,
                "{topo}: WILDFIRE max should exceed ST, got {ratio:.2}"
            );
        }
    }

    #[test]
    fn grid_ratio_dwarfs_powerlaw_ratio() {
        // The paper's 44x-vs-2x contrast: the Grid (radio) ratio must be
        // far larger than the Power-Law one.
        let rows = run(&Config::smoke());
        let ratios = max_ratios(&rows);
        let get = |name: &str| {
            ratios
                .iter()
                .find(|(t, _)| t == name)
                .map(|&(_, r)| r)
                .unwrap()
        };
        assert!(
            get("Grid") > 2.0 * get("Power-law"),
            "Grid {:.1}x should dwarf Power-law {:.1}x",
            get("Grid"),
            get("Power-law")
        );
    }

    #[test]
    fn histograms_cover_all_hosts() {
        let cfg = Config::smoke();
        let rows = run(&cfg);
        for r in &rows {
            let hosts: u64 = r.histogram.iter().sum();
            let expected = cfg
                .topologies
                .iter()
                .find(|(k, _)| k.name() == r.topology)
                .map(|&(k, n)| k.build(n, cfg.seed).num_hosts() as u64)
                .unwrap();
            assert_eq!(hosts, expected, "{} / {}", r.topology, r.protocol);
        }
    }

    #[test]
    fn percentiles_ordered() {
        let rows = run(&Config::smoke());
        for r in &rows {
            assert!(r.p50 <= r.p99 && r.p99 <= r.max, "{r:?}");
        }
    }
}
