//! Fig 10 — communication costs on Random topologies (plus the lone
//! Gnutella point).
//!
//! §6.6: count queries, failure-free, network sizes swept; series:
//! WILDFIRE for several overestimates `D̂ ∈ {D, 2D, 4D}` (the curves
//! overlap — cost is independent of `D̂`), DIRECTEDACYCLICGRAPH
//! (overlapping SPANNINGTREE) and SPANNINGTREE. The paper reads off a
//! 4× WILDFIRE/SPANNINGTREE ratio on Random and on Gnutella.

use super::{Output, Scale};
use crate::report::Table;
use crate::workload;
use pov_protocols::wildfire::WildfireOpts;
use pov_protocols::{runner, Aggregate, ProtocolKind, RunPlan};
use pov_topology::generators::TopologyKind;
use pov_topology::{analysis, Graph};

/// Configuration for the Fig 10 sweep.
#[derive(Clone, Debug)]
pub struct Config {
    /// Random-topology sizes to sweep.
    pub sizes: Vec<usize>,
    /// Multipliers on the measured diameter for WILDFIRE's `D̂`.
    pub d_hat_multipliers: Vec<u32>,
    /// Also measure the Gnutella topology at this size (None to skip).
    pub gnutella_n: Option<usize>,
    /// FM repetitions.
    pub c: usize,
    /// Root seed.
    pub seed: u64,
}

impl Config {
    /// The paper's configuration.
    pub fn paper() -> Self {
        Config {
            sizes: vec![5_000, 10_000, 20_000, 40_000],
            d_hat_multipliers: vec![1, 2, 4],
            gnutella_n: Some(39_046),
            c: 8,
            seed: 10,
        }
    }

    /// The sizes `repro` runs at `scale`.
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Paper => Self::paper(),
            Scale::Quick => Config {
                sizes: vec![1_000, 2_000, 4_000],
                d_hat_multipliers: vec![1, 2, 4],
                gnutella_n: Some(4_000),
                c: 8,
                seed: 10,
            },
        }
    }

    /// A fast configuration for tests/benches.
    pub fn smoke() -> Self {
        Config {
            sizes: vec![300, 600],
            d_hat_multipliers: vec![1, 2],
            gnutella_n: Some(500),
            c: 8,
            seed: 10,
        }
    }
}

/// One measured point.
#[derive(Clone, Debug)]
pub struct Row {
    /// `"Random"` or `"Gnutella"`.
    pub topology: String,
    /// Network size.
    pub n: usize,
    /// Series label (protocol, with `D̂` multiplier for WILDFIRE).
    pub series: String,
    /// Total messages sent.
    pub messages: u64,
}

fn measure(
    graph: &Graph,
    values: &[u64],
    kind: ProtocolKind,
    d_hat: u32,
    c: usize,
    seed: u64,
) -> u64 {
    let plan = RunPlan::query(Aggregate::Count)
        .d_hat(d_hat)
        .repetitions(c)
        .seed(seed);
    runner::run(kind, graph, values, &plan)
        .metrics
        .messages_sent
}

/// Run the sweep.
pub fn run(cfg: &Config) -> Vec<Row> {
    let mut rows = Vec::new();
    let mut measure_topology = |label: &str, graph: &Graph, seed: u64| {
        let values = workload::paper_values(graph.num_hosts(), seed ^ 0xbeef);
        let d = analysis::diameter_estimate(graph, 4, seed | 1).max(1);
        for &mult in &cfg.d_hat_multipliers {
            // §6.6 varies D̂ > D strictly; `+ 2` keeps even the 1× point
            // a genuine overestimate.
            let msgs = measure(
                graph,
                &values,
                ProtocolKind::Wildfire(WildfireOpts::default()),
                d * mult + 2,
                cfg.c,
                seed,
            );
            rows.push(Row {
                topology: label.to_string(),
                n: graph.num_hosts(),
                series: format!("WILDFIRE D̂={mult}D"),
                messages: msgs,
            });
        }
        for (series, kind) in [
            ("SPANNINGTREE", ProtocolKind::SpanningTree),
            ("DAG(k=2)", ProtocolKind::Dag { k: 2 }),
        ] {
            let msgs = measure(graph, &values, kind, d + 2, cfg.c, seed);
            rows.push(Row {
                topology: label.to_string(),
                n: graph.num_hosts(),
                series: series.to_string(),
                messages: msgs,
            });
        }
    };

    for &n in &cfg.sizes {
        let graph = TopologyKind::Random.build(n, cfg.seed);
        measure_topology("Random", &graph, cfg.seed);
    }
    if let Some(n) = cfg.gnutella_n {
        let graph = TopologyKind::Gnutella.build(n, cfg.seed);
        measure_topology("Gnutella", &graph, cfg.seed);
    }
    rows
}

/// `repro fig10`: the sweep at `scale`, as one table, then the
/// WILDFIRE/SPANNINGTREE message ratio per (topology, n).
pub fn experiment(scale: Scale) -> Output {
    let rows = run(&Config::at(scale));
    let mut notes = vec!["WILDFIRE/SPANNINGTREE message ratios:".to_string()];
    for (topo, n, ratio) in price_ratios(&rows) {
        notes.push(format!("  {topo:<10} |H|={n:<6} {ratio:.2}x"));
    }
    Output {
        tables: vec![table(&rows)],
        notes,
    }
}

/// WILDFIRE-to-SPANNINGTREE message ratio per (topology, n).
pub fn price_ratios(rows: &[Row]) -> Vec<(String, usize, f64)> {
    let mut out = Vec::new();
    let mut keys: Vec<(String, usize)> = rows.iter().map(|r| (r.topology.clone(), r.n)).collect();
    keys.sort();
    keys.dedup();
    for (topo, n) in keys {
        let wf = rows
            .iter()
            .find(|r| r.topology == topo && r.n == n && r.series.starts_with("WILDFIRE"))
            .map(|r| r.messages as f64);
        let st = rows
            .iter()
            .find(|r| r.topology == topo && r.n == n && r.series == "SPANNINGTREE")
            .map(|r| r.messages as f64);
        if let (Some(wf), Some(st)) = (wf, st) {
            out.push((topo, n, wf / st));
        }
    }
    out
}

/// Render as the paper's figure series.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "Fig 10 — communication cost, count query (failure-free)",
        &["topology", "|H|", "series", "messages"],
    );
    for r in rows {
        t.push(vec![
            r.topology.clone(),
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

    #[test]
    fn wildfire_cost_independent_of_d_hat() {
        let cfg = Config {
            sizes: vec![400],
            d_hat_multipliers: vec![1, 2, 4],
            gnutella_n: None,
            c: 8,
            seed: 3,
        };
        let rows = run(&cfg);
        let wf: Vec<u64> = rows
            .iter()
            .filter(|r| r.series.starts_with("WILDFIRE"))
            .map(|r| r.messages)
            .collect();
        assert_eq!(wf.len(), 3);
        // §6.6: "the WILDFIRE curves for different D̂ overlap".
        let spread = (*wf.iter().max().unwrap() - *wf.iter().min().unwrap()) as f64;
        assert!(spread / wf[0] as f64 <= 0.02, "D̂ changed the cost: {wf:?}");
    }

    #[test]
    fn wildfire_pays_a_multiple_of_spanning_tree() {
        let rows = run(&Config::smoke());
        for (topo, n, ratio) in price_ratios(&rows) {
            assert!(
                ratio > 1.5,
                "{topo}/{n}: WILDFIRE should cost a multiple of ST, got {ratio:.2}x"
            );
            assert!(
                ratio < 12.0,
                "{topo}/{n}: ratio {ratio:.2}x wildly above the paper's ~4-5x"
            );
        }
    }

    #[test]
    fn dag_tracks_spanning_tree() {
        // §6.6: DAG ≈ ST because the broadcast cost |E| dominates.
        let rows = run(&Config {
            sizes: vec![500],
            d_hat_multipliers: vec![1],
            gnutella_n: None,
            c: 8,
            seed: 5,
        });
        let get = |s: &str| {
            rows.iter()
                .find(|r| r.series == s)
                .map(|r| r.messages as f64)
                .unwrap()
        };
        let ratio = get("DAG(k=2)") / get("SPANNINGTREE");
        assert!(
            (0.8..1.6).contains(&ratio),
            "DAG should roughly overlap ST, got {ratio:.2}x"
        );
    }

    #[test]
    fn cost_grows_with_network_size() {
        let rows = run(&Config::smoke());
        let wf = |n: usize| {
            rows.iter()
                .find(|r| r.topology == "Random" && r.n == n && r.series == "WILDFIRE D̂=1D")
                .map(|r| r.messages)
                .unwrap()
        };
        assert!(wf(600) > wf(300));
    }
}
