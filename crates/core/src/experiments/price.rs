//! The headline "price of validity" summary (§1.1, §7).
//!
//! *"WILDFIRE incurs similar costs as best-effort algorithms for min and
//! max queries, but has to pay 5 times higher communication cost for
//! count and sum queries."* This driver condenses the cost figures into
//! that one table: per topology, the WILDFIRE/SPANNINGTREE message ratio
//! for each aggregate, plus the validity rates both achieve under heavy
//! churn — cost is only half the story.

use super::{Output, Scale};
use crate::report::Table;
use crate::workload;
use pov_oracle::{aggregate_bounds, host_sets, ssv_deviation};
use pov_protocols::wildfire::WildfireOpts;
use pov_protocols::{runner, Aggregate, ProtocolKind, RunPlan};
use pov_sim::{ChurnPlan, Medium, Time};
use pov_sketch::stats;
use pov_topology::generators::TopologyKind;
use pov_topology::{analysis, HostId};

/// Configuration for the summary.
#[derive(Clone, Debug)]
pub struct Config {
    /// Topologies (with sizes) to summarize.
    pub topologies: Vec<(TopologyKind, usize)>,
    /// Aggregates to price.
    pub aggregates: Vec<Aggregate>,
    /// Churn level (fraction of hosts failing) for the validity column.
    pub churn_fraction: f64,
    /// Trials for the validity estimate.
    pub trials: usize,
    /// FM repetitions.
    pub c: usize,
    /// Root seed.
    pub seed: u64,
}

impl Config {
    /// Paper-scale summary.
    pub fn paper() -> Self {
        Config {
            topologies: vec![
                (TopologyKind::Gnutella, 39_046),
                (TopologyKind::Random, 40_000),
                (TopologyKind::PowerLaw, 40_000),
                (TopologyKind::Grid, 10_000),
            ],
            aggregates: vec![Aggregate::Count, Aggregate::Sum, Aggregate::Min],
            churn_fraction: 0.10,
            trials: 5,
            c: 8,
            seed: 77,
        }
    }

    /// The sizes `repro` runs at `scale`.
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Paper => Self::paper(),
            Scale::Quick => Config {
                topologies: vec![
                    (TopologyKind::Gnutella, 4_000),
                    (TopologyKind::Random, 4_000),
                    (TopologyKind::PowerLaw, 4_000),
                    (TopologyKind::Grid, 2_500),
                ],
                aggregates: vec![Aggregate::Count, Aggregate::Sum, Aggregate::Min],
                churn_fraction: 0.10,
                trials: 5,
                c: 8,
                seed: 77,
            },
        }
    }

    /// A fast configuration for tests/benches.
    pub fn smoke() -> Self {
        Config {
            topologies: vec![(TopologyKind::Gnutella, 500), (TopologyKind::Grid, 400)],
            aggregates: vec![Aggregate::Count, Aggregate::Min],
            churn_fraction: 0.10,
            trials: 3,
            c: 8,
            seed: 77,
        }
    }
}

/// One summary row.
#[derive(Clone, Debug)]
pub struct Row {
    /// Topology name.
    pub topology: String,
    /// Aggregate name.
    pub aggregate: &'static str,
    /// WILDFIRE / SPANNINGTREE message ratio (failure-free).
    pub message_ratio: f64,
    /// WILDFIRE's mean multiplicative deviation from the Single-Site-
    /// Validity envelope under churn (1.0 = always inside; FM noise only).
    pub wildfire_deviation: f64,
    /// SPANNINGTREE's mean deviation — the semantics it forfeits.
    pub spanning_tree_deviation: f64,
}

/// Run the summary.
pub fn run(cfg: &Config) -> Vec<Row> {
    let mut rows = Vec::new();
    for &(kind, n) in &cfg.topologies {
        let graph = kind.build(n, cfg.seed);
        let values = workload::paper_values(graph.num_hosts(), cfg.seed ^ 0x9e1c);
        let d = analysis::diameter_estimate(&graph, 2, cfg.seed | 1).max(1);
        let d_hat = d + 2;
        let deadline = 2 * d_hat as u64;
        let medium = if kind == TopologyKind::Grid {
            Medium::Radio
        } else {
            Medium::PointToPoint
        };
        let r = (n as f64 * cfg.churn_fraction) as usize;

        for &aggregate in &cfg.aggregates {
            let base_cfg = RunPlan::query(aggregate)
                .d_hat(d_hat)
                .repetitions(cfg.c)
                .medium(medium)
                .seed(cfg.seed);
            let wf_kind = ProtocolKind::Wildfire(WildfireOpts::default());
            let wf = runner::run(wf_kind, &graph, &values, &base_cfg);
            let st = runner::run(ProtocolKind::SpanningTree, &graph, &values, &base_cfg);
            let ratio = wf.metrics.messages_sent as f64 / st.metrics.messages_sent.max(1) as f64;

            let mut wf_devs = Vec::with_capacity(cfg.trials);
            let mut st_devs = Vec::with_capacity(cfg.trials);
            for trial in 0..cfg.trials {
                let churn_seed = cfg.seed.wrapping_add(1 + trial as u64);
                let churn = ChurnPlan::uniform_failures(
                    n,
                    r,
                    Time::ZERO,
                    Time(deadline),
                    HostId(0),
                    churn_seed,
                );
                let run_cfg = base_cfg.clone().churn(churn.clone()).seed(churn_seed);
                let wf_out = runner::run(wf_kind, &graph, &values, &run_cfg);
                let st_out = runner::run(ProtocolKind::SpanningTree, &graph, &values, &run_cfg);
                let sets = host_sets(&graph, &wf_out.trace, HostId(0), Time::ZERO, Time(deadline));
                if let Some((lo, hi)) = aggregate_bounds(aggregate, &sets, &values) {
                    let dev = |v: Option<f64>| {
                        v.and_then(|v| ssv_deviation(v, lo, hi))
                            .unwrap_or(f64::INFINITY)
                    };
                    wf_devs.push(dev(wf_out.value));
                    st_devs.push(dev(st_out.value));
                }
            }
            rows.push(Row {
                topology: kind.name().to_string(),
                aggregate: aggregate.name(),
                message_ratio: ratio,
                wildfire_deviation: stats::mean(&wf_devs),
                spanning_tree_deviation: stats::mean(&st_devs),
            });
        }
    }
    rows
}

/// `repro price`: the summary at `scale`, as one table.
pub fn experiment(scale: Scale) -> Output {
    table(&run(&Config::at(scale))).into()
}

/// Render the summary.
pub fn table(rows: &[Row]) -> Table {
    let mut t = Table::new(
        "The price of validity — WILDFIRE vs SPANNINGTREE",
        &[
            "topology",
            "aggregate",
            "msg ratio (WF/ST)",
            "WF envelope dev @10% churn",
            "ST envelope dev @10% churn",
        ],
    );
    for r in rows {
        t.push(vec![
            r.topology.clone(),
            r.aggregate.to_string(),
            format!("{:.2}x", r.message_ratio),
            format!("{:.2}x", r.wildfire_deviation),
            format!("{:.2}x", r.spanning_tree_deviation),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_shape() {
        let rows = run(&Config::smoke());
        for r in &rows {
            // WILDFIRE always pays more messages than ST for count...
            if r.aggregate == "count" {
                assert!(
                    r.message_ratio > 1.2,
                    "{}/{}: ratio {:.2}",
                    r.topology,
                    r.aggregate,
                    r.message_ratio
                );
            }
            // ...but tracks the validity envelope within FM noise.
            assert!(
                r.wildfire_deviation <= 2.0,
                "{}/{}: WILDFIRE deviation {:.2}x",
                r.topology,
                r.aggregate,
                r.wildfire_deviation
            );
        }
        // And SPANNINGTREE forfeits semantics: somewhere at 10% churn it
        // deviates far more than WILDFIRE does anywhere.
        let st_worst = rows
            .iter()
            .filter(|r| r.aggregate == "count")
            .map(|r| r.spanning_tree_deviation)
            .fold(1.0, f64::max);
        let wf_worst = rows
            .iter()
            .map(|r| r.wildfire_deviation)
            .fold(1.0, f64::max);
        assert!(
            st_worst > wf_worst,
            "ST worst deviation {st_worst:.2}x should exceed WILDFIRE's {wf_worst:.2}x"
        );
    }

    #[test]
    fn min_is_cheap_for_wildfire() {
        let rows = run(&Config::smoke());
        let count = rows
            .iter()
            .find(|r| r.topology == "Grid" && r.aggregate == "count")
            .unwrap();
        let min = rows
            .iter()
            .find(|r| r.topology == "Grid" && r.aggregate == "min")
            .unwrap();
        assert!(
            min.message_ratio < count.message_ratio,
            "min ratio {:.2} should undercut count ratio {:.2}",
            min.message_ratio,
            count.message_ratio
        );
    }
}
