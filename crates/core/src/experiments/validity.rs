//! Figs 7, 8, 9 — achieving Single-Site Validity under dynamism.
//!
//! §6.5: plot the declared value `v` against the number `R` of host
//! departures, for count (Fig 7, Gnutella), sum (Fig 8, Gnutella) and
//! count on Grid (Fig 9). `R` sweeps 256…4096; each point is the mean of
//! 10 trials with a 95% CI. The ORACLE curves `q(HC)` and `q(HU)` bound
//! the valid range: WILDFIRE stays inside across all `R`, SPANNINGTREE
//! and DIRECTEDACYCLICGRAPH fall below as dynamism grows.

use super::{Output, Scale};
use crate::report::{fmt_mean_ci, Table};
use crate::workload;
use pov_oracle::{aggregate_bounds, host_sets, ssv_deviation};
use pov_protocols::wildfire::WildfireOpts;
use pov_protocols::{runner, Aggregate, ProtocolKind, RunPlan};
use pov_sim::{ChurnPlan, Time};
use pov_sketch::stats;
use pov_topology::generators::TopologyKind;
use pov_topology::{analysis, HostId};

/// Configuration for one validity sweep (one figure).
#[derive(Clone, Debug)]
pub struct Config {
    /// Topology under test.
    pub topology: TopologyKind,
    /// Number of hosts.
    pub n: usize,
    /// Aggregate under test (count for Figs 7/9, sum for Fig 8).
    pub aggregate: Aggregate,
    /// Departure counts `R` to sweep.
    pub r_values: Vec<usize>,
    /// Trials per point.
    pub trials: usize,
    /// FM repetitions.
    pub c: usize,
    /// Root seed.
    pub seed: u64,
}

impl Config {
    /// Fig 7: count on Gnutella, paper scale.
    pub fn paper_fig07() -> Self {
        Config {
            topology: TopologyKind::Gnutella,
            n: 39_046,
            aggregate: Aggregate::Count,
            r_values: vec![256, 512, 1024, 2048, 4096],
            trials: 10,
            c: 8,
            seed: 7,
        }
    }

    /// Fig 8: sum on Gnutella, paper scale.
    pub fn paper_fig08() -> Self {
        Config {
            aggregate: Aggregate::Sum,
            seed: 8,
            ..Self::paper_fig07()
        }
    }

    /// Fig 9: count on Grid, paper scale.
    pub fn paper_fig09() -> Self {
        Config {
            topology: TopologyKind::Grid,
            n: 10_000,
            seed: 9,
            ..Self::paper_fig07()
        }
    }

    /// Fig 7 at `scale`.
    pub fn fig07(scale: Scale) -> Self {
        match scale {
            Scale::Paper => Self::paper_fig07(),
            Scale::Quick => Config {
                trials: 5,
                ..Self::smoke(TopologyKind::Gnutella, Aggregate::Count, 4_000)
            },
        }
    }

    /// Fig 8 at `scale`.
    pub fn fig08(scale: Scale) -> Self {
        match scale {
            Scale::Paper => Self::paper_fig08(),
            Scale::Quick => Config {
                trials: 5,
                seed: 8,
                ..Self::smoke(TopologyKind::Gnutella, Aggregate::Sum, 4_000)
            },
        }
    }

    /// Fig 9 at `scale`.
    pub fn fig09(scale: Scale) -> Self {
        match scale {
            Scale::Paper => Self::paper_fig09(),
            Scale::Quick => Config {
                trials: 5,
                seed: 9,
                ..Self::smoke(TopologyKind::Grid, Aggregate::Count, 2_500)
            },
        }
    }

    /// Scaled-down sweep for tests/benches: departures scale with `n` in
    /// the same proportion as the paper's (256…4096 out of ~40K), with
    /// one harsher point past the paper's top end so the best-effort
    /// collapse is visible even at small scale. `c = 16` keeps FM noise
    /// below the effects under study on small host counts.
    pub fn smoke(topology: TopologyKind, aggregate: Aggregate, n: usize) -> Self {
        let scale = |r: usize| (r * n / 39_046).max(1);
        Config {
            topology,
            n,
            aggregate,
            r_values: vec![scale(256), scale(2048), scale(8192)],
            trials: 5,
            c: 16,
            seed: 7,
        }
    }
}

/// Per-protocol statistics at one `R`.
#[derive(Clone, Debug)]
pub struct ProtocolPoint {
    /// Protocol label as plotted in the paper.
    pub label: String,
    /// Mean and 95% CI of the declared value.
    pub value: (f64, f64),
    /// Fraction of trials whose value fell strictly within
    /// `[q(HC), q(HU)]`.
    pub valid_fraction: f64,
    /// Mean multiplicative deviation from the valid envelope:
    /// `max(q(HC)/v, v/q(HU), 1)` averaged over trials. 1.0 means every
    /// trial was inside the bounds; WILDFIRE's Approximate SSV (Thm 5.3)
    /// keeps this within FM noise while best-effort protocols blow up.
    pub deviation: f64,
    /// Mean messages sent.
    pub messages: f64,
}

/// One `R` row of the figure.
#[derive(Clone, Debug)]
pub struct RowR {
    /// Departures injected.
    pub r: usize,
    /// Mean ± CI of the ORACLE lower bound `q(HC)`.
    pub oracle_hc: (f64, f64),
    /// Mean ± CI of the ORACLE upper bound `q(HU)`.
    pub oracle_hu: (f64, f64),
    /// Per-protocol statistics.
    pub protocols: Vec<ProtocolPoint>,
}

/// The protocols the §6.5 figures compare.
fn contestants() -> Vec<(String, ProtocolKind)> {
    vec![
        (
            "WILDFIRE".into(),
            ProtocolKind::Wildfire(WildfireOpts::default()),
        ),
        ("SPANNINGTREE".into(), ProtocolKind::SpanningTree),
        ("DAG(k=2)".into(), ProtocolKind::Dag { k: 2 }),
        ("DAG(k=3)".into(), ProtocolKind::Dag { k: 3 }),
    ]
}

/// Run the sweep.
pub fn run(cfg: &Config) -> Vec<RowR> {
    let graph = cfg.topology.build(cfg.n, cfg.seed);
    let values = workload::paper_values(graph.num_hosts(), cfg.seed ^ 0xfeed);
    let d = analysis::diameter_estimate(&graph, 4, cfg.seed | 1);
    let d_hat = d + 2;
    let deadline = 2 * d_hat as u64;
    let hq = HostId(0);
    let names: Vec<(String, ProtocolKind)> = contestants();

    let mut rows = Vec::with_capacity(cfg.r_values.len());
    for &r in &cfg.r_values {
        let mut hc_stats = Vec::with_capacity(cfg.trials);
        let mut hu_stats = Vec::with_capacity(cfg.trials);
        #[derive(Default)]
        struct Acc {
            values: Vec<f64>,
            strictly_valid: usize,
            messages: Vec<f64>,
            deviations: Vec<f64>,
        }
        let mut per_proto: Vec<Acc> = names.iter().map(|_| Acc::default()).collect();

        for trial in 0..cfg.trials {
            let churn_seed = cfg
                .seed
                .wrapping_mul(31)
                .wrapping_add(r as u64)
                .wrapping_mul(31)
                .wrapping_add(trial as u64);
            let churn = ChurnPlan::uniform_failures(
                graph.num_hosts(),
                r,
                Time::ZERO,
                Time(deadline),
                hq,
                churn_seed,
            );
            let mut bounds_done = false;
            for (i, (_, kind)) in names.iter().enumerate() {
                let run_cfg = RunPlan::query(cfg.aggregate)
                    .d_hat(d_hat)
                    .repetitions(cfg.c)
                    .churn(churn.clone())
                    .seed(churn_seed ^ 0x5a5a)
                    .from_host(hq);
                let outcome = runner::run(*kind, &graph, &values, &run_cfg);
                // The oracle bounds depend only on the churn, which is
                // shared across protocols within a trial.
                if !bounds_done {
                    let sets = host_sets(&graph, &outcome.trace, hq, Time::ZERO, Time(deadline));
                    let (lo, hi) = aggregate_bounds(cfg.aggregate, &sets, &values)
                        .expect("count/sum always bounded");
                    hc_stats.push(lo);
                    hu_stats.push(hi);
                    bounds_done = true;
                }
                let (lo, hi) = (
                    *hc_stats.last().expect("bounds recorded"),
                    *hu_stats.last().expect("bounds recorded"),
                );
                if let Some(v) = outcome.value {
                    per_proto[i].values.push(v);
                    if v >= lo - 1e-9 && v <= hi + 1e-9 {
                        per_proto[i].strictly_valid += 1;
                    }
                    per_proto[i]
                        .deviations
                        .push(ssv_deviation(v, lo, hi).unwrap_or(f64::INFINITY));
                }
                per_proto[i]
                    .messages
                    .push(outcome.metrics.messages_sent as f64);
            }
        }

        rows.push(RowR {
            r,
            oracle_hc: stats::mean_ci95(&hc_stats),
            oracle_hu: stats::mean_ci95(&hu_stats),
            protocols: names
                .iter()
                .zip(per_proto)
                .map(|((label, _), acc)| ProtocolPoint {
                    label: label.clone(),
                    value: stats::mean_ci95(&acc.values),
                    valid_fraction: acc.strictly_valid as f64 / cfg.trials as f64,
                    deviation: stats::mean(&acc.deviations),
                    messages: stats::mean(&acc.messages),
                })
                .collect(),
        });
    }
    rows
}

/// `repro fig7`: count on Gnutella at `scale`, as one table.
pub fn fig7(scale: Scale) -> Output {
    experiment(&Config::fig07(scale))
}

/// `repro fig8`: sum on Gnutella at `scale`, as one table.
pub fn fig8(scale: Scale) -> Output {
    experiment(&Config::fig08(scale))
}

/// `repro fig9`: count on Grid at `scale`, as one table.
pub fn fig9(scale: Scale) -> Output {
    experiment(&Config::fig09(scale))
}

fn experiment(cfg: &Config) -> Output {
    table(cfg, &run(cfg)).into()
}

/// Render as the paper's figure series.
pub fn table(cfg: &Config, rows: &[RowR]) -> Table {
    let title = format!(
        "{} query on the {} topology (n = {}) — declared value vs departures R",
        cfg.aggregate.name(),
        cfg.topology.name(),
        cfg.n
    );
    let mut t = Table::new(
        title,
        &[
            "R",
            "ORACLE q(HC)",
            "ORACLE q(HU)",
            "WILDFIRE",
            "wf-dev",
            "SPANNINGTREE",
            "st-dev",
            "DAG(k=2)",
            "DAG(k=3)",
        ],
    );
    for row in rows {
        let find = |label: &str| {
            row.protocols
                .iter()
                .find(|p| p.label == label)
                .expect("protocol present")
        };
        t.push(vec![
            row.r.to_string(),
            fmt_mean_ci(row.oracle_hc),
            fmt_mean_ci(row.oracle_hu),
            fmt_mean_ci(find("WILDFIRE").value),
            format!("{:.2}x", find("WILDFIRE").deviation),
            fmt_mean_ci(find("SPANNINGTREE").value),
            format!("{:.2}x", find("SPANNINGTREE").deviation),
            fmt_mean_ci(find("DAG(k=2)").value),
            fmt_mean_ci(find("DAG(k=3)").value),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_shapes_hold() {
        let cfg = Config::smoke(TopologyKind::Gnutella, Aggregate::Count, 600);
        let rows = run(&cfg);
        assert_eq!(rows.len(), cfg.r_values.len());
        for row in &rows {
            // Bounds nest.
            assert!(row.oracle_hc.0 <= row.oracle_hu.0 + 1e-9);
            let wf = row
                .protocols
                .iter()
                .find(|p| p.label == "WILDFIRE")
                .unwrap();
            // The headline claim, in its Thm 5.3 form: WILDFIRE tracks
            // the valid envelope within (small) FM noise at every R —
            // far tighter than the theorem's factor-c guarantee.
            assert!(
                wf.deviation <= 2.0,
                "WILDFIRE deviation at R={}: {:.2}x",
                row.r,
                wf.deviation
            );
        }
        // Best-effort protocols degrade by the largest R: their mean
        // falls below the oracle lower bound, and — comparing the means,
        // as the paper's figures do — deviates from the envelope more
        // than WILDFIRE's mean does.
        let dev_of_mean =
            |v: f64, row: &RowR| (row.oracle_hc.0 / v).max(v / row.oracle_hu.0).max(1.0);
        let last = rows.last().unwrap();
        let st = last
            .protocols
            .iter()
            .find(|p| p.label == "SPANNINGTREE")
            .unwrap();
        let wf = last
            .protocols
            .iter()
            .find(|p| p.label == "WILDFIRE")
            .unwrap();
        assert!(
            st.value.0 < last.oracle_hc.0,
            "ST mean {} should fall below q(HC) {} at R={}",
            st.value.0,
            last.oracle_hc.0,
            last.r
        );
        assert!(
            dev_of_mean(st.value.0, last) > dev_of_mean(wf.value.0, last),
            "ST mean-deviation {:.2}x should exceed WILDFIRE's {:.2}x",
            dev_of_mean(st.value.0, last),
            dev_of_mean(wf.value.0, last)
        );
    }

    #[test]
    fn grid_spanning_tree_collapses() {
        // Fig 9's observation: deep trees on Grid lose huge subtrees.
        let cfg = Config::smoke(TopologyKind::Grid, Aggregate::Count, 400);
        let rows = run(&cfg);
        let last = rows.last().unwrap();
        let st = last
            .protocols
            .iter()
            .find(|p| p.label == "SPANNINGTREE")
            .unwrap();
        let wf = last
            .protocols
            .iter()
            .find(|p| p.label == "WILDFIRE")
            .unwrap();
        assert!(
            st.value.0 < wf.value.0,
            "ST ({}) should trail WILDFIRE ({}) on Grid under churn",
            st.value.0,
            wf.value.0
        );
    }

    #[test]
    fn table_renders_all_rows() {
        let cfg = Config::smoke(TopologyKind::Random, Aggregate::Sum, 300);
        let rows = run(&cfg);
        let t = table(&cfg, &rows);
        assert_eq!(t.len(), rows.len());
    }
}
