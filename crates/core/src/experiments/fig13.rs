//! Fig 13 — (a) time cost on Random topologies; (b) messages sent per
//! time instant.
//!
//! §6.6.2: SPANNINGTREE provides the least latency (its echo terminates
//! as soon as the tree drains); WILDFIRE always declares at `2·D̂·δ`, so
//! an overestimated `D̂` inflates time cost proportionally — while the
//! per-tick message profile (b) shows traffic peaking near `D·δ` and
//! quiescing by `2·D·δ` regardless of `D̂`, which is why communication
//! cost stays flat.

use super::{Output, Scale};
use crate::report::Table;
use crate::workload;
use pov_protocols::wildfire::WildfireOpts;
use pov_protocols::{runner, Aggregate, ProtocolKind, RunPlan};
use pov_sim::{TelemetrySink, TickSample};
use pov_topology::analysis;
use pov_topology::generators::TopologyKind;

/// Configuration for the Fig 13 measurements.
#[derive(Clone, Debug)]
pub struct Config {
    /// Random-topology sizes for part (a).
    pub sizes: Vec<usize>,
    /// `D̂` multipliers for WILDFIRE in part (a).
    pub d_hat_multipliers: Vec<u32>,
    /// Topologies (and sizes) for the per-tick profile (b).
    pub profile_topologies: Vec<(TopologyKind, usize)>,
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
            profile_topologies: vec![
                (TopologyKind::Gnutella, 39_046),
                (TopologyKind::Random, 40_000),
                (TopologyKind::PowerLaw, 40_000),
                (TopologyKind::Grid, 10_000),
            ],
            c: 8,
            seed: 13,
        }
    }

    /// The sizes `repro` runs at `scale`.
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Paper => Self::paper(),
            Scale::Quick => Config {
                sizes: vec![1_000, 2_000, 4_000],
                d_hat_multipliers: vec![1, 2, 4],
                profile_topologies: vec![
                    (TopologyKind::Gnutella, 4_000),
                    (TopologyKind::Random, 4_000),
                    (TopologyKind::PowerLaw, 4_000),
                    (TopologyKind::Grid, 2_500),
                ],
                c: 8,
                seed: 13,
            },
        }
    }

    /// A fast configuration for tests/benches.
    pub fn smoke() -> Self {
        Config {
            sizes: vec![300, 600],
            d_hat_multipliers: vec![1, 2],
            profile_topologies: vec![(TopologyKind::Random, 500), (TopologyKind::Grid, 400)],
            c: 8,
            seed: 13,
        }
    }
}

/// One time-cost point (part a).
#[derive(Clone, Debug)]
pub struct TimeRow {
    /// Network size.
    pub n: usize,
    /// Series label.
    pub series: String,
    /// Ticks until the result was declared at `hq`.
    pub time_cost: u64,
}

/// One per-tick profile (part b).
#[derive(Clone, Debug)]
pub struct ProfileRow {
    /// Topology name.
    pub topology: String,
    /// Measured diameter `D` of the instance.
    pub diameter: u32,
    /// Messages sent at each tick (WILDFIRE count query, `D̂ = 2D`).
    pub sent_per_tick: Vec<u64>,
}

impl ProfileRow {
    /// The tick with peak traffic (the paper observes it lands near `D`).
    pub fn peak_tick(&self) -> u64 {
        self.sent_per_tick
            .iter()
            .enumerate()
            .max_by_key(|&(_, &c)| c)
            .map(|(i, _)| i as u64)
            .unwrap_or(0)
    }

    /// The last tick with any traffic (quiescence; ≤ `2D` in the paper).
    pub fn quiesce_tick(&self) -> u64 {
        self.sent_per_tick
            .iter()
            .rposition(|&c| c > 0)
            .map(|i| i as u64)
            .unwrap_or(0)
    }
}

/// Run part (a): time cost vs network size on Random.
pub fn run_time_cost(cfg: &Config) -> Vec<TimeRow> {
    let mut rows = Vec::new();
    for &n in &cfg.sizes {
        let graph = TopologyKind::Random.build(n, cfg.seed);
        let values = workload::paper_values(n, cfg.seed ^ 0x7e11);
        let d = analysis::diameter_estimate(&graph, 4, cfg.seed | 1).max(1);
        let mut measure = |series: String, kind: ProtocolKind, d_hat: u32| {
            let run_cfg = RunPlan::query(Aggregate::Count)
                .d_hat(d_hat)
                .repetitions(cfg.c)
                .seed(cfg.seed);
            let out = runner::run(kind, &graph, &values, &run_cfg);
            rows.push(TimeRow {
                n,
                series,
                time_cost: out.time_cost().unwrap_or(0),
            });
        };
        for &mult in &cfg.d_hat_multipliers {
            measure(
                format!("WILDFIRE D̂={mult}D"),
                ProtocolKind::Wildfire(WildfireOpts::default()),
                d * mult,
            );
        }
        measure("SPANNINGTREE".into(), ProtocolKind::SpanningTree, d + 2);
    }
    rows
}

/// Run part (b): the per-tick message profile.
pub fn run_profile(cfg: &Config) -> Vec<ProfileRow> {
    let mut rows = Vec::new();
    for &(kind, n) in &cfg.profile_topologies {
        let graph = kind.build(n, cfg.seed);
        let values = workload::paper_values(graph.num_hosts(), cfg.seed ^ 0x7e12);
        let d = analysis::diameter_estimate(&graph, 4, cfg.seed | 1).max(1);
        let run_cfg = RunPlan::query(Aggregate::Count)
            .d_hat(2 * d) // a deliberate overestimate, as in Fig 13(b)
            .repetitions(cfg.c)
            .seed(cfg.seed);
        let mut sent = SentPerTick::default();
        runner::run_with(
            ProtocolKind::Wildfire(WildfireOpts::default()),
            &graph,
            &values,
            &run_cfg,
            Some(&mut sent),
        );
        rows.push(ProfileRow {
            topology: kind.name().to_string(),
            diameter: d,
            sent_per_tick: sent.0,
        });
    }
    rows
}

/// Messages sent at each tick of a run, through the last tick that
/// sends, with zeros for the ticks between samples that send nothing.
#[derive(Default)]
struct SentPerTick(Vec<u64>);

impl TelemetrySink for SentPerTick {
    fn on_tick(&mut self, sample: &TickSample) {
        if sample.sent > 0 {
            // Samples arrive in increasing tick order.
            self.0.resize(sample.tick as usize + 1, 0);
            self.0[sample.tick as usize] = sample.sent;
        }
    }
}

/// `repro fig13a`: part (a) at `scale`, as one table.
pub fn fig13a(scale: Scale) -> Output {
    time_table(&run_time_cost(&Config::at(scale))).into()
}

/// `repro fig13b`: part (b) at `scale`, as one table, then each
/// topology's per-tick series.
pub fn fig13b(scale: Scale) -> Output {
    let profiles = run_profile(&Config::at(scale));
    let notes = profiles
        .iter()
        .map(|p| {
            let series: Vec<String> = p.sent_per_tick.iter().map(|c| c.to_string()).collect();
            format!("  {} per-tick: [{}]", p.topology, series.join(", "))
        })
        .collect();
    Output {
        tables: vec![profile_table(&profiles)],
        notes,
    }
}

/// Render part (a).
pub fn time_table(rows: &[TimeRow]) -> Table {
    let mut t = Table::new(
        "Fig 13a — time cost on Random (count query)",
        &["|H|", "series", "time (δ)"],
    );
    for r in rows {
        t.push(vec![
            r.n.to_string(),
            r.series.clone(),
            r.time_cost.to_string(),
        ]);
    }
    t
}

/// Render part (b) as peak/quiesce summary.
pub fn profile_table(rows: &[ProfileRow]) -> Table {
    let mut t = Table::new(
        "Fig 13b — WILDFIRE messages per time instant (D̂ = 2D)",
        &["topology", "D", "peak tick", "quiesce tick", "deadline 2D̂"],
    );
    for r in rows {
        t.push(vec![
            r.topology.clone(),
            r.diameter.to_string(),
            r.peak_tick().to_string(),
            r.quiesce_tick().to_string(),
            (4 * r.diameter).to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wildfire_time_scales_with_d_hat() {
        let rows = run_time_cost(&Config::smoke());
        let get = |n: usize, s: &str| {
            rows.iter()
                .find(|r| r.n == n && r.series == s)
                .map(|r| r.time_cost)
                .unwrap()
        };
        // §6.6.2: doubling D̂ doubles WILDFIRE's time cost.
        assert_eq!(get(300, "WILDFIRE D̂=2D"), 2 * get(300, "WILDFIRE D̂=1D"));
        // SPANNINGTREE's echo beats WILDFIRE's deadline.
        assert!(get(600, "SPANNINGTREE") < get(600, "WILDFIRE D̂=2D"));
    }

    #[test]
    fn traffic_peaks_near_d_and_quiesces_by_2d() {
        let rows = run_profile(&Config::smoke());
        for r in &rows {
            let d = r.diameter as u64;
            assert!(
                r.peak_tick() <= 2 * d,
                "{}: peak at {} vs D = {d}",
                r.topology,
                r.peak_tick()
            );
            // Quiescence well before the 4D deadline (the point of 13b).
            assert!(
                r.quiesce_tick() <= 3 * d,
                "{}: quiesced at {} vs D = {d}",
                r.topology,
                r.quiesce_tick()
            );
        }
    }

    #[test]
    fn tables_render() {
        let cfg = Config::smoke();
        let a = run_time_cost(&cfg);
        let b = run_profile(&cfg);
        assert_eq!(time_table(&a).len(), a.len());
        assert_eq!(profile_table(&b).len(), b.len());
    }
}
