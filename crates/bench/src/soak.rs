//! `repro soak` — long-horizon endurance workloads for the full
//! pipeline (engine + oracle), with window-count and memory assertions.
//!
//! Where `repro bench` measures the raw event loop over short one-shot
//! runs, the soak harness answers the question a long-lived deployment
//! would ask: does the stack survive 10⁴+ simulated ticks of membership
//! drift — growth, stability, shrinkage, a partition, healing — without
//! losing windows or its memory high-water mark creeping?
//! Each workload scripts that arc as a [`PhaseSchedule`], lowers it to
//! churn/partition plans, and drives it through [`judged_plan`] as a
//! stream of continuous windows, so every window also pays the oracle's
//! `HC`/`HU` judging — the costs a registration-style consumer of the
//! paper's §4.2 semantics actually incurs.
//!
//! [`assert_limits`] gates on two machine-independent facts: every
//! window of the horizon was judged, and peak RSS stayed under
//! [`max_rss_kb`] — a ceiling ~10× the observed high-water mark, so
//! only a leak across 10³ windows can trip it. The events/sec figure is
//! printed for information; wall-clock claims belong to the repo
//! benchmark (docs/BENCHMARKING.md).

use pov_core::judged::judged_plan;
use pov_core::pov_protocols::wildfire::WildfireOpts;
use pov_core::pov_protocols::{Aggregate, ProtocolKind, RunPlan};
use pov_core::pov_sim::{PhaseKind, PhaseSchedule};
use pov_core::pov_topology::generators::TopologyKind;
use pov_core::pov_topology::{analysis, Graph, HostId};
use pov_core::workload;
use pov_scenario::Json;
use std::time::Instant;

use crate::engine_bench::{peak_rss_kb, BenchMode};

/// One soak workload's measured result.
#[derive(Clone, Debug)]
pub struct SoakResult {
    /// Workload name.
    pub name: &'static str,
    /// Hosts in the topology.
    pub n: usize,
    /// Simulated horizon in ticks (`windows × window`), ≥ 10⁴.
    pub horizon_ticks: u64,
    /// Continuous windows the horizon was judged as.
    pub windows: usize,
    /// Windows that produced a judged outcome (the series stops early
    /// only if `hq` dies, which no schedule here allows).
    pub judged_windows: usize,
    /// Engine events dispatched (deterministic per workload).
    pub events: u64,
    /// Messages sent (deterministic per workload).
    pub messages: u64,
    /// Fraction of judged windows in which `hq` declared a value.
    pub declared_fraction: f64,
    /// Wall-clock milliseconds for the whole workload.
    pub wall_ms: f64,
    /// `events / wall seconds`.
    pub events_per_sec: f64,
    /// Simulated ticks per wall second (over `windows × (deadline+2)`
    /// actually-simulated ticks).
    pub ticks_per_sec: f64,
    /// Peak RSS (`VmHWM`, kB) after the workload; `None` off Linux.
    pub peak_rss_kb: Option<u64>,
}

/// Per-mode peak-RSS ceiling in kB: ~10× above the observed
/// high-water mark (tens of MB), so only a leak can trip it.
/// Re-baseline it by running `repro soak` on a healthy build and
/// keeping the same margin; see docs/BENCHMARKING.md.
pub fn max_rss_kb(mode: BenchMode) -> u64 {
    match mode {
        BenchMode::Quick => 1_048_576,
        BenchMode::Full => 2_097_152,
    }
}

pub(crate) struct SoakWorkload {
    pub(crate) name: &'static str,
    topology: TopologyKind,
    n: usize,
    protocol: ProtocolKind,
    /// Horizon floor in ticks; the realized horizon rounds up to a
    /// whole number of windows.
    min_horizon: u64,
    /// Builds the schedule for a realized horizon.
    schedule: fn(u64) -> PhaseSchedule,
}

/// A second dip after recovery: the regime the single-arc lifecycle
/// preset cannot express — shrink, partition, heal, then shrink and
/// heal *again*, exercising plan slicing across repeated direction
/// changes.
fn double_dip(horizon: u64) -> PhaseSchedule {
    let unit = horizon / 12;
    PhaseSchedule::with_start_alive(0.8)
        .then(PhaseKind::Growth { fraction: 0.2 }, 2 * unit)
        .then(PhaseKind::Stable, 2 * unit)
        .then(PhaseKind::Shrink { fraction: 0.35 }, 2 * unit)
        .then(PhaseKind::Partition { fraction: 0.25 }, unit)
        .then(PhaseKind::Heal, 2 * unit)
        .then(PhaseKind::Shrink { fraction: 0.25 }, unit)
        .then(PhaseKind::Heal, horizon - 10 * unit)
}

pub(crate) fn workloads(mode: BenchMode) -> Vec<SoakWorkload> {
    let (n_random, n_grid, horizon) = match mode {
        BenchMode::Quick => (300, 324, 10_000),
        BenchMode::Full => (1_000, 1_024, 20_000),
    };
    let wf = ProtocolKind::Wildfire(WildfireOpts::default());
    vec![
        SoakWorkload {
            name: "lifecycle_wildfire",
            topology: TopologyKind::Random,
            n: n_random,
            protocol: wf,
            min_horizon: horizon,
            schedule: PhaseSchedule::lifecycle,
        },
        SoakWorkload {
            name: "lifecycle_spanning_tree_grid",
            topology: TopologyKind::Grid,
            n: n_grid,
            protocol: ProtocolKind::SpanningTree,
            min_horizon: horizon,
            schedule: PhaseSchedule::lifecycle,
        },
        SoakWorkload {
            name: "double_dip_wildfire",
            topology: TopologyKind::Random,
            n: n_random,
            protocol: wf,
            min_horizon: horizon,
            schedule: double_dip,
        },
    ]
}

/// A soak workload lowered to something runnable: the topology, values,
/// and fully-assembled continuous plan. Shared between the timed run
/// and the flight-recorder replay (`crate::flight`), which must drive
/// the *identical* simulation the breach was measured on.
pub(crate) struct SoakSetup {
    pub(crate) graph: Graph,
    pub(crate) values: Vec<u64>,
    pub(crate) plan: RunPlan,
    pub(crate) protocol: ProtocolKind,
    pub(crate) windows: usize,
    pub(crate) horizon: u64,
    pub(crate) deadline: u64,
}

pub(crate) fn setup(w: &SoakWorkload) -> SoakSetup {
    // Setup outside the timed region, like the engine bench.
    let graph = w.topology.build(w.n, 7);
    let n = graph.num_hosts();
    let values = workload::paper_values(n, 0x5eed_0002);
    let d_hat = analysis::diameter_estimate(&graph, 4, 7) + 2;
    let hq = HostId(0);
    let base = RunPlan::query(Aggregate::Count)
        .d_hat(d_hat)
        .from_host(hq)
        .protocol(w.protocol);
    let deadline = base.deadline();
    // Judge the horizon as back-to-back deadline-sized windows; round
    // the window count up so the realized horizon meets the floor.
    let windows = w.min_horizon.div_ceil(deadline) as usize;
    let horizon = windows as u64 * deadline;
    let schedule = (w.schedule)(horizon);
    let lowered = schedule.lower(&graph, hq, 0x50a4_0001);
    let mut plan = base
        .churn(lowered.churn)
        .continuous(deadline, windows)
        .seed(0x50a4_0002);
    if let Some(partition) = lowered.partition {
        plan = plan.partition(partition);
    }
    SoakSetup {
        graph,
        values,
        plan,
        protocol: w.protocol,
        windows,
        horizon,
        deadline,
    }
}

fn run_workload(w: &SoakWorkload) -> SoakResult {
    let s = setup(w);
    let (windows, horizon, deadline) = (s.windows, s.horizon, s.deadline);

    let start = Instant::now();
    let outcomes = judged_plan(&s.graph, &s.values, &s.plan);
    let wall = start.elapsed();

    let windows_run = &outcomes[0].windows;
    let judged_windows = windows_run.len();
    let declared = windows_run
        .iter()
        .filter(|wj| wj.judged.value.is_some())
        .count();
    let events: u64 = windows_run
        .iter()
        .map(|wj| wj.judged.metrics.events_dispatched)
        .sum();
    let messages: u64 = windows_run
        .iter()
        .map(|wj| wj.judged.metrics.messages_sent)
        .sum();
    let wall_s = wall.as_secs_f64().max(1e-9);
    // Each window simulates deadline + 2 ticks (the declaration slack).
    let simulated = judged_windows as u64 * (deadline + 2);
    SoakResult {
        name: w.name,
        n: s.graph.num_hosts(),
        horizon_ticks: horizon,
        windows,
        judged_windows,
        events,
        messages,
        declared_fraction: declared as f64 / judged_windows.max(1) as f64,
        wall_ms: wall_s * 1e3,
        events_per_sec: events as f64 / wall_s,
        ticks_per_sec: simulated as f64 / wall_s,
        peak_rss_kb: peak_rss_kb(),
    }
}

/// Execute all soak workloads at `mode` scale.
pub fn run(mode: BenchMode) -> Vec<SoakResult> {
    workloads(mode).iter().map(run_workload).collect()
}

/// Check every result against the mode's limits: one
/// `(workload, reason)` pair per breach, empty when the soak passes.
pub fn assert_limits(results: &[SoakResult], mode: BenchMode) -> Vec<(&'static str, String)> {
    let max_rss = max_rss_kb(mode);
    let mut breaches = Vec::new();
    for r in results {
        if let Some(rss) = r.peak_rss_kb {
            if rss > max_rss {
                breaches.push((
                    r.name,
                    format!("peak RSS {rss} kB breaches the {max_rss} kB ceiling"),
                ));
            }
        }
        if r.judged_windows < r.windows {
            breaches.push((
                r.name,
                format!(
                    "only {}/{} windows judged — hq died mid-soak",
                    r.judged_windows, r.windows
                ),
            ));
        }
    }
    breaches
}

/// The `repro soak --json` document.
pub fn to_json(mode: BenchMode, results: &[SoakResult]) -> Json {
    Json::obj()
        .with("schema", "soak_engine/v1")
        .with("mode", mode.label())
        .with("limits", Json::obj().with("max_rss_kb", max_rss_kb(mode)))
        .with(
            "workloads",
            Json::Arr(
                results
                    .iter()
                    .map(|r| {
                        Json::obj()
                            .with("name", r.name)
                            .with("n", r.n)
                            .with("horizon_ticks", r.horizon_ticks)
                            .with("windows", r.windows)
                            .with("judged_windows", r.judged_windows)
                            .with("events", r.events)
                            .with("messages", r.messages)
                            .with("declared_fraction", r.declared_fraction)
                            .with("wall_ms", r.wall_ms)
                            .with("events_per_sec", r.events_per_sec)
                            .with("ticks_per_sec", r.ticks_per_sec)
                            .with("peak_rss_kb", r.peak_rss_kb)
                    })
                    .collect(),
            ),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_soak_covers_the_horizon_and_passes_limits() {
        let results = run(BenchMode::Quick);
        assert_eq!(results.len(), 3);
        for r in &results {
            assert!(
                r.horizon_ticks >= 10_000,
                "{}: horizon {} below the 10^4-tick soak floor",
                r.name,
                r.horizon_ticks
            );
            assert_eq!(
                r.judged_windows, r.windows,
                "{}: hq must survive the whole arc",
                r.name
            );
            assert!(r.events > 0 && r.messages > 0, "{}", r.name);
            // The membership arc never kills hq, so most windows
            // declare (partition phases may still starve a few).
            assert!(
                r.declared_fraction > 0.5,
                "{}: declared {:.2}",
                r.name,
                r.declared_fraction
            );
        }
        let failures = assert_limits(&results, BenchMode::Quick);
        assert!(failures.is_empty(), "{failures:?}");
    }

    #[test]
    fn soak_event_counts_are_deterministic() {
        let a = run(BenchMode::Quick);
        let b = run(BenchMode::Quick);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.events, y.events, "{}", x.name);
            assert_eq!(x.messages, y.messages, "{}", x.name);
        }
    }

    #[test]
    fn limit_breaches_are_reported_per_workload() {
        let healthy = SoakResult {
            name: "synthetic",
            n: 100,
            horizon_ticks: 10_000,
            windows: 500,
            judged_windows: 500,
            events: 1_000_000,
            messages: 900_000,
            declared_fraction: 1.0,
            wall_ms: 100.0,
            events_per_sec: 1.0e7,
            ticks_per_sec: 1.0e5,
            peak_rss_kb: Some(50_000),
        };
        assert!(assert_limits(std::slice::from_ref(&healthy), BenchMode::Quick).is_empty());
        // Wall-clock is information, never a gate: a crawl still passes.
        let slow = SoakResult {
            events_per_sec: 10.0,
            ..healthy.clone()
        };
        assert!(assert_limits(&[slow], BenchMode::Quick).is_empty());
        let bloated = SoakResult {
            peak_rss_kb: Some(2_000_000),
            ..healthy.clone()
        };
        let fails = assert_limits(&[bloated], BenchMode::Quick);
        assert_eq!(fails.len(), 1);
        assert_eq!(fails[0].0, "synthetic");
        assert!(fails[0].1.contains("peak RSS"), "{fails:?}");
        let truncated = SoakResult {
            judged_windows: 400,
            ..healthy
        };
        let fails = assert_limits(&[truncated], BenchMode::Quick);
        assert_eq!(fails.len(), 1);
        assert!(fails[0].1.contains("hq died"), "{fails:?}");
    }

    #[test]
    fn soak_json_schema() {
        let results = run(BenchMode::Quick);
        let doc = to_json(BenchMode::Quick, &results).render();
        for needle in [
            "\"schema\": \"soak_engine/v1\"",
            "\"limits\"",
            "\"max_rss_kb\"",
            "\"horizon_ticks\"",
            "\"lifecycle_wildfire\"",
            "\"lifecycle_spanning_tree_grid\"",
            "\"double_dip_wildfire\"",
        ] {
            assert!(doc.contains(needle), "missing {needle} in:\n{doc}");
        }
        assert!(Json::parse(&doc).is_ok());
    }
}
