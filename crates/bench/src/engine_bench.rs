//! `repro bench` — the host-count ladder: one SPANNINGTREE COUNT per
//! rung on a static random graph of 10⁴, 10⁵ and (without `--quick`)
//! 10⁶ hosts, gated on peak RSS per host.
//!
//! Every rung is a pure function of its hard-coded seeds: `runs`,
//! `ticks`, `events` and `messages` never change unless engine
//! semantics change, and [`run_scale`] asserts they agree across its
//! repetitions. The one gate is memory: [`scale_failures`] fails a rung
//! whose peak RSS exceeds [`SCALE_RSS_ALLOWANCE_KB`] +
//! [`SCALE_RSS_PER_HOST_KB`] × n. The wall-clock figures it prints are
//! information for the person running it; every wall-clock *claim*
//! goes through the repo benchmark (`benchmark/`, see
//! docs/BENCHMARKING.md).
//!
//! `repro bench --json PATH` writes one flat document describing this
//! run only ([`to_json`]), carrying per rung:
//!
//! * `events` / `events_per_sec` — engine-loop dispatches and their
//!   wall-clock rate;
//! * `ticks` / `ticks_per_sec` — simulated virtual ticks and their rate;
//! * `peak_rss_kb` — the process peak RSS (`VmHWM`) after the rung, a
//!   monotone proxy for the engine's high-water memory.

use pov_core::pov_protocols::{runner, Aggregate, ProtocolKind, RunPlan};
use pov_core::pov_topology::generators::TopologyKind;
use pov_core::pov_topology::{analysis, HostId};
use pov_core::workload;
use pov_scenario::Json;
use std::time::Instant;

/// One rung's measured result.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Rung name (`scale_10k`, `scale_100k`, `scale_1m`).
    pub name: &'static str,
    /// Hosts in the topology.
    pub n: usize,
    /// Simulations executed.
    pub runs: usize,
    /// Virtual ticks simulated across all runs.
    pub ticks: u64,
    /// Engine events dispatched across all runs (deterministic).
    pub events: u64,
    /// Messages sent across all runs (deterministic).
    pub messages: u64,
    /// Wall-clock milliseconds for the whole rung.
    pub wall_ms: f64,
    /// `events / wall seconds`.
    pub events_per_sec: f64,
    /// `ticks / wall seconds`.
    pub ticks_per_sec: f64,
    /// Peak RSS (`VmHWM`, kB) observed after the rung; `None` when
    /// `/proc/self/status` is unavailable (non-Linux).
    pub peak_rss_kb: Option<u64>,
}

/// Scale preset for the smoke drivers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BenchMode {
    /// CI-sized: a few seconds end to end.
    Quick,
    /// Default: large enough that per-event costs dominate setup.
    Full,
}

impl BenchMode {
    /// The mode's name as it appears in the JSON document.
    pub fn label(self) -> &'static str {
        match self {
            BenchMode::Quick => "quick",
            BenchMode::Full => "full",
        }
    }
}

/// The ladder's host counts per rung, ascending — `VmHWM` (the RSS
/// probe) is process-monotone, so each rung's reading reflects its own
/// high-water mark only if nothing larger ran first. Quick stops at 10⁵
/// for CI; full adds the million-host rung the engine's
/// streaming-topology and active-set work exists to serve.
pub fn scale_sizes(mode: BenchMode) -> Vec<(&'static str, usize)> {
    let mut sizes = vec![("scale_10k", 10_000), ("scale_100k", 100_000)];
    if mode == BenchMode::Full {
        sizes.push(("scale_1m", 1_000_000));
    }
    sizes
}

/// Per-host RSS budget for the ladder, in KiB: topology CSR,
/// per-host protocol state, alive bookkeeping, and the in-flight event
/// queue together may not average more than this over the rung's hosts.
/// Measured at 0.10 kB/host on the 10⁶ rung once SPANNINGTREE's record,
/// message and timers shrank and the run record stopped being cloned
/// (docs/SCALING.md); the ceiling is the smallest 0.01 step that keeps
/// 10 % above that reading.
pub const SCALE_RSS_PER_HOST_KB: f64 = 0.11;

/// Fixed allowance on top of the per-host budget, in kB: the process
/// baseline (binary, allocator arenas, and — `VmHWM` being monotone —
/// the smaller rungs that ran earlier). Dominates only the small rungs,
/// where per-host asymptotics are not yet the story; at 10⁶ hosts it is
/// ~4% of the ceiling.
pub const SCALE_RSS_ALLOWANCE_KB: u64 = 8 * 1024;

/// Run one rung once and measure it: a single-seed SPANNINGTREE flood
/// and convergecast on a random topology — every host activates,
/// classifies its neighbourhood, and reports, so per-host state,
/// delivery fan-out, and timer pressure all scale with `n` while event
/// counts stay a pure function of the rung.
fn run_workload(name: &'static str, n: usize) -> BenchResult {
    // Setup (topology, values, diameter probe) happens outside the
    // timed region: the ladder measures the event loop, not graph
    // construction.
    let graph = TopologyKind::Random.build(n, 1);
    let n = graph.num_hosts();
    let values = workload::paper_values(n, 0x5eed_0001);
    let d_hat = analysis::diameter_estimate(&graph, 4, 1) + 2;
    let plan = RunPlan::query(Aggregate::Count)
        .d_hat(d_hat)
        .from_host(HostId(0))
        .seed(0);
    let start = Instant::now();
    let out = runner::run(ProtocolKind::SpanningTree, &graph, &values, &plan);
    let wall_s = start.elapsed().as_secs_f64().max(1e-9);
    let events = out.metrics.events_dispatched;
    let ticks = plan.deadline() + 2;
    BenchResult {
        name,
        n,
        runs: 1,
        ticks,
        events,
        messages: out.metrics.messages_sent,
        wall_ms: wall_s * 1e3,
        events_per_sec: events as f64 / wall_s,
        ticks_per_sec: ticks as f64 / wall_s,
        peak_rss_kb: peak_rss_kb(),
    }
}

/// The fastest of `reps` runs of a rung. Event counts are asserted
/// equal across the repetitions — a nondeterministic rerun is a bug.
fn best_of(name: &'static str, n: usize, reps: usize) -> BenchResult {
    (0..reps)
        .map(|_| run_workload(name, n))
        .reduce(|best, next| {
            assert_eq!(best.events, next.events, "{name}: nondeterministic rerun");
            if next.events_per_sec > best.events_per_sec {
                next
            } else {
                best
            }
        })
        .expect("at least one repetition")
}

/// Execute the ladder, ascending. Rates are best-of-3 below the
/// million-host rung; that rung runs once — it is seconds long, where
/// scheduler noise is already amortized, and the ladder is gated on
/// its RSS ceiling, not throughput.
pub fn run_scale(mode: BenchMode) -> Vec<BenchResult> {
    scale_sizes(mode)
        .iter()
        .map(|&(name, n)| best_of(name, n, if n >= 1_000_000 { 1 } else { 3 }))
        .collect()
}

/// The scale ladder's memory gate: one failure per rung whose peak RSS
/// exceeds `SCALE_RSS_ALLOWANCE_KB + SCALE_RSS_PER_HOST_KB × n`. Rungs
/// without an RSS reading (non-Linux) are skipped — the gate runs in CI
/// on Linux, where the reading always exists.
pub fn scale_failures(results: &[BenchResult]) -> Vec<String> {
    results
        .iter()
        .filter_map(|r| {
            let rss = r.peak_rss_kb?;
            let ceiling = SCALE_RSS_ALLOWANCE_KB as f64 + SCALE_RSS_PER_HOST_KB * r.n as f64;
            (rss as f64 > ceiling).then(|| {
                format!(
                    "{}: peak RSS {} kB breaches ceiling {:.0} kB \
                     ({:.2} KiB/host at n = {}; budget {} KiB/host + {} kB base)",
                    r.name,
                    rss,
                    ceiling,
                    rss as f64 / r.n as f64,
                    r.n,
                    SCALE_RSS_PER_HOST_KB,
                    SCALE_RSS_ALLOWANCE_KB,
                )
            })
        })
        .collect()
}

/// The `repro bench --json` document: the mode label (`scale-quick`,
/// `scale-full`) and this run's per-rung measurements — nothing carried
/// over from any earlier run.
pub fn to_json(mode_label: &str, results: &[BenchResult]) -> Json {
    Json::obj()
        .with("schema", "bench_engine/v2")
        .with("mode", mode_label)
        .with(
            "workloads",
            Json::Arr(
                results
                    .iter()
                    .map(|r| {
                        Json::obj()
                            .with("name", r.name)
                            .with("n", r.n)
                            .with("runs", r.runs)
                            .with("ticks", r.ticks)
                            .with("events", r.events)
                            .with("messages", r.messages)
                            .with("wall_ms", r.wall_ms)
                            .with("events_per_sec", r.events_per_sec)
                            .with("ticks_per_sec", r.ticks_per_sec)
                            .with("peak_rss_kb", r.peak_rss_kb)
                    })
                    .collect(),
            ),
        )
}

/// Peak resident set size in kB from `/proc/self/status` (`VmHWM`), the
/// cheapest portable-enough RSS proxy; `None` off Linux.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_ladder_ascends_and_quick_fits_ci() {
        let quick = scale_sizes(BenchMode::Quick);
        let full = scale_sizes(BenchMode::Full);
        assert_eq!(quick, full[..quick.len()], "quick is a prefix of full");
        assert_eq!(full.last(), Some(&("scale_1m", 1_000_000)));
        for w in full.windows(2) {
            assert!(
                w[0].1 < w[1].1,
                "sizes must ascend (VmHWM is process-monotone): {w:?}"
            );
        }
        assert!(quick.iter().all(|&(_, n)| n <= 100_000));
    }

    #[test]
    fn scale_rung_is_deterministic_in_event_counts() {
        // A miniature rung (the real ladder starts at 10⁴ — too slow
        // for a debug-build unit test) through the same machinery.
        let a = run_workload("scale_test", 1_500);
        let b = run_workload("scale_test", 1_500);
        assert_eq!(a.runs, 1);
        assert_eq!(
            (a.events, a.messages, a.ticks),
            (b.events, b.messages, b.ticks)
        );
        assert!(
            a.events > 0 && a.messages as usize > a.n,
            "every host reports"
        );
    }

    #[test]
    fn quick_ladder_counts_are_pinned() {
        // The quick rungs' runs, ticks, events and messages, exactly:
        // they move only if engine or protocol semantics do, and an
        // event-loop change must not.
        let counts = scale_sizes(BenchMode::Quick)
            .into_iter()
            .map(|(name, n)| {
                let r = run_workload(name, n);
                (r.name, r.n, r.runs, r.ticks, r.events, r.messages)
            })
            .collect::<Vec<_>>();
        assert_eq!(
            counts,
            [
                ("scale_10k", 10_000, 1, 30, 59_934, 49_934),
                ("scale_100k", 100_000, 1, 36, 601_058, 501_058),
            ]
        );
    }

    #[test]
    fn scale_gate_fires_only_past_the_per_host_ceiling() {
        let rung = |n: usize, rss: Option<u64>| BenchResult {
            name: "scale_test",
            n,
            runs: 1,
            ticks: 100,
            events: 1_000,
            messages: 900,
            wall_ms: 1.0,
            events_per_sec: 1e6,
            ticks_per_sec: 1e5,
            peak_rss_kb: rss,
        };
        // Within budget: allowance + 0.11 KiB/host.
        let ceiling = SCALE_RSS_ALLOWANCE_KB + 110_000;
        assert!(scale_failures(&[rung(1_000_000, Some(ceiling))]).is_empty());
        let fails = scale_failures(&[rung(1_000_000, Some(ceiling + 1))]);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("breaches ceiling"), "{fails:?}");
        assert!(fails[0].contains("KiB/host"), "{fails:?}");
        // No reading (non-Linux): skipped, not failed.
        assert!(scale_failures(&[rung(1_000_000, None)]).is_empty());
    }
}
