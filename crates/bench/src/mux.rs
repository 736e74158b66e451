//! The multiplexed-query bench behind `repro mux`: one shared-substrate
//! run of a mixed workload versus the same queries executed one at a
//! time, on the same graph, values and churn realization.
//!
//! The gate is deterministic: every non-joined query must declare the
//! byte-identical `(value, time)` and receive the same ORACLE verdict
//! as its solo twin (the synchronous-round mux engine makes a
//! non-joined query's trajectory independent of its co-residents), and
//! the shared substrate must send strictly fewer raw engine messages
//! than the sequential runs summed, and the process's peak RSS must
//! stay under a per-(host × query) ceiling ([`rss_failure`]) — the
//! guard against per-host state that grows with the whole workload
//! instead of the queries open at a host. `queries_per_sec` and `speedup`
//! (sequential wall-clock over multiplexed) are printed and recorded
//! for information only; the wall-clock claim for this engine is the
//! repo benchmark's `mux_mixed` workload (docs/BENCHMARKING.md).

use crate::engine_bench::{peak_rss_kb, BenchMode};
use pov_core::mux::{judged_mux, solo_twin, MuxJudged, WorkloadSpec};
use pov_core::pov_protocols::MuxPlan;
use pov_core::pov_sim::{share, ChurnPlan, Time};
use pov_core::pov_topology::generators::TopologyKind;
use pov_core::pov_topology::HostId;
use pov_core::Network;
use pov_scenario::Json;
use std::time::Instant;

/// One fixed multiplexed workload: everything needed to reproduce the
/// run bit-for-bit.
#[derive(Clone, Copy, Debug)]
pub struct MuxBenchConfig {
    /// Host count of the random overlay.
    pub n: usize,
    /// Base queries in the workload.
    pub queries: usize,
    /// Fraction of hosts failing while the workload executes.
    pub churn_fraction: f64,
    /// Root seed (topology, values, workload, churn, engine).
    pub seed: u64,
}

impl MuxBenchConfig {
    /// The preset for one bench mode: CI scale or the full headline run.
    pub fn preset(mode: BenchMode) -> MuxBenchConfig {
        match mode {
            BenchMode::Quick => MuxBenchConfig {
                n: 4_000,
                queries: 200,
                churn_fraction: 0.05,
                seed: 2004,
            },
            BenchMode::Full => MuxBenchConfig {
                n: 6_000,
                queries: 500,
                churn_fraction: 0.05,
                seed: 2004,
            },
        }
    }
}

/// What one `repro mux` run measured.
#[derive(Clone, Debug)]
pub struct MuxBenchResult {
    /// Host count.
    pub n: usize,
    /// Queries executed (equals the workload's base-query count).
    pub queries: usize,
    /// Wall time of the multiplexed run (execute + judge), ms.
    pub mux_wall_ms: f64,
    /// Wall time of the sequential solo-twin baseline, ms.
    pub sequential_wall_ms: f64,
    /// `sequential_wall_ms / mux_wall_ms`.
    pub speedup: f64,
    /// Judged queries retired per second by the multiplexed run.
    pub queries_per_sec: f64,
    /// Raw engine messages of the multiplexed run.
    pub raw_messages: u64,
    /// Raw engine messages summed over the sequential runs.
    pub sequential_raw_messages: u64,
    /// Total payload items across all multiplexed queries.
    pub payload_items: u64,
    /// Queries that joined a live wave through the partial cache.
    pub cache_joins: u64,
    /// Fraction of multiplexed queries judged Single-Site Valid.
    pub valid_fraction: f64,
    /// Process peak RSS (`VmHWM`) after both sides ran, kB; `None` off
    /// Linux.
    pub peak_rss_kb: Option<u64>,
    /// Non-joined queries whose solo twin declared a *different*
    /// `(value, time)` or verdict — must be empty for the numbers to
    /// mean anything.
    pub mismatches: Vec<String>,
}

impl MuxBenchResult {
    /// Whether every non-joined query matched its solo twin exactly.
    pub fn answers_agree(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// Whether sharing paid in communication: the multiplexed run sent
    /// strictly fewer raw engine messages than the solo runs summed.
    pub fn shares_messages(&self) -> bool {
        self.raw_messages < self.sequential_raw_messages
    }

    /// The `mux` block of the `repro mux --json` document.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("n", self.n)
            .with("queries", self.queries)
            .with("mux_wall_ms", self.mux_wall_ms)
            .with("sequential_wall_ms", self.sequential_wall_ms)
            .with("speedup", self.speedup)
            .with("queries_per_sec", self.queries_per_sec)
            .with("raw_messages", self.raw_messages)
            .with("sequential_raw_messages", self.sequential_raw_messages)
            .with("payload_items", self.payload_items)
            .with("cache_joins", self.cache_joins)
            .with("valid_fraction", self.valid_fraction)
            .with("answers_agree", self.answers_agree())
            .with("peak_rss_kb", self.peak_rss_kb)
    }

    /// The RSS ceiling for this run's size, kB:
    /// `MUX_RSS_ALLOWANCE_KB + MUX_RSS_PER_PAIR_B × hosts × queries`.
    pub fn rss_ceiling_kb(&self) -> u64 {
        MUX_RSS_ALLOWANCE_KB + (MUX_RSS_PER_PAIR_B * (self.n * self.queries) as u64).div_ceil(1024)
    }
}

/// Per-(host × query) RSS budget of `repro mux`, in bytes. A host holds
/// 36 bytes — a 4-byte rank and a 32-byte state — only for the queries
/// open at it, and the run one retired bit per pair: the full preset
/// reads ~15 B per pair above the base allowance, the quick one less
/// than nothing. A table sized hosts × queries (the dense per-host
/// query slots this engine used to keep, ~240 B per pair at the quick
/// preset) breaches it, and so does the slab of 72-byte states it kept
/// after that (~34 B per pair at the full preset).
pub const MUX_RSS_PER_PAIR_B: u64 = 18;

/// Fixed allowance on top of the per-pair budget, in kB: the process
/// baseline plus the traffic in flight, which scales with the graph's
/// edges rather than with hosts × queries.
pub const MUX_RSS_ALLOWANCE_KB: u64 = 32 * 1024;

/// The memory gate: why `r` breaches its RSS ceiling, if it does. A run
/// without an RSS reading (non-Linux) is not judged.
pub fn rss_failure(r: &MuxBenchResult) -> Option<String> {
    let rss = r.peak_rss_kb?;
    let ceiling = r.rss_ceiling_kb();
    (rss > ceiling).then(|| {
        format!(
            "peak RSS {rss} kB breaches ceiling {ceiling} kB \
             ({:.0} B per host × query at n = {}, {} queries; budget {MUX_RSS_PER_PAIR_B} B + {MUX_RSS_ALLOWANCE_KB} kB base)",
            rss as f64 * 1024.0 / (r.n * r.queries) as f64,
            r.n,
            r.queries,
        )
    })
}

/// Run the preset workload for one bench mode.
pub fn run(mode: BenchMode) -> MuxBenchResult {
    run_config(&MuxBenchConfig::preset(mode))
}

/// Execute one multiplexed workload and its sequential baseline.
pub fn run_config(cfg: &MuxBenchConfig) -> MuxBenchResult {
    let net = Network::build(TopologyKind::Random, cfg.n, cfg.seed);
    let (graph, values, d_hat) = (net.graph(), net.values(), net.d_hat());
    let n = graph.num_hosts();
    let spec = WorkloadSpec {
        queries: cfg.queries,
        span: 2 * d_hat as u64,
        d_hat,
        window: None,
        seed: cfg.seed ^ 0x006d_7578,
    };
    let queries = spec.generate(n);
    let horizon = queries.iter().map(|q| q.deadline()).max().unwrap_or(0) + 2;
    let plan = MuxPlan {
        churn: ChurnPlan::uniform_failures(
            n,
            share(cfg.churn_fraction, n),
            Time(1),
            Time(horizon),
            HostId(0),
            cfg.seed ^ 0xc4u64,
        ),
        partition: None,
        seed: cfg.seed ^ 0x51b,
    };

    // Both sides are timed best-of-N (the `repro bench` discipline),
    // with identical-answer asserts across repetitions — the runs are
    // deterministic, so any divergence is a bug, not jitter.
    const TIMING_REPS: usize = 2;

    // The multiplexed side: all queries over one simulation, judged.
    let mut mux_wall_ms = f64::INFINITY;
    let mut best: Option<(Vec<MuxJudged>, _)> = None;
    for _ in 0..TIMING_REPS {
        let start = Instant::now();
        let (judged, out) = judged_mux(graph, values, &queries, &plan);
        mux_wall_ms = mux_wall_ms.min(start.elapsed().as_secs_f64() * 1_000.0);
        if let Some((prev, _)) = &best {
            assert_eq!(
                prev.iter()
                    .map(|j| (j.value, j.declared_at))
                    .collect::<Vec<_>>(),
                judged
                    .iter()
                    .map(|j| (j.value, j.declared_at))
                    .collect::<Vec<_>>(),
                "multiplexed reruns must be deterministic"
            );
        }
        best = Some((judged, out));
    }
    let (judged, out) = best.expect("at least one timing rep");

    // The sequential baseline: every query alone over the *same*
    // environment, timed end to end (execute + judge, like the
    // multiplexed side).
    let mut sequential_wall_ms = f64::INFINITY;
    let mut twins: Vec<MuxJudged> = Vec::new();
    for _ in 0..TIMING_REPS {
        let start = Instant::now();
        twins = queries
            .iter()
            .map(|q| solo_twin(graph, values, q, &plan))
            .collect();
        sequential_wall_ms = sequential_wall_ms.min(start.elapsed().as_secs_f64() * 1_000.0);
    }
    let sequential_raw_messages = sequential_raw(graph, values, &queries, &plan);

    // Equivalence first, throughput second: a non-joined query's
    // multiplexed trajectory is independent of its co-residents, so its
    // solo twin must agree byte for byte. Joined queries inherit a live
    // wave's answer and are reported, not compared.
    let mut mismatches = Vec::new();
    for (j, twin) in judged.iter().zip(&twins) {
        if j.joined {
            continue;
        }
        if (j.value, j.declared_at) != (twin.value, twin.declared_at) {
            mismatches.push(format!(
                "query {}: mux declared {:?} at {:?}, solo {:?} at {:?}",
                j.query.id.0, j.value, j.declared_at, twin.value, twin.declared_at
            ));
        } else if j.is_valid() != twin.is_valid() {
            mismatches.push(format!(
                "query {}: mux verdict {} vs solo {}",
                j.query.id.0,
                j.is_valid(),
                twin.is_valid()
            ));
        }
    }

    let valid = judged.iter().filter(|j| j.is_valid()).count();
    MuxBenchResult {
        n,
        queries: queries.len(),
        mux_wall_ms,
        sequential_wall_ms,
        speedup: sequential_wall_ms / mux_wall_ms.max(f64::EPSILON),
        queries_per_sec: queries.len() as f64 / (mux_wall_ms / 1_000.0).max(f64::EPSILON),
        raw_messages: out.raw_messages,
        sequential_raw_messages,
        payload_items: out.payload_items,
        cache_joins: out.cache_joins,
        valid_fraction: valid as f64 / queries.len().max(1) as f64,
        peak_rss_kb: peak_rss_kb(),
        mismatches,
    }
}

/// Raw engine messages summed over per-query solo runs — the
/// communication the shared substrate saves, measured outside the timed
/// sections so the accounting never skews the wall-clock comparison.
fn sequential_raw(
    graph: &pov_core::pov_topology::Graph,
    values: &[u64],
    queries: &[pov_core::pov_protocols::MuxQuery],
    plan: &MuxPlan,
) -> u64 {
    queries
        .iter()
        .map(|q| {
            let (_, out) = judged_mux(graph, values, std::slice::from_ref(q), plan);
            out.raw_messages
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MuxBenchConfig {
        MuxBenchConfig {
            n: 300,
            queries: 24,
            churn_fraction: 0.05,
            seed: 7,
        }
    }

    #[test]
    fn bench_answers_agree_and_share_messages() {
        let r = run_config(&tiny());
        assert_eq!(r.queries, 24);
        // The two facts `repro mux` exits non-zero on.
        assert!(r.answers_agree(), "mismatches: {:?}", r.mismatches);
        // Sharing is the whole point: overlapping waves ride the same
        // engine messages, so the multiplexed run sends strictly fewer.
        assert!(
            r.shares_messages(),
            "mux {} vs sequential {}",
            r.raw_messages,
            r.sequential_raw_messages
        );
        assert!(r.payload_items > 0);
        assert!(r.valid_fraction > 0.5, "got {}", r.valid_fraction);
    }

    #[test]
    fn bench_json_carries_the_headline_fields() {
        let r = run_config(&tiny());
        let json = r.to_json().render();
        for key in ["queries_per_sec", "speedup", "answers_agree", "peak_rss_kb"] {
            assert!(json.contains(key), "{key} missing from {json}");
        }
    }

    #[test]
    fn rss_gate_fires_only_past_the_per_pair_ceiling() {
        let mut r = MuxBenchResult {
            n: 4_000,
            queries: 200,
            mux_wall_ms: 1.0,
            sequential_wall_ms: 3.0,
            speedup: 3.0,
            queries_per_sec: 2e5,
            raw_messages: 1,
            sequential_raw_messages: 2,
            payload_items: 1,
            cache_joins: 0,
            valid_fraction: 1.0,
            peak_rss_kb: None,
            mismatches: Vec::new(),
        };
        // Within budget: allowance + 18 B per host × query.
        let ceiling = MUX_RSS_ALLOWANCE_KB + (18 * 4_000 * 200_u64).div_ceil(1024);
        assert_eq!(r.rss_ceiling_kb(), ceiling);
        r.peak_rss_kb = Some(ceiling);
        assert_eq!(rss_failure(&r), None);
        r.peak_rss_kb = Some(ceiling + 1);
        let fail = rss_failure(&r).expect("one kB over the ceiling fails");
        assert!(fail.contains("breaches ceiling"), "{fail}");
        assert!(fail.contains("per host × query"), "{fail}");
        // A dense hosts × queries table at ~240 B per pair fails.
        r.peak_rss_kb = Some(240 * 4_000 * 200 / 1024);
        assert!(rss_failure(&r).is_some());
        // So does the slab engine's full-preset reading (n = 6000, 500
        // queries), where the flat layout read 84 196 kB and the
        // columns read 75 720–75 784 kB.
        (r.n, r.queries) = (6_000, 500);
        assert_eq!(r.rss_ceiling_kb(), 85_503);
        r.peak_rss_kb = Some(84_196);
        assert_eq!(rss_failure(&r), None);
        r.peak_rss_kb = Some(118_452);
        assert!(rss_failure(&r).is_some());
        // No reading (non-Linux): skipped, not failed.
        r.peak_rss_kb = None;
        assert_eq!(rss_failure(&r), None);
    }

    #[test]
    fn presets_scale_with_mode() {
        let q = MuxBenchConfig::preset(BenchMode::Quick);
        let f = MuxBenchConfig::preset(BenchMode::Full);
        assert!(q.n >= 4_000 && q.queries >= 200, "quick preset too small");
        assert!(f.n > q.n && f.queries > q.queries);
    }
}
