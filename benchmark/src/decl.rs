//! What the benchmark declares: workload names, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at
//! the repo root states the same thing for the driver; a unit test
//! keeps the two identical.

use pov_scenario::Json;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload and why it exists.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadDecl {
    /// Final workload name.
    pub name: &'static str,
    /// One line: which layers it stresses.
    pub why: &'static str,
}

/// One declared metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDecl {
    /// `<name>` (end to end) or `<crate>.<name>` (per layer).
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression (`0` per layer:
    /// layer metrics carry no bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDecl {
    MetricDecl {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// The six workloads, in the order `run.sh` runs them.
pub const WORKLOADS: [WorkloadDecl; 6] = [
    WorkloadDecl {
        name: "scn_pipeline",
        why: "13 small .scn texts parsed, batch-run and rendered: parse/lowering, plan build, SimBuilder, oracle and report aggregation dominate; the event loop does not",
    },
    WorkloadDecl {
        name: "wildfire_static",
        why: "WILDFIRE FM-sketch COUNT on a static random graph, n=6000: event queue, dispatch, handler and sketch merge do the work; churn, partition and oracle do almost none",
    },
    WorkloadDecl {
        name: "churn_partition",
        why: "WILDFIRE+SPANNINGTREE+DAG on n=4000 under 10% failures and a cut severing the farthest 30%: the ChurnSource/alive-set/partition-check path and a long membership trace for the oracle",
    },
    WorkloadDecl {
        name: "scale_tree",
        why: "one SPANNINGTREE COUNT on a static random graph, n=400000: memory-bound (CSR locality, per-host SoA, queue growth); set-up time and peak RSS are first-order",
    },
    WorkloadDecl {
        name: "mux_mixed",
        why: "200 mixed concurrent queries through judged_mux on n=4000 with 5% churn: the second engine surface (run_mux, MuxPartial, per-host caches); bypasses runner and RunPlan",
    },
    WorkloadDecl {
        name: "continuous_lifecycle",
        why: "WILDFIRE+SPANNINGTREE over a phased lifecycle on n=300, 600 continuous windows: window slicing, per-window build and per-window oracle replay dominate",
    },
];

/// End-to-end metrics: what a user of the system waits and pays for.
pub const END_TO_END: [MetricDecl; 5] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("iter_s_p50", "s", Better::Lower, 0.25),
    e2e("queries_per_s", "1/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
    e2e("msgs_per_query", "count", Better::Lower, 0.20),
];

/// Per-layer metrics, from the traced run. A metric a workload does not
/// exercise reads `0` there.
pub const PER_LAYER: [MetricDecl; 55] = [
    layer("topology.build_s", "s", Better::Lower),
    layer("topology.diameter_s", "s", Better::Lower),
    layer("topology.edges", "count", Better::Lower),
    layer("topology.neighbors_ns_idorder", "ns", Better::Lower),
    layer("topology.neighbors_ns_bfsorder", "ns", Better::Lower),
    layer("sim.plan_churn_s", "s", Better::Lower),
    layer("sim.plan_partition_s", "s", Better::Lower),
    layer("sim.plan_phases_s", "s", Better::Lower),
    layer("sim.build_s", "s", Better::Lower),
    layer("sim.build_ns_per_host", "ns", Better::Lower),
    layer("sim.flood_loop_s", "s", Better::Lower),
    layer("sim.flood_events", "count", Better::Lower),
    layer("sim.flood_ns_per_event", "ns", Better::Lower),
    layer("sim.flood_churn_ns_per_event", "ns", Better::Lower),
    layer("sim.shard2_ratio", "ratio", Better::Lower),
    layer("protocols.run_s.wildfire", "s", Better::Lower),
    layer("protocols.run_s.spanning_tree", "s", Better::Lower),
    layer("protocols.run_s.dag", "s", Better::Lower),
    layer("protocols.events", "count", Better::Lower),
    layer("protocols.messages", "count", Better::Lower),
    layer("protocols.ns_per_event", "ns", Better::Lower),
    layer("protocols.partial_combine_ns", "ns", Better::Lower),
    layer("protocols.mux_run_s", "s", Better::Lower),
    layer("protocols.mux_raw_messages", "count", Better::Lower),
    layer("protocols.mux_payload_items", "count", Better::Higher),
    layer("protocols.mux_cache_joins", "count", Better::Higher),
    layer("protocols.mux_share_ratio", "ratio", Better::Higher),
    layer("sketch.fm_insert_ns", "ns", Better::Lower),
    layer("sketch.fm_merge_ns", "ns", Better::Lower),
    layer("sketch.fm_estimate_ns", "ns", Better::Lower),
    layer("sketch.kmv_merge_ns", "ns", Better::Lower),
    layer("oracle.host_sets_s", "s", Better::Lower),
    layer("oracle.judge_s", "s", Better::Lower),
    layer("oracle.trace_events", "count", Better::Lower),
    layer("oracle.valid_fraction", "ratio", Better::Higher),
    layer("core.judged_self_s", "s", Better::Lower),
    layer("core.window_plans_s", "s", Better::Lower),
    layer("core.mux_generate_s", "s", Better::Lower),
    layer("core.mux_judge_s", "s", Better::Lower),
    layer("core.judged_answers", "count", Better::Higher),
    layer("overlay.run_ratio", "ratio", Better::Lower),
    layer("overlay.maintenance_msgs", "count", Better::Lower),
    layer("telemetry.sink_overhead_frac", "ratio", Better::Lower),
    layer("telemetry.export_s", "s", Better::Lower),
    layer("scenario.parse_s", "s", Better::Lower),
    layer("scenario.run_batch_s", "s", Better::Lower),
    layer("scenario.render_s", "s", Better::Lower),
    layer("scenario.report_bytes", "count", Better::Lower),
    layer("scenario.batch_t2_ratio", "ratio", Better::Lower),
    layer("bench.cold_iter_s", "s", Better::Lower),
    layer("bench.iter_iqr_rel", "ratio", Better::Lower),
    layer("bench.iter_wall_s_p50", "s", Better::Lower),
    layer("bench.machine_factor", "ratio", Better::Lower),
    layer("bench.trace_overhead_frac", "ratio", Better::Lower),
    layer("bench.failed_fraction", "ratio", Better::Lower),
];

/// How long one driver run measures, in seconds.
pub const RUN_SECONDS: u64 = 15;

/// The `BENCHMARK.json` document this declaration amounts to
/// (`pov-benchmark --declaration` prints it).
pub fn benchmark_json() -> Json {
    let metric = |m: &MetricDecl| {
        Json::obj()
            .with("name", m.name)
            .with("unit", m.unit)
            .with("better", m.better.label())
    };
    Json::obj()
        .with("command", vec!["bash", "benchmark/run.sh"])
        .with("paths", vec!["benchmark"])
        .with("run_seconds", RUN_SECONDS)
        .with(
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj().with("name", w.name).with("why", w.why))
                    .collect(),
            ),
        )
        .with(
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| metric(m).with("bound", m.bound))
                    .collect(),
            ),
        )
        .with(
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        )
}

/// The declared unit of a metric (either list).
///
/// # Panics
/// Panics on an undeclared name: emitting a metric nobody declared is a
/// harness bug.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not declared in decl.rs"))
        .unit
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.as_bytes()[0].is_ascii_alphanumeric()
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}: {}", m.name, m.unit);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn benchmark_json_states_the_same_declaration() {
        assert_eq!(
            benchmark_json().render(),
            include_str!("../../BENCHMARK.json"),
            "regenerate with: pov-benchmark --declaration > BENCHMARK.json"
        );
        assert!((1..=60).contains(&RUN_SECONDS));
    }
}
