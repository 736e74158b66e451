//! The trace runner: re-execute a scenario's batch matrix with a
//! [`pov_telemetry::TickRecorder`] attached to every cell and assemble
//! the recordings into a [`TraceDoc`] for the exporters.
//!
//! The runner shares the batch executor's cell machinery —
//! [`crate::run`]'s `run_cells` fans the cells out and regroups them,
//! its `cell_plan` derives the per-cell seeds and churn/partition
//! realization, and `pov_core::judged::window_local_plans`
//! slices continuous registrations exactly the way `judged_plan` does —
//! so a trace records *the same runs the report aggregates*, not a
//! parallel universe. Determinism carries over too: cells land in
//! slot-indexed positions, so the document (and every exporter's
//! rendering of it) is byte-identical for any `--threads` value.

use crate::run;
use crate::spec::Scenario;
use pov_core::judged::window_local_plans;
use pov_core::pov_protocols::runner;
use pov_core::pov_sim::PhaseSchedule;
use pov_core::Network;
use pov_telemetry::{CellTrace, PhaseSpan, TickRecorder, TraceDoc};

/// Every recording samples protocol state (active hosts, sketch mass)
/// every this many ticks.
const SUMMARY_EVERY: u64 = 8;

/// The phase spans of a schedule, as absolute-tick `[start, end)` rows
/// for the summary exporter (keyed by the same labels
/// [`PhaseSchedule::label_at`] reports).
fn phase_spans(schedule: &PhaseSchedule) -> Vec<PhaseSpan> {
    let mut spans = Vec::with_capacity(schedule.phases().len());
    let mut start = 0u64;
    for p in schedule.phases() {
        spans.push(PhaseSpan {
            label: p.kind.label().to_string(),
            start,
            end: start + p.ticks,
        });
        start += p.ticks;
    }
    spans
}

/// Record one `(seed, rep)` cell: every protocol runs every window of
/// the cell's plan with a fresh recorder. Returns protocol-major
/// recordings, mirroring the batch runner's section order.
fn trace_cell(scn: &Scenario, net: &Network, seed: u64, rep: usize) -> Vec<Vec<CellTrace>> {
    let plan = run::cell_plan(scn, net, seed, rep).plan;
    let windows = window_local_plans(net.graph(), &plan);
    scn.protocols
        .iter()
        .map(|&kind| {
            windows
                .iter()
                .enumerate()
                .map(|(w, (start, local))| {
                    let mut rec = TickRecorder::with_summary_every(SUMMARY_EVERY);
                    let _ =
                        runner::run_with(kind, net.graph(), net.values(), local, Some(&mut rec));
                    CellTrace {
                        protocol: kind.label(),
                        seed,
                        rep: rep as u64,
                        window: w as u64,
                        offset: start.ticks(),
                        series: rec.finish(),
                    }
                })
                .collect()
        })
        .collect()
}

/// Trace the whole batch on `threads` workers: one [`CellTrace`] per
/// `(protocol, seed, rep, window)`, in protocol-major order, plus the
/// scenario's phase spans. The document is a pure function of the
/// scenario — byte-identical across thread counts and reruns.
///
/// # Panics
/// Panics if `threads == 0`, the scenario has no protocols, or its `hq`
/// exceeds the host count the topology actually produced.
pub fn trace_batch(scn: &Scenario, threads: usize) -> TraceDoc {
    let (net, per_protocol, _) = run::run_cells(scn, threads, |net, seed, rep| {
        (trace_cell(scn, net, seed, rep), ())
    });
    let span = run::regime_span(scn, run::deadline(scn, &net));
    let phases = run::materialize_phases(scn, span)
        .map(|s| phase_spans(&s))
        .unwrap_or_default();
    TraceDoc {
        name: scn.name.clone(),
        phases,
        cells: per_protocol.into_iter().flatten().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::run::run_batch;
    use pov_telemetry::export;

    const PHASED: &str = r#"
[scenario]
name = "trace-phased"
[topology]
kind = "random"
n = 60
seed = 3
[query]
aggregate = "count"
[[protocol]]
kind = "wildfire"
[[protocol]]
kind = "spanning-tree"
[phases]
start_alive = 0.7
[[phase]]
kind = "growth"
fraction = 0.3
[[phase]]
kind = "stable"
[[phase]]
kind = "shrink"
fraction = 0.3
[continuous]
windows = 3
[run]
seeds = [1, 2]
repetitions = 1
"#;

    fn phased() -> Scenario {
        PHASED.parse().expect("valid scenario")
    }

    #[test]
    fn trace_covers_the_matrix_in_protocol_major_order() {
        let scn = phased();
        let doc = trace_batch(&scn, 2);
        // 2 protocols × 2 seeds × 1 rep × 3 windows.
        assert_eq!(doc.cells.len(), 12);
        let coords: Vec<(&str, u64, u64)> = doc
            .cells
            .iter()
            .map(|c| (c.protocol.as_str(), c.seed, c.window))
            .collect();
        assert_eq!(
            coords,
            vec![
                ("WILDFIRE", 1, 0),
                ("WILDFIRE", 1, 1),
                ("WILDFIRE", 1, 2),
                ("WILDFIRE", 2, 0),
                ("WILDFIRE", 2, 1),
                ("WILDFIRE", 2, 2),
                ("SPANNINGTREE", 1, 0),
                ("SPANNINGTREE", 1, 1),
                ("SPANNINGTREE", 1, 2),
                ("SPANNINGTREE", 2, 0),
                ("SPANNINGTREE", 2, 1),
                ("SPANNINGTREE", 2, 2),
            ]
        );
        // Window offsets ascend by the window length.
        let offsets: Vec<u64> = doc.cells[..3].iter().map(|c| c.offset).collect();
        assert_eq!(offsets[0], 0);
        assert!(offsets[1] > 0 && offsets[2] == 2 * offsets[1]);
        // Every window 0 recording saw the flood start.
        for c in doc.cells.iter().filter(|c| c.window == 0) {
            assert!(
                !c.series.ticks.is_empty(),
                "{} recorded nothing",
                c.protocol
            );
            assert!(c.series.sent() > 0);
            let summaries = &c.series.summaries;
            assert!(!summaries.is_empty(), "{} took no summary", c.protocol);
            for pair in summaries.windows(2) {
                assert!(pair[1].tick >= pair[0].tick + SUMMARY_EVERY);
            }
        }
        // The phased scenario's spans tile the horizon contiguously.
        assert_eq!(
            doc.phases
                .iter()
                .map(|p| p.label.as_str())
                .collect::<Vec<_>>(),
            ["growth", "stable", "shrink"]
        );
        for pair in doc.phases.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
    }

    #[test]
    fn trace_records_the_runs_the_report_aggregates() {
        // The trace runner re-executes the exact sims `judged_plan`
        // ran: per protocol, the recorded message totals must equal the
        // report's — same seeds, same windows, same realization.
        let scn = phased();
        let doc = trace_batch(&scn, 2);
        let report = run_batch(&scn, 2);
        for section in &report.protocols {
            let reported: u64 = section.records.iter().map(|r| r.messages).sum();
            let traced: u64 = doc
                .cells
                .iter()
                .filter(|c| c.protocol == section.protocol)
                .map(|c| c.series.sent())
                .sum();
            assert_eq!(traced, reported, "{}", section.protocol);
        }
    }

    #[test]
    fn thread_counts_agree_byte_for_byte() {
        let scn = phased();
        let base = trace_batch(&scn, 1);
        let jsonl = export::jsonl(&base);
        let chrome = export::chrome(&base);
        let summary = export::summary(&base);
        for threads in [2, 3, 8] {
            let doc = trace_batch(&scn, threads);
            assert_eq!(export::jsonl(&doc), jsonl, "jsonl, threads = {threads}");
            assert_eq!(export::chrome(&doc), chrome, "chrome, threads = {threads}");
            assert_eq!(
                export::summary(&doc),
                summary,
                "summary, threads = {threads}"
            );
        }
    }

    #[test]
    fn chrome_export_is_valid_json() {
        let doc = trace_batch(&phased(), 4);
        let parsed = Json::parse(&export::chrome(&doc)).expect("chrome trace parses");
        let rendered = parsed.render();
        assert!(rendered.contains("\"traceEvents\""));
        assert!(rendered.contains("pov_trace/v1"));
    }

    #[test]
    fn one_shot_scenarios_trace_without_phases() {
        let scn: Scenario = r#"
[scenario]
name = "trace-oneshot"
[topology]
kind = "random"
n = 50
[query]
aggregate = "count"
[protocol]
kind = "wildfire"
[churn]
model = "uniform"
fraction = 0.1
[run]
seeds = [1]
"#
        .parse()
        .expect("valid");
        let doc = trace_batch(&scn, 1);
        assert_eq!(doc.cells.len(), 1);
        assert!(doc.phases.is_empty());
        assert_eq!(doc.cells[0].offset, 0);
        // The summary exporter synthesizes its single `run` span.
        assert!(export::summary(&doc).lines().any(|l| l.starts_with("run")));
    }
}
