//! Cross-crate integration tests for the telemetry layer: the trace
//! runner against the real `.scn` files CI traces, the determinism
//! contract across thread counts, and the hard bar that telemetry never
//! perturbs a scenario report.

use pov_scenario::{run_batch, trace_batch, Json, Scenario};
use pov_telemetry::{export, TRACE_SCHEMA};
use std::path::PathBuf;

fn scn(name: &str) -> Scenario {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("scenarios")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
        .parse()
        .unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// The acceptance bar for `repro trace`: the CI smoke scenario's trace
/// files are byte-identical for any `--threads` value, in every export
/// format.
#[test]
fn smoke_trace_is_byte_identical_across_thread_counts() {
    let scenario = scn("smoke.scn");
    let base = trace_batch(&scenario, 1);
    assert!(!base.cells.is_empty());
    let (jsonl, chrome, summary) = (
        export::jsonl(&base),
        export::chrome(&base),
        export::summary(&base),
    );
    for threads in [2, 8] {
        let doc = trace_batch(&scenario, threads);
        assert_eq!(export::jsonl(&doc), jsonl, "jsonl, threads = {threads}");
        assert_eq!(export::chrome(&doc), chrome, "chrome, threads = {threads}");
        assert_eq!(
            export::summary(&doc),
            summary,
            "summary, threads = {threads}"
        );
    }
}

/// The Chrome exporter's output must be a JSON document a trace viewer
/// will load: parseable, with a `traceEvents` array and the schema
/// stamp.
#[test]
fn chrome_trace_is_valid_json_with_schema() {
    let doc = trace_batch(&scn("smoke.scn"), 4);
    let parsed = Json::parse(&export::chrome(&doc)).expect("chrome trace parses as JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(
        events.len() > doc.cells.len(),
        "events beyond cell metadata"
    );
    assert_eq!(
        parsed.get("schema").and_then(Json::as_str),
        Some(TRACE_SCHEMA)
    );
}

/// The JSONL header carries the schema version and the scenario name —
/// what CI greps for after tracing.
#[test]
fn jsonl_header_is_schema_stamped() {
    let doc = trace_batch(&scn("soak_lifecycle.scn"), 2);
    let out = export::jsonl(&doc);
    let header = out.lines().next().expect("header line");
    assert!(
        header.contains(&format!("\"schema\": \"{TRACE_SCHEMA}\"")),
        "{header}"
    );
    assert!(header.contains("\"name\": "), "{header}");
    // A phased scenario's spans ride in the header.
    assert!(header.contains("\"phases\": [{"), "{header}");
}

/// The tentpole's hard bar: telemetry configuration must never touch a
/// report. Adding a `[telemetry]` section to a scenario leaves
/// `run_batch`'s JSON byte-identical — the section only feeds
/// `trace_batch`.
#[test]
fn telemetry_section_never_perturbs_the_report() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("scenarios/smoke.scn");
    let text = std::fs::read_to_string(path).expect("smoke.scn");
    let plain: Scenario = text.parse().expect("valid scenario");
    let with_telemetry: Scenario = format!("{text}\n[telemetry]\nsummary_every = 2\n")
        .parse()
        .expect("valid scenario with [telemetry]");
    assert!(plain.telemetry.is_none());
    assert!(with_telemetry.telemetry.is_some());
    assert_eq!(
        run_batch(&plain, 2).to_json().render(),
        run_batch(&with_telemetry, 2).to_json().render(),
        "[telemetry] leaked into the report"
    );
}

/// Tracing a scenario and *then* running its batch (or vice versa)
/// yields the same report bytes as running the batch alone — recording
/// shares no state with the measured runs.
#[test]
fn tracing_does_not_perturb_a_subsequent_report() {
    let scenario = scn("smoke.scn");
    let before = run_batch(&scenario, 2).to_json().render();
    let _trace = trace_batch(&scenario, 2);
    let after = run_batch(&scenario, 2).to_json().render();
    assert_eq!(before, after);
}
