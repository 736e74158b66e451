//! Cross-crate integration tests for the telemetry layer: the trace
//! runner against the real `.scn` files CI traces, the determinism
//! contract across thread counts, the shape of every JSONL line, and
//! the hard bar that tracing never perturbs a scenario report.

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

/// The keys of a JSONL tick record, in order; the overlay counters
/// follow only on ticks where the overlay changed.
const TICK_KEYS: [&str; 11] = [
    "t",
    "alive",
    "queue",
    "dispatched",
    "delivered",
    "dropped",
    "sent",
    "fails",
    "joins",
    "timers",
    "frontier",
];
const OVERLAY_KEYS: [&str; 3] = ["ov_added", "ov_removed", "ov_suspicions"];

/// The keys of a JSON object, in order.
fn keys(obj: &Json) -> Vec<&str> {
    match obj {
        Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

/// Every value under `keys` in `obj` is a non-negative integer.
fn counts(obj: &Json, keys: &[&str]) -> bool {
    keys.iter()
        .all(|k| obj.get(k).and_then(Json::as_i64).is_some_and(|v| v >= 0))
}

/// Every JSONL line is one JSON object of a known shape: the header
/// first, then per cell a `cell` line, its tick records and its
/// `summary` samples — as many of each as the cell says it holds.
#[test]
fn jsonl_lines_are_known_objects() {
    for name in ["smoke.scn", "soak_lifecycle.scn"] {
        let doc = trace_batch(&scn(name), 2);
        let out = export::jsonl(&doc);
        let mut lines = out
            .lines()
            .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("{name}: {e} in line {l}")));

        let header = lines.next().expect("header line");
        assert_eq!(
            keys(&header),
            ["schema", "name", "cells", "phases"],
            "{name}"
        );
        assert_eq!(
            header.get("schema").and_then(Json::as_str),
            Some(TRACE_SCHEMA)
        );
        assert_eq!(
            header.get("name").and_then(Json::as_str),
            Some(doc.name.as_str())
        );
        let cells = header.get("cells").and_then(Json::as_i64);
        assert_eq!(cells, Some(doc.cells.len() as i64), "{name}");
        let phases = header.get("phases").and_then(Json::as_arr).expect("phases");
        assert_eq!(phases.len(), doc.phases.len(), "{name}");
        for p in phases {
            assert_eq!(keys(p), ["label", "start", "end"], "{name}");
            assert!(p.get("label").and_then(Json::as_str).is_some());
            assert!(counts(p, &["start", "end"]), "{name}: {p:?}");
        }

        // Per cell: (tick records announced, seen; summaries seen).
        let mut seen: Vec<(i64, i64, usize)> = Vec::new();
        for line in lines {
            let k = keys(&line);
            if k == ["cell"] {
                let cell = line.get("cell").expect("cell");
                let fields = ["seed", "rep", "window", "offset", "num_hosts", "ticks"];
                assert_eq!(keys(cell)[0], "protocol", "{name}");
                assert_eq!(keys(cell)[1..], fields, "{name}");
                assert!(cell.get("protocol").and_then(Json::as_str).is_some());
                assert!(counts(cell, &fields), "{name}: {cell:?}");
                let ticks = cell.get("ticks").and_then(Json::as_i64).unwrap();
                seen.push((ticks, 0, 0));
                continue;
            }
            let (_, ticks, summaries) = seen.last_mut().expect("a cell line comes first");
            if k == ["summary"] {
                let s = line.get("summary").expect("summary");
                assert_eq!(keys(s), ["t", "active", "mass"], "{name}");
                assert!(counts(s, &["t", "active"]), "{name}: {s:?}");
                assert!(s.get("mass").and_then(Json::as_f64).is_some(), "{name}");
                *summaries += 1;
            } else {
                assert_eq!(*summaries, 0, "{name}: tick record after a summary");
                let overlay = k.len() > TICK_KEYS.len();
                assert_eq!(k[..TICK_KEYS.len()], TICK_KEYS, "{name}");
                if overlay {
                    assert_eq!(k[TICK_KEYS.len()..], OVERLAY_KEYS, "{name}");
                }
                assert!(counts(&line, &k), "{name}: {line:?}");
                *ticks += 1;
            }
        }
        assert_eq!(
            seen.len(),
            doc.cells.len(),
            "{name}: one cell line per cell"
        );
        for ((announced, ticks, summaries), cell) in seen.iter().zip(&doc.cells) {
            assert_eq!(announced, ticks, "{name}");
            assert_eq!(*summaries, cell.series.summaries.len(), "{name}");
        }
    }
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
