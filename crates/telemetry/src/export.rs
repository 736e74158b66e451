//! Trace exporters: deterministic JSONL, Chrome trace-event JSON, and
//! a plain-text per-phase summary table.
//!
//! All three render from the same [`TraceDoc`] and are pure functions
//! of it — byte-identical output for byte-identical recordings, which
//! is what lets CI diff a `--threads 1` trace against a `--threads 8`
//! trace.

use crate::fmt::{push_f64, push_str};
use crate::record::TickSeries;
use crate::TRACE_SCHEMA;
use pov_sim::TickSample;

/// A labelled span of virtual time, `[start, end)` in ticks — one row
/// of the phase table, keyed by the scenario's `PhaseSchedule`
/// labels (or a single synthetic `run` span when the scenario has no
/// phases).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseSpan {
    /// Phase label (e.g. `growth`, `partition`).
    pub label: String,
    /// First tick of the span (inclusive).
    pub start: u64,
    /// One past the last tick of the span.
    pub end: u64,
}

/// The recording of one simulation cell: a `(protocol, seed, rep,
/// window)` coordinate plus its time series.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CellTrace {
    /// Protocol contender name (e.g. `WILDFIRE`).
    pub protocol: String,
    /// Scenario seed that drove the cell.
    pub seed: u64,
    /// Repetition index under that seed.
    pub rep: u64,
    /// Continuous-query window index (0 for one-shot runs).
    pub window: u64,
    /// Absolute tick at which the window's run began. Sample ticks in
    /// `series` are window-local; exporters add this offset.
    pub offset: u64,
    /// The recording.
    pub series: TickSeries,
}

/// A full trace document: every recorded cell of a scenario plus the
/// phase spans the summary table aggregates over.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceDoc {
    /// Scenario name.
    pub name: String,
    /// Phase spans in ascending `start` order (may be empty).
    pub phases: Vec<PhaseSpan>,
    /// Recorded cells in deterministic (protocol, seed, rep, window)
    /// order.
    pub cells: Vec<CellTrace>,
}

/// Append one JSONL tick line for `s`, shifted to absolute time by
/// `offset`. The overlay fields are appended only on ticks where the
/// maintenance driver acted, so overlay-free recordings render
/// byte-identically to schema v1 output.
fn tick_line(out: &mut String, s: &TickSample, offset: u64) {
    out.push_str(&format!(
        "{{\"t\": {}, \"alive\": {}, \"queue\": {}, \"dispatched\": {}, \"delivered\": {}, \
         \"dropped\": {}, \"sent\": {}, \"fails\": {}, \"joins\": {}, \"timers\": {}, \
         \"frontier\": {}",
        offset + s.tick,
        s.alive,
        s.queue_depth,
        s.dispatched,
        s.delivered,
        s.dropped,
        s.sent,
        s.fails,
        s.joins,
        s.timers,
        s.frontier
    ));
    if s.overlay_added + s.overlay_removed + s.overlay_suspicions > 0 {
        out.push_str(&format!(
            ", \"ov_added\": {}, \"ov_removed\": {}, \"ov_suspicions\": {}",
            s.overlay_added, s.overlay_removed, s.overlay_suspicions
        ));
    }
    out.push_str("}\n");
}

/// Render `doc` as deterministic JSONL: a [`TRACE_SCHEMA`]-stamped
/// header line, then for each cell a `cell` line followed by its tick
/// lines (absolute time) and `summary` lines.
pub fn jsonl(doc: &TraceDoc) -> String {
    let mut out = String::new();
    out.push_str("{\"schema\": ");
    push_str(&mut out, TRACE_SCHEMA);
    out.push_str(", \"name\": ");
    push_str(&mut out, &doc.name);
    out.push_str(&format!(", \"cells\": {}, \"phases\": [", doc.cells.len()));
    for (i, p) in doc.phases.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str("{\"label\": ");
        push_str(&mut out, &p.label);
        out.push_str(&format!(", \"start\": {}, \"end\": {}}}", p.start, p.end));
    }
    out.push_str("]}\n");
    for c in &doc.cells {
        out.push_str("{\"cell\": {\"protocol\": ");
        push_str(&mut out, &c.protocol);
        out.push_str(&format!(
            ", \"seed\": {}, \"rep\": {}, \"window\": {}, \"offset\": {}, \"num_hosts\": {}, \
             \"ticks\": {}}}}}\n",
            c.seed,
            c.rep,
            c.window,
            c.offset,
            c.series.num_hosts,
            c.series.ticks.len()
        ));
        for s in &c.series.ticks {
            tick_line(&mut out, s, c.offset);
        }
        for s in &c.series.summaries {
            out.push_str(&format!(
                "{{\"summary\": {{\"t\": {}, \"active\": {}, \"mass\": ",
                c.offset + s.tick,
                s.active
            ));
            push_f64(&mut out, s.sketch_mass);
            out.push_str("}}\n");
        }
    }
    out
}

/// Render `doc` as Chrome trace-event JSON (the "JSON object format":
/// a `traceEvents` array). Load the file in Perfetto or
/// `chrome://tracing`; ticks map to microseconds.
///
/// Layout: pid 0 carries the phase spans; each cell gets its own pid
/// with a `process_name` metadata record, one complete (`X`) event
/// spanning its activity, and `alive` / `queue` / `wave` counter
/// tracks.
pub fn chrome(doc: &TraceDoc) -> String {
    let mut ev: Vec<String> = Vec::new();
    let mut meta = String::new();
    meta.push_str("{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": 0, ");
    meta.push_str("\"args\": {\"name\": ");
    push_str(&mut meta, &format!("phases: {}", doc.name));
    meta.push_str("}}");
    ev.push(meta);
    for p in &doc.phases {
        let mut e = String::new();
        e.push_str("{\"name\": ");
        push_str(&mut e, &p.label);
        e.push_str(&format!(
            ", \"cat\": \"phase\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": 0, \
             \"tid\": 0, \"args\": {{}}}}",
            p.start,
            p.end.saturating_sub(p.start)
        ));
        ev.push(e);
    }
    for (i, c) in doc.cells.iter().enumerate() {
        let pid = i + 1;
        let label = format!(
            "{} seed {} rep {} window {}",
            c.protocol, c.seed, c.rep, c.window
        );
        let mut m = String::new();
        m.push_str(&format!(
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": 0, \
             \"args\": {{\"name\": "
        ));
        push_str(&mut m, &label);
        m.push_str("}}");
        ev.push(m);
        let (first, last) = match (c.series.ticks.first(), c.series.ticks.last()) {
            (Some(f), Some(l)) => (c.offset + f.tick, c.offset + l.tick),
            _ => (c.offset, c.offset),
        };
        let mut span = String::new();
        span.push_str("{\"name\": ");
        push_str(&mut span, &c.protocol);
        span.push_str(&format!(
            ", \"cat\": \"cell\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": {pid}, \
             \"tid\": 0, \"args\": {{\"seed\": {}, \"rep\": {}, \"window\": {}, \
             \"dispatched\": {}, \"delivered\": {}, \"sent\": {}}}}}",
            first,
            last - first + 1,
            c.seed,
            c.rep,
            c.window,
            c.series.dispatched(),
            c.series.delivered(),
            c.series.sent()
        ));
        ev.push(span);
        for s in &c.series.ticks {
            let t = c.offset + s.tick;
            ev.push(format!(
                "{{\"name\": \"alive\", \"ph\": \"C\", \"ts\": {t}, \"pid\": {pid}, \
                 \"args\": {{\"alive\": {}}}}}",
                s.alive
            ));
            ev.push(format!(
                "{{\"name\": \"queue\", \"ph\": \"C\", \"ts\": {t}, \"pid\": {pid}, \
                 \"args\": {{\"depth\": {}}}}}",
                s.queue_depth
            ));
            ev.push(format!(
                "{{\"name\": \"wave\", \"ph\": \"C\", \"ts\": {t}, \"pid\": {pid}, \
                 \"args\": {{\"frontier\": {}, \"delivered\": {}, \"dropped\": {}}}}}",
                s.frontier, s.delivered, s.dropped
            ));
            // Overlay counter track only on ticks the maintenance
            // driver acted — overlay-free traces are unchanged.
            if s.overlay_added + s.overlay_removed + s.overlay_suspicions > 0 {
                ev.push(format!(
                    "{{\"name\": \"overlay\", \"ph\": \"C\", \"ts\": {t}, \"pid\": {pid}, \
                     \"args\": {{\"added\": {}, \"removed\": {}, \"suspicions\": {}}}}}",
                    s.overlay_added, s.overlay_removed, s.overlay_suspicions
                ));
            }
        }
    }
    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\": \"ms\", \"schema\": ");
    push_str(&mut out, TRACE_SCHEMA);
    out.push_str(", \"traceEvents\": [\n");
    for (i, e) in ev.iter().enumerate() {
        out.push_str("  ");
        out.push_str(e);
        if i + 1 < ev.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

/// Render `doc` as a plain-text per-phase summary table: one row per
/// phase span, aggregating every cell's samples that fall inside it.
pub fn summary(doc: &TraceDoc) -> String {
    // Without phases, synthesize one span covering all activity.
    let synthesized;
    let phases: &[PhaseSpan] = if doc.phases.is_empty() {
        let end = doc
            .cells
            .iter()
            .filter_map(|c| c.series.last_tick().map(|t| c.offset + t + 1))
            .max()
            .unwrap_or(1);
        synthesized = vec![PhaseSpan {
            label: "run".into(),
            start: 0,
            end,
        }];
        &synthesized
    } else {
        &doc.phases
    };
    let header = [
        "phase",
        "span",
        "samples",
        "dispatched",
        "delivered",
        "dropped",
        "sent",
        "fails",
        "joins",
        "ov_churn",
        "suspicions",
        "peak_frontier",
        "min_alive",
    ];
    let mut rows: Vec<Vec<String>> = Vec::new();
    for p in phases {
        let mut samples = 0u64;
        let mut dispatched = 0u64;
        let mut delivered = 0u64;
        let mut dropped = 0u64;
        let mut sent = 0u64;
        let mut fails = 0u64;
        let mut joins = 0u64;
        let mut ov_churn = 0u64;
        let mut suspicions = 0u64;
        let mut peak_frontier = 0u32;
        let mut min_alive: Option<u32> = None;
        for c in &doc.cells {
            for s in &c.series.ticks {
                let t = c.offset + s.tick;
                if t < p.start || t >= p.end {
                    continue;
                }
                samples += 1;
                dispatched += s.dispatched;
                delivered += s.delivered;
                dropped += s.dropped;
                sent += s.sent;
                fails += s.fails;
                joins += s.joins;
                ov_churn += s.overlay_added + s.overlay_removed;
                suspicions += s.overlay_suspicions;
                peak_frontier = peak_frontier.max(s.frontier);
                min_alive = Some(min_alive.map_or(s.alive, |m| m.min(s.alive)));
            }
        }
        rows.push(vec![
            p.label.clone(),
            format!("[{}, {})", p.start, p.end),
            samples.to_string(),
            dispatched.to_string(),
            delivered.to_string(),
            dropped.to_string(),
            sent.to_string(),
            fails.to_string(),
            joins.to_string(),
            ov_churn.to_string(),
            suspicions.to_string(),
            peak_frontier.to_string(),
            min_alive.map_or_else(|| "-".into(), |m| m.to_string()),
        ]);
    }
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = format!(
        "schema {TRACE_SCHEMA}  scenario {}  cells {}\n\n",
        doc.name,
        doc.cells.len()
    );
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, (c, w)) in cells.iter().zip(widths).enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(c);
            if i + 1 < cells.len() {
                for _ in c.len()..*w {
                    line.push(' ');
                }
            }
        }
        line.push('\n');
        line
    };
    let header_row: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_row, &widths));
    for row in &rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::SummarySample;

    fn sample(tick: u64, alive: u32) -> TickSample {
        TickSample {
            tick,
            alive,
            dispatched: 2,
            delivered: 1,
            sent: 3,
            frontier: 1,
            queue_depth: 4,
            ..TickSample::default()
        }
    }

    fn doc() -> TraceDoc {
        TraceDoc {
            name: "demo".into(),
            phases: vec![
                PhaseSpan {
                    label: "growth".into(),
                    start: 0,
                    end: 5,
                },
                PhaseSpan {
                    label: "stable".into(),
                    start: 5,
                    end: 10,
                },
            ],
            cells: vec![CellTrace {
                protocol: "WILDFIRE".into(),
                seed: 1,
                rep: 0,
                window: 2,
                offset: 4,
                series: TickSeries {
                    num_hosts: 16,
                    ticks: vec![sample(0, 16), sample(3, 15)],
                    summaries: vec![SummarySample {
                        tick: 0,
                        active: 7,
                        sketch_mass: 2.5,
                    }],
                },
            }],
        }
    }

    #[test]
    fn jsonl_is_schema_stamped_and_offsets_ticks() {
        let out = jsonl(&doc());
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5, "header + cell + 2 ticks + 1 summary");
        assert!(lines[0].contains("\"schema\": \"pov_trace/v1\""));
        assert!(lines[0].contains("\"label\": \"growth\""));
        assert!(lines[1].contains("\"protocol\": \"WILDFIRE\""));
        assert!(lines[1].contains("\"offset\": 4"));
        // Window-local tick 0 surfaces at absolute t=4.
        assert!(lines[2].contains("\"t\": 4"));
        assert!(lines[3].contains("\"t\": 7"));
        assert!(lines[4].contains("\"summary\": {\"t\": 4, \"active\": 7, \"mass\": 2.5}"));
    }

    #[test]
    fn exporters_are_deterministic() {
        let d = doc();
        assert_eq!(jsonl(&d), jsonl(&d));
        assert_eq!(chrome(&d), chrome(&d));
        assert_eq!(summary(&d), summary(&d));
    }

    #[test]
    fn chrome_carries_phases_cells_and_counters() {
        let out = chrome(&doc());
        assert!(out.contains("\"traceEvents\": ["));
        assert!(out.contains("\"name\": \"growth\""));
        assert!(out.contains("\"cat\": \"cell\""));
        assert!(out.contains("\"name\": \"alive\""));
        assert!(out.contains("\"name\": \"wave\""));
        // The cell's span starts at its first active absolute tick.
        assert!(out.contains("\"ts\": 4, \"dur\": 4"));
    }

    #[test]
    fn summary_aggregates_per_phase() {
        let out = summary(&doc());
        // Sample at t=4 lands in growth; t=7 in stable.
        let growth = out.lines().find(|l| l.starts_with("growth")).unwrap();
        let stable = out.lines().find(|l| l.starts_with("stable")).unwrap();
        assert!(growth.contains("[0, 5)"));
        assert!(growth.split_whitespace().any(|w| w == "16"), "min_alive 16");
        assert!(stable.contains("[5, 10)"));
        assert!(stable.split_whitespace().any(|w| w == "15"), "min_alive 15");
    }

    #[test]
    fn overlay_fields_appear_only_on_maintenance_ticks() {
        // Overlay-free documents render without the overlay keys at
        // all — schema-v1 byte identity for every existing scenario.
        let quiet = doc();
        assert!(!jsonl(&quiet).contains("ov_added"));
        assert!(!chrome(&quiet).contains("\"name\": \"overlay\""));

        let mut d = doc();
        d.cells[0].series.ticks[1].overlay_added = 2;
        d.cells[0].series.ticks[1].overlay_removed = 1;
        d.cells[0].series.ticks[1].overlay_suspicions = 3;
        let out = jsonl(&d);
        // Only the maintenance tick carries the keys.
        let tick_lines: Vec<&str> = out.lines().filter(|l| l.contains("\"t\": ")).collect();
        assert!(!tick_lines[0].contains("ov_added"));
        assert!(tick_lines[1].contains("\"ov_added\": 2, \"ov_removed\": 1, \"ov_suspicions\": 3"));
        assert!(chrome(&d).contains("\"args\": {\"added\": 2, \"removed\": 1, \"suspicions\": 3}"));
        // The per-phase summary aggregates churn and suspicions; the
        // maintenance tick (absolute t=7) lands in the stable phase.
        let stable = summary(&d)
            .lines()
            .find(|l| l.starts_with("stable"))
            .unwrap()
            .to_string();
        let cols: Vec<&str> = stable.split_whitespace().collect();
        assert_eq!(cols[cols.len() - 4], "3", "ov_churn column: {stable}");
        assert_eq!(cols[cols.len() - 3], "3", "suspicions column: {stable}");
    }

    #[test]
    fn summary_synthesizes_a_run_phase_when_none_given() {
        let mut d = doc();
        d.phases.clear();
        let out = summary(&d);
        let run = out.lines().find(|l| l.starts_with("run")).unwrap();
        assert!(run.contains("[0, 8)"), "covers through last tick: {run}");
    }
}
