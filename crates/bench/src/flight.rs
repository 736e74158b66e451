//! Post-hoc flight-recorder dumps for breached soak limits.
//!
//! When `repro soak` trips a limit, the breach line alone is a dead end
//! — the question is what the engine was *doing* at the end of the
//! run. This module re-runs the breaching workload deterministically
//! (same seeds, same plans, so the replay IS the run that breached)
//! with a [`FlightRecorder`] attached, and writes its last-N-ticks ring
//! next to the failure as `FLIGHT_<workload>.jsonl`, stamped with
//! [`pov_telemetry::FLIGHT_SCHEMA`].
//!
//! The recorder is never attached to the measured run itself: the
//! timed run stays telemetry-free, and the replay only happens on the
//! failure path, where wall-clock no longer matters.

use crate::engine_bench::BenchMode;
use crate::soak;
use pov_core::judged::window_local_plans;
use pov_core::pov_protocols::runner;
use pov_telemetry::FlightRecorder;
use std::path::{Path, PathBuf};

/// Ring size of breach replays, in active ticks. Matches the
/// `[telemetry]` scenario section's `flight_window` default: enough to
/// span several continuous windows of context before the end of the
/// run, small enough that a dump stays a few tens of kilobytes.
pub const WINDOW: usize = 256;

/// Replay the named soak workload with a [`FlightRecorder`] and return
/// the dump text, or `None` when no such workload exists at `mode`.
/// The replay drives the identical window-local plans `judged_plan`
/// executed (minus the oracle, which never touches the engine), so the
/// retained ring shows the final windows of the breaching simulation.
/// Retained tick keys are window-local.
pub fn replay_soak(mode: BenchMode, name: &str, reason: &str) -> Option<String> {
    let workloads = soak::workloads(mode);
    let w = workloads.iter().find(|w| w.name == name)?;
    let s = soak::setup(w);
    let mut rec = FlightRecorder::new(WINDOW);
    for (_, local) in window_local_plans(&s.graph, &s.plan) {
        let _ = runner::run_with(s.protocol, &s.graph, &s.values, &local, Some(&mut rec));
    }
    Some(rec.dump(name, reason))
}

/// Replay every soak workload named by `breaches` (the
/// `(workload, reason)` pairs of [`soak::assert_limits`], which reports
/// a workload's breaches together) and write one
/// `FLIGHT_<workload>.jsonl` per breached workload into `dir`, its
/// header carrying all of that workload's reasons. Returns the paths
/// written.
pub fn write_soak_dumps(
    mode: BenchMode,
    breaches: &[(&'static str, String)],
    dir: &Path,
) -> Vec<PathBuf> {
    let mut written = Vec::new();
    for group in breaches.chunk_by(|a, b| a.0 == b.0) {
        let name = group[0].0;
        let reasons: Vec<&str> = group.iter().map(|(_, reason)| reason.as_str()).collect();
        let Some(dump) = replay_soak(mode, name, &reasons.join("; ")) else {
            continue;
        };
        let path = dir.join(format!("FLIGHT_{name}.jsonl"));
        match std::fs::write(&path, dump) {
            Ok(()) => written.push(path),
            Err(e) => eprintln!("failed to write {}: {e}", path.display()),
        }
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soak::{assert_limits, SoakResult};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pov_flight_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    #[test]
    fn soak_floor_breach_produces_a_schema_stamped_dump() {
        // Force the quick soak's RSS ceiling: a result whose high-water
        // mark sits past `max_rss_kb(Quick)` makes the limit check
        // report a breach — exactly what a leaking run would.
        let breached = SoakResult {
            name: "lifecycle_wildfire",
            n: 300,
            horizon_ticks: 10_000,
            windows: 500,
            judged_windows: 500,
            events: 1_000_000,
            messages: 900_000,
            declared_fraction: 1.0,
            wall_ms: 100.0,
            events_per_sec: 1.0e7,
            ticks_per_sec: 1.0e5,
            peak_rss_kb: Some(soak::max_rss_kb(BenchMode::Quick) + 1),
        };
        let failures = assert_limits(&[breached], BenchMode::Quick);
        assert_eq!(failures.len(), 1, "{failures:?}");

        let dir = temp_dir("soak");
        let paths = write_soak_dumps(BenchMode::Quick, &failures, &dir);
        assert_eq!(paths.len(), 1);
        assert!(paths[0].ends_with("FLIGHT_lifecycle_wildfire.jsonl"));

        let dump = std::fs::read_to_string(&paths[0]).expect("dump readable");
        let lines: Vec<&str> = dump.lines().collect();
        assert!(
            lines.len() > 1 && lines.len() <= 1 + WINDOW,
            "header plus at most WINDOW retained ticks, got {}",
            lines.len()
        );
        let header = lines[0];
        assert!(
            header.contains("\"schema\": \"flight_recorder/v1\""),
            "{header}"
        );
        assert!(
            header.contains("\"workload\": \"lifecycle_wildfire\""),
            "{header}"
        );
        assert!(header.contains("peak RSS"), "{header}");
        assert!(header.contains("\"num_hosts\": 300"), "{header}");
        for line in &lines[1..] {
            assert!(line.starts_with("{\"t\": "), "malformed tick line: {line}");
            assert!(line.ends_with('}'), "malformed tick line: {line}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
