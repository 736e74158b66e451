//! The flight recorder: a bounded ring of the last N active ticks.
//!
//! Soak and regression-gate failures are only debuggable if the run's
//! final moments survive the crash. The harness attaches a
//! [`FlightRecorder`] to a deterministic *replay* of the breaching
//! workload (never to the measured run — recording would perturb the
//! throughput being judged), then writes [`FlightRecorder::dump`] next
//! to the failure report.

use crate::export::tick_line;
use crate::fmt::push_str;
use crate::FLIGHT_SCHEMA;
use pov_sim::{TelemetrySink, TickSample};
use std::collections::VecDeque;

/// A [`TelemetrySink`] retaining only the last `window` active ticks.
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    window: usize,
    ring: VecDeque<TickSample>,
    ticks_seen: u64,
    num_hosts: usize,
}

impl FlightRecorder {
    /// A recorder keeping the last `window` active ticks (at least 1).
    pub fn new(window: usize) -> Self {
        let window = window.max(1);
        FlightRecorder {
            window,
            ring: VecDeque::with_capacity(window),
            ticks_seen: 0,
            num_hosts: 0,
        }
    }

    /// Active ticks observed over the whole run (≥ the retained count).
    pub fn ticks_seen(&self) -> u64 {
        self.ticks_seen
    }

    /// The retained samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &TickSample> {
        self.ring.iter()
    }

    /// Number of retained samples (≤ the window).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Serialize the retained window as deterministic JSONL: a header
    /// line stamped with [`FLIGHT_SCHEMA`], the breached `workload`
    /// name and the breach `reason`, then one line per retained tick
    /// (oldest first).
    pub fn dump(&self, workload: &str, reason: &str) -> String {
        let mut out = String::new();
        out.push_str("{\"schema\": ");
        push_str(&mut out, FLIGHT_SCHEMA);
        out.push_str(", \"workload\": ");
        push_str(&mut out, workload);
        out.push_str(", \"reason\": ");
        push_str(&mut out, reason);
        out.push_str(&format!(
            ", \"num_hosts\": {}, \"window\": {}, \"ticks_seen\": {}, \"retained\": {}}}\n",
            self.num_hosts,
            self.window,
            self.ticks_seen,
            self.ring.len()
        ));
        for s in &self.ring {
            tick_line(&mut out, s, 0);
        }
        out
    }
}

impl TelemetrySink for FlightRecorder {
    fn on_run_start(&mut self, num_hosts: usize) {
        self.num_hosts = num_hosts;
    }

    fn on_tick(&mut self, sample: &TickSample) {
        if self.ring.len() == self.window {
            self.ring.pop_front();
        }
        self.ring.push_back(*sample);
        self.ticks_seen += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(t: u64) -> TickSample {
        TickSample {
            tick: t,
            dispatched: 1,
            ..TickSample::default()
        }
    }

    #[test]
    fn ring_keeps_only_the_last_window() {
        let mut fr = FlightRecorder::new(3);
        for t in 0..10 {
            fr.on_tick(&tick(t));
        }
        assert_eq!(fr.ticks_seen(), 10);
        assert_eq!(fr.len(), 3);
        let kept: Vec<u64> = fr.samples().map(|s| s.tick).collect();
        assert_eq!(kept, vec![7, 8, 9]);
    }

    #[test]
    fn dump_is_schema_stamped_jsonl() {
        let mut fr = FlightRecorder::new(2);
        fr.on_run_start(50);
        fr.on_tick(&tick(4));
        fr.on_tick(&tick(5));
        fr.on_tick(&tick(6));
        let dump = fr.dump("lifecycle_wildfire", "throughput floor");
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 3, "header + 2 retained ticks");
        assert!(lines[0].contains("\"schema\": \"flight_recorder/v1\""));
        assert!(lines[0].contains("\"workload\": \"lifecycle_wildfire\""));
        assert!(lines[0].contains("\"ticks_seen\": 3"));
        assert!(lines[0].contains("\"retained\": 2"));
        assert!(lines[1].contains("\"t\": 5"));
        assert!(lines[2].contains("\"t\": 6"));
        assert!(dump.ends_with('\n'));
    }

    #[test]
    fn zero_window_is_clamped() {
        let mut fr = FlightRecorder::new(0);
        fr.on_tick(&tick(1));
        fr.on_tick(&tick(2));
        assert_eq!(fr.len(), 1);
        assert_eq!(fr.samples().next().unwrap().tick, 2);
    }
}
