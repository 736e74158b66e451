//! The per-tick time-series recorder: a [`TelemetrySink`] that keeps
//! everything the engine reports, in order.

use pov_sim::{TelemetrySink, TickSample, Time};

/// One protocol-state sample (taken every
/// [`TelemetrySink::summary_every`] ticks when enabled).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SummarySample {
    /// Tick the sample was taken at.
    pub tick: u64,
    /// Hosts reporting an active query.
    pub active: u32,
    /// Total sketch mass across alive hosts (ascending host order sum —
    /// deterministic).
    pub sketch_mass: f64,
}

/// The complete recording of one simulation run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TickSeries {
    /// Hosts in the simulated network.
    pub num_hosts: usize,
    /// One sample per *active* tick, in strictly increasing tick order.
    /// Quiet ticks are absent.
    pub ticks: Vec<TickSample>,
    /// Periodic protocol-state samples (empty unless summary sampling
    /// was requested).
    pub summaries: Vec<SummarySample>,
}

impl TickSeries {
    /// Total events dispatched across the recording.
    pub fn dispatched(&self) -> u64 {
        self.ticks.iter().map(|s| s.dispatched).sum()
    }

    /// Total messages delivered across the recording.
    pub fn delivered(&self) -> u64 {
        self.ticks.iter().map(|s| s.delivered).sum()
    }

    /// Total messages sent across the recording.
    pub fn sent(&self) -> u64 {
        self.ticks.iter().map(|s| s.sent).sum()
    }

    /// The widest wave frontier seen in any single tick.
    pub fn peak_frontier(&self) -> u32 {
        self.ticks.iter().map(|s| s.frontier).max().unwrap_or(0)
    }

    /// Last active tick of the recording (`None` when nothing happened).
    pub fn last_tick(&self) -> Option<u64> {
        self.ticks.last().map(|s| s.tick)
    }
}

/// A [`TelemetrySink`] that records the full per-tick time series of a
/// run. Attach with `SimBuilder::telemetry(&mut recorder)`, run, then
/// take the recording with [`TickRecorder::finish`].
#[derive(Clone, Debug, Default)]
pub struct TickRecorder {
    series: TickSeries,
    summary_every: Option<u64>,
}

impl TickRecorder {
    /// A recorder that keeps tick samples but takes no protocol-state
    /// summaries.
    pub fn new() -> Self {
        TickRecorder::default()
    }

    /// A recorder that additionally samples protocol state (active
    /// hosts, sketch mass) every `every` ticks. Each sample is an
    /// `O(hosts)` scan inside the engine.
    pub fn with_summary_every(every: u64) -> Self {
        TickRecorder {
            series: TickSeries::default(),
            summary_every: Some(every.max(1)),
        }
    }

    /// Consume the recorder and return the recording.
    pub fn finish(self) -> TickSeries {
        self.series
    }

    /// Borrow the recording so far.
    pub fn series(&self) -> &TickSeries {
        &self.series
    }
}

impl TelemetrySink for TickRecorder {
    fn on_run_start(&mut self, num_hosts: usize) {
        self.series.num_hosts = num_hosts;
    }

    fn on_tick(&mut self, sample: &TickSample) {
        self.series.ticks.push(*sample);
    }

    fn summary_every(&self) -> Option<u64> {
        self.summary_every
    }

    fn on_summary(&mut self, at: Time, active: u32, sketch_mass: f64) {
        self.series.summaries.push(SummarySample {
            tick: at.ticks(),
            active,
            sketch_mass,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(tick: u64, dispatched: u64, frontier: u32) -> TickSample {
        TickSample {
            tick,
            dispatched,
            frontier,
            delivered: dispatched / 2,
            sent: dispatched,
            ..TickSample::default()
        }
    }

    #[test]
    fn recorder_accumulates_in_order() {
        let mut r = TickRecorder::with_summary_every(4);
        r.on_run_start(64);
        r.on_tick(&sample(0, 4, 2));
        r.on_tick(&sample(3, 6, 5));
        r.on_summary(Time(0), 10, 1.5);
        assert_eq!(r.summary_every(), Some(4));
        let s = r.finish();
        assert_eq!(s.num_hosts, 64);
        assert_eq!(s.dispatched(), 10);
        assert_eq!(s.delivered(), 5);
        assert_eq!(s.sent(), 10);
        assert_eq!(s.peak_frontier(), 5);
        assert_eq!(s.last_tick(), Some(3));
        assert_eq!(
            s.summaries,
            vec![SummarySample {
                tick: 0,
                active: 10,
                sketch_mass: 1.5
            }]
        );
    }

    #[test]
    fn empty_series_aggregates_to_zero() {
        let s = TickRecorder::new().finish();
        assert_eq!(s.dispatched(), 0);
        assert_eq!(s.peak_frontier(), 0);
        assert_eq!(s.last_tick(), None);
    }

    #[test]
    fn summary_interval_is_clamped_to_one() {
        assert_eq!(TickRecorder::with_summary_every(0).summary_every(), Some(1));
    }
}
