//! Engine telemetry hooks: a zero-overhead-when-disabled event sink.
//!
//! Every future perf or robustness PR needs to *see* what happens
//! inside a wave — which ticks carry the frontier, where deliveries die
//! on a cut, how churn eats the alive set — without perturbing the
//! determinism contract. The [`TelemetrySink`] trait is that tap: the
//! engine calls it at tick boundaries (and, on request, with periodic
//! protocol-state samples), and when no sink is installed every hook
//! collapses to a single `Option` discriminant test on the hot path.
//!
//! Two invariants the engine guarantees to every sink:
//!
//! * **Virtual time only.** Samples are keyed by the simulation tick,
//!   never by wall clock, so recorded series are a pure function of the
//!   run's seeds — byte-identical across machines and thread counts.
//! * **No behavioural feedback.** Sinks observe; they cannot send,
//!   schedule, or touch the run's RNG. A run with a sink attached
//!   produces the identical trace, metrics and declared values as one
//!   without.

use crate::time::Time;

/// Aggregated engine activity for one *active* tick (a tick during
/// which at least one event dispatched). Quiet ticks produce no sample
/// — consumers reconstruct gaps from the `tick` key.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TickSample {
    /// The tick being closed out.
    pub tick: u64,
    /// Hosts alive at the end of the tick.
    pub alive: u32,
    /// Events still pending in the queue at the end of the tick.
    pub queue_depth: u64,
    /// Events dispatched during the tick (all payload kinds).
    pub dispatched: u64,
    /// Messages delivered to an alive host during the tick.
    pub delivered: u64,
    /// Messages lost during the tick (dead destination or an active
    /// partition cut).
    pub dropped: u64,
    /// Messages sent by protocol logic during the tick.
    pub sent: u64,
    /// Hosts that transitioned alive → failed during the tick
    /// (scheduled churn and dynamic churn-source kills alike).
    pub fails: u64,
    /// Hosts that transitioned failed → alive during the tick.
    pub joins: u64,
    /// Timers fired during the tick.
    pub timers: u64,
    /// Wave frontier: *distinct* hosts that processed at least one
    /// delivery during the tick.
    pub frontier: u32,
    /// Overlay edges added by the maintenance driver during the tick
    /// (engine-applied; idempotent no-ops excluded). Zero without an
    /// [`OverlayDriver`](crate::OverlayDriver) installed.
    pub overlay_added: u64,
    /// Overlay edges removed by the maintenance driver during the tick.
    pub overlay_removed: u64,
    /// Failure-detector suspicions the overlay driver raised during the
    /// tick.
    pub overlay_suspicions: u64,
}

/// A passive observer of engine activity. All methods have no-op
/// defaults, so a sink implements only the hooks it cares about.
///
/// Attach one with [`SimBuilder::telemetry`](crate::SimBuilder::telemetry).
/// The engine borrows the sink mutably for the simulation's lifetime;
/// the caller keeps ownership and reads the recording afterwards.
pub trait TelemetrySink {
    /// Called once at build time, before any event fires, with the
    /// number of simulated hosts.
    fn on_run_start(&mut self, num_hosts: usize) {
        let _ = num_hosts;
    }

    /// Called when an active tick closes (virtual time advances past it
    /// or the run ends).
    fn on_tick(&mut self, sample: &TickSample);

    /// How often, in ticks, the sink wants a protocol-state summary
    /// sample ([`on_summary`](TelemetrySink::on_summary)). `None`
    /// (default) disables summary sampling; sampling walks every host's
    /// [`NodeLogic::summary`](crate::NodeLogic::summary), an `O(hosts)`
    /// scan per sample.
    fn summary_every(&self) -> Option<u64> {
        None
    }

    /// A protocol-state sample: how many hosts report an active query
    /// and the total sketch mass ([`StateSummary::sketch_weight`]
    /// summed in ascending host order — deterministic) they carry.
    ///
    /// [`StateSummary::sketch_weight`]: crate::StateSummary::sketch_weight
    fn on_summary(&mut self, at: Time, active: u32, sketch_mass: f64) {
        let _ = (at, active, sketch_mass);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_hooks_are_noops() {
        struct Minimal(u64);
        impl TelemetrySink for Minimal {
            fn on_tick(&mut self, s: &TickSample) {
                self.0 += s.dispatched;
            }
        }
        let mut m = Minimal(0);
        m.on_run_start(10);
        m.on_summary(Time(3), 1, 2.0);
        assert_eq!(m.summary_every(), None);
        m.on_tick(&TickSample {
            dispatched: 4,
            ..TickSample::default()
        });
        assert_eq!(m.0, 4);
    }
}
