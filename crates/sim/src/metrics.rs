//! The §6.3 efficiency measures.
//!
//! * **Communication cost** — total messages sent between host pairs.
//!   Under the radio medium one transmission to all neighbours counts as
//!   a single message (§5.3, Grid experiments).
//! * **Computation cost** — messages *processed* per host; the protocol's
//!   computation cost is the maximum over hosts (Fig 12 plots the whole
//!   distribution).
//! * **Time cost** — the instant `hq` declares its result, which the
//!   run's outcome reads from the protocol, not from these counters.
//!
//! Messages sent at each instant (Fig 13b) are the `sent` of the
//! engine's tick samples ([`TickSample`](crate::TickSample)), which a
//! [`TelemetrySink`](crate::TelemetrySink) receives during the run.

use pov_topology::HostId;
use serde::{Deserialize, Serialize};

/// Cost counters collected during a run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Metrics {
    /// Total messages sent (communication cost).
    pub messages_sent: u64,
    /// Messages processed per host (computation cost distribution).
    /// `u32` halves the dominant per-host buffer (4 MiB saved at
    /// n = 10⁶); no host plausibly processes 4 × 10⁹ messages in one
    /// run (the increment site debug-asserts it).
    pub processed_per_host: Vec<u32>,
    /// Timer events fired (not part of any paper metric; useful for
    /// sanity checks).
    pub timers_fired: u64,
    /// Total events dispatched by the engine loop (fails, joins,
    /// deliveries, timers, churn polls). Not a paper metric — it is the
    /// denominator-free throughput counter `repro bench`'s host-count
    /// ladder divides by wall time to get events/sec.
    pub events_dispatched: u64,
}

impl Metrics {
    /// Fresh counters over `num_hosts` hosts.
    pub(crate) fn with_hosts(num_hosts: usize) -> Self {
        Metrics {
            processed_per_host: vec![0; num_hosts],
            ..Metrics::default()
        }
    }

    pub(crate) fn record_dispatch(&mut self) {
        self.events_dispatched += 1;
    }

    /// Account for `n` messages sent.
    #[inline]
    pub(crate) fn record_sends(&mut self, n: u64) {
        self.messages_sent += n;
    }

    pub(crate) fn record_processed(&mut self, host: HostId) {
        let slot = &mut self.processed_per_host[host.index()];
        debug_assert!(*slot < u32::MAX, "per-host processed count overflow");
        *slot += 1;
    }

    pub(crate) fn record_timer(&mut self) {
        self.timers_fired += 1;
    }

    /// The protocol's computation cost: max messages processed at any
    /// single host (§6.3).
    pub fn computation_cost(&self) -> u64 {
        u64::from(self.processed_per_host.iter().copied().max().unwrap_or(0))
    }

    /// Total messages processed across all hosts.
    pub fn total_processed(&self) -> u64 {
        self.processed_per_host.iter().map(|&c| u64::from(c)).sum()
    }

    /// Histogram for Fig 12: `hist[c]` = number of hosts that processed
    /// exactly `c` messages.
    pub fn computation_histogram(&self) -> Vec<u64> {
        let max = self.computation_cost() as usize;
        let mut hist = vec![0u64; max + 1];
        for &c in &self.processed_per_host {
            hist[c as usize] += 1;
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_accounting() {
        let mut m = Metrics::with_hosts(3);
        m.record_sends(1);
        m.record_sends(0);
        m.record_sends(2);
        assert_eq!(m.messages_sent, 3);
    }

    #[test]
    fn processed_accounting() {
        let mut m = Metrics::with_hosts(3);
        m.record_processed(HostId(1));
        m.record_processed(HostId(1));
        m.record_processed(HostId(2));
        assert_eq!(m.processed_per_host, vec![0, 2, 1]);
        assert_eq!(m.computation_cost(), 2);
        assert_eq!(m.total_processed(), 3);
    }

    #[test]
    fn histogram() {
        let mut m = Metrics::with_hosts(4);
        m.record_processed(HostId(0));
        m.record_processed(HostId(0));
        m.record_processed(HostId(1));
        let hist = m.computation_histogram();
        // host0: 2 msgs, host1: 1 msg, hosts 2,3: 0 msgs.
        assert_eq!(hist, vec![2, 1, 1]);
    }

    #[test]
    fn empty_metrics() {
        let m = Metrics::with_hosts(0);
        assert_eq!(m.computation_cost(), 0);
        assert_eq!(m.computation_histogram(), vec![0]);
    }
}
