//! Discrete-event simulator for dynamic networks, implementing the
//! *relaxed asynchronous model* of §3.1 of *"The Price of Validity in
//! Dynamic Networks"* (Bawa et al.): known bounded message delay `δ`,
//! reliable in-order delivery to alive neighbours, and hosts that fail
//! (leave) at arbitrary times (§3.2).
//!
//! Key pieces:
//!
//! * [`Simulation`] — the event loop. Protocol code implements
//!   [`NodeLogic`]; one logic instance runs per host and interacts with
//!   the world only through [`Ctx`] (send / broadcast / timers), which
//!   keeps every run a pure function of its seeds.
//! * [`Medium`] — point-to-point (P2P overlay, §3.1 Example 3.1) or
//!   radio (sensor network: one transmission reaches all neighbours at
//!   the cost of a single message, §5.3).
//! * [`ChurnPlan`] — the §6.2 dynamism model (`R` uniformly random hosts
//!   fail at a uniform rate over an interval, plus optional host joins)
//!   and richer regimes beyond the paper: flash-crowd join bursts,
//!   correlated cluster failures, adversarial root-neighbourhood kills.
//! * [`ChurnSource`] — *dynamic* churn decided during the run: the
//!   event loop polls the source each announced instant with an
//!   [`EngineView`] (alive flags, and each host's protocol state summary
//!   read from its [`NodeLogic::summary`] on request), which is what
//!   adaptive adversaries such as the sketch-targeting
//!   [`SketchAdversary`] need. A [`ChurnPlan`] is not a source: the
//!   builder pre-pushes its events.
//! * [`OverlayDriver`] — overlay *maintenance* decided during the run:
//!   the event loop polls the installed driver like a churn source and
//!   applies the edge mutations it answers with to a mutable
//!   [`OverlayView`](pov_topology::OverlayView) layered over the base
//!   CSR, so partial-view membership protocols can rewire the topology
//!   protocols route over while queries execute.
//! * [`PartitionPlan`] — temporary cuts severing cross-partition
//!   messages for a window, then healing (disconnection without
//!   departure).
//! * [`PhaseSchedule`] — long-horizon membership regimes (growth →
//!   stable → shrink → partition → heal over 10⁴+ ticks) scripted as
//!   phases and lowered to the `ChurnPlan`/`PartitionPlan` primitives
//!   above; the scenario `[phases]` grammar compiles through it.
//! * [`Metrics`] — the §6.3 cost counters: messages sent
//!   (communication cost) and messages processed per host (computation
//!   cost); per-tick message counts (Fig 13b) are the tick samples a
//!   [`TelemetrySink`] receives.
//! * [`Trace`] — timestamped join/fail record consumed by the oracle to
//!   compute the Single-Site-Validity bounds `HC`/`HU`.
//!
//! Time is measured in ticks of `δ`: a message sent at `t` to an alive
//! neighbour arrives at `t + d` with `1 ≤ d ≤ delay_bound` (default 1).
//!
//! The hot path is engineered for batch sweeps: the event loop runs on
//! a bucketed calendar queue (O(1) push/pop; ordering invariants
//! documented in `event.rs`, equivalence to the original binary heap
//! property-tested) and [`SimBuilder::over`] borrows a topology so a
//! thousand cells share one CSR neighbour arena. Everything else a run
//! uses — host-indexed vectors, queue storage, scratch — is owned by its
//! [`Simulation`] and freed with it.

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![deny(missing_docs)]

mod churn;
mod ctx;
mod delay;
mod dynamic;
mod engine;
mod event;
mod metrics;
mod node;
mod overlay;
pub mod phase;
mod prefetch;
mod sink;
mod time;
mod trace;

pub use churn::{share, ChurnPlan};
pub use ctx::Ctx;
pub use delay::{DelayModel, PartitionPlan};
pub use dynamic::{ChurnEvent, ChurnSource, EngineView, SketchAdversary, StateSummary};
pub use engine::{Medium, SimBuilder, Simulation};
pub use event::wire_entry_bytes;
pub use metrics::Metrics;
pub use node::NodeLogic;
pub use overlay::{OverlayDriver, OverlayEvent, OverlayStats};
pub use phase::{LoweredSchedule, Phase, PhaseKind, PhaseSchedule};
pub use sink::{TelemetrySink, TickSample};
pub use time::Time;
pub use trace::{Trace, TraceEvent};

#[cfg(test)]
mod smoke {
    use super::*;
    use pov_topology::generators::special;
    use pov_topology::HostId;

    /// Ten hosts on a cycle forward one token each; one host fails.
    struct Forward {
        seen: bool,
    }

    impl NodeLogic for Forward {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            if ctx.me() == HostId(0) {
                self.seen = true;
                ctx.broadcast(());
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, ()>, from: HostId, _: ()) {
            if !self.seen {
                self.seen = true;
                ctx.broadcast_except(Some(from), ());
            }
        }
    }

    #[test]
    fn crate_root_smoke() {
        let churn = ChurnPlan::none().with_failure(Time(2), HostId(5));
        let mut sim = SimBuilder::new(special::cycle(10))
            .churn(churn)
            .build(|_| Forward { seen: false });
        sim.run_to_quiescence(10_000);
        assert_eq!(sim.num_alive(), 9);
        assert!(sim.metrics().messages_sent > 0);
        assert_eq!(sim.trace().events.len(), 1);
    }
}
