//! The protocol-side interface: one [`NodeLogic`] instance per host.

use crate::dynamic::StateSummary;
use crate::Ctx;
use pov_topology::HostId;

/// Behaviour of a single host. Implementations hold all per-host protocol
/// state; the only way to affect the world is through the [`Ctx`] passed
/// into each callback, which keeps runs deterministic and replayable.
pub trait NodeLogic: Sized {
    /// The protocol's message type.
    type Msg: Clone + std::fmt::Debug;

    /// Called once when the host becomes part of the running network: at
    /// simulation start for initially-alive hosts, or at join time.
    /// Typically only the querying host does anything here (it initiates
    /// the Broadcast phase, §4.1).
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        let _ = ctx;
    }

    /// Called when a message from neighbour `from` is delivered.
    fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg>, from: HostId, msg: Self::Msg);

    /// Called when a timer previously set with [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg>, key: u32) {
        let _ = (ctx, key);
    }

    /// Observable protocol state for dynamic churn sources
    /// ([`ChurnSource`](crate::ChurnSource)): a protocol-state-aware
    /// adversary sees exactly what this returns, nothing more. The
    /// default exposes nothing (inactive, no sketch weight), which
    /// keeps oblivious sources oblivious; protocol nodes override it.
    /// The engine calls it when a source asks (and for telemetry
    /// samples), also on failed hosts, so it must be side-effect free.
    fn summary(&self) -> StateSummary {
        StateSummary::default()
    }
}
