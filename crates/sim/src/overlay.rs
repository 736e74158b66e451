//! The overlay-maintenance hook: edges that evolve *during* a run.
//!
//! The engine's base topology is a frozen CSR [`Graph`]. A maintained
//! overlay — partial views with shuffles, failure-detector evictions,
//! rejoining hosts attaching at new points — needs the edge set itself
//! to change while queries execute. The [`OverlayDriver`] trait is that
//! hook, symmetric with [`ChurnSource`](crate::ChurnSource):
//!
//! * the event loop polls the installed driver at the virtual instants
//!   it requests (first poll at time 0), handing it the same
//!   [`EngineView`](crate::EngineView) churn sources get — with the
//!   overlay's *current* merged edge set visible;
//! * the driver answers with the edge mutations to apply now
//!   ([`OverlayEvent`]); the engine applies them to an
//!   [`OverlayView`](pov_topology::OverlayView) layered over the base
//!   CSR and compacts the delta periodically;
//! * from that instant on, every neighbour read — protocol `Ctx`
//!   sends/broadcasts and churn-source views alike — serves the merged
//!   adjacency.
//!
//! Determinism discipline is identical to the churn and telemetry
//! hooks: polls are keyed by virtual tick only, the driver owns its own
//! seeded RNG (it never touches the engine's), and with no driver
//! installed every hook on the hot path collapses to a single `Option`
//! discriminant test — a run without an overlay is byte-identical to
//! one built before this module existed.

use crate::dynamic::EngineView;
use crate::time::Time;
use pov_topology::{Graph, HostId, OverlayView};

/// One edge mutation an [`OverlayDriver`] requests at the current
/// instant. Mutations are idempotent at the engine: adding a present
/// edge or removing an absent one is a no-op (and does not count in the
/// view-churn telemetry).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverlayEvent {
    /// Add the undirected overlay edge `(a, b)`.
    AddEdge(HostId, HostId),
    /// Remove the undirected overlay edge `(a, b)`.
    RemoveEdge(HostId, HostId),
}

/// Counters describing what an overlay-maintenance protocol did over a
/// run. The engine fills [`edges_added`](OverlayStats::edges_added) /
/// [`edges_removed`](OverlayStats::edges_removed) from the mutations it
/// actually applied; drivers report the protocol-level figures.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OverlayStats {
    /// Undirected edges added to the overlay (engine-applied).
    pub edges_added: u64,
    /// Undirected edges removed from the overlay (engine-applied).
    pub edges_removed: u64,
    /// Failure-detector probes issued (direct probes).
    pub probes: u64,
    /// Suspicions raised (a probe and its indirect fallbacks all went
    /// unanswered).
    pub suspicions: u64,
    /// Suspicions raised against a host that was in fact alive (the
    /// SWIM false-positive path; refuted before eviction).
    pub false_suspicions: u64,
    /// Confirmed-failed hosts evicted from the overlay (all incident
    /// edges dropped).
    pub evictions: u64,
    /// Hosts (re)attached at new points after joining or eviction.
    pub rejoins: u64,
    /// Passive-view shuffle rounds executed.
    pub shuffles: u64,
    /// Estimated maintenance-plane messages (probes, indirect probes,
    /// shuffle exchanges). Out-of-band accounting: not charged to the
    /// engine's query-protocol metrics.
    pub maintenance_msgs: u64,
}

/// An overlay-maintenance protocol polled by the event loop.
///
/// Within one instant, overlay polls run after the tick's failures,
/// joins and churn-source polls (the driver sees the instant's final
/// membership) and before message deliveries — a message already in
/// flight across a removed edge still arrives, like a packet on the
/// wire when a link goes down, but nothing new is sent over it.
pub trait OverlayDriver {
    /// Write the edge mutations to apply at `now` into `out` (cleared
    /// by the engine before the call; applied in `out` order). Called
    /// exactly once per polled instant. `view.neighbors(..)` serves the
    /// overlay's current merged adjacency.
    fn next_events(&mut self, now: Time, view: &EngineView<'_>, out: &mut Vec<OverlayEvent>);

    /// The next instant this driver wants to be polled, strictly after
    /// `now`; `None` once the driver is done (lets
    /// `run_to_quiescence` terminate).
    fn next_poll(&self, now: Time) -> Option<Time>;

    /// Protocol-level counters accumulated so far. The engine merges in
    /// the edge-mutation counts it applied when reporting
    /// [`Simulation::overlay_stats`](crate::Simulation::overlay_stats).
    fn stats(&self) -> OverlayStats {
        OverlayStats::default()
    }
}

/// The neighbour source handed to protocol [`Ctx`](crate::Ctx)
/// callbacks and polled [`EngineView`]s: the frozen CSR when no overlay
/// is maintained, the merged overlay view when one is. One
/// discriminant test per read — the static arm is exactly the
/// pre-overlay hot path.
#[derive(Clone, Copy)]
pub(crate) enum TopoRef<'a> {
    /// No overlay installed: read the CSR arena directly.
    Static(&'a Graph),
    /// Maintained overlay: read the merged delta view.
    Overlay(&'a OverlayView),
}

impl<'a> TopoRef<'a> {
    #[inline]
    pub fn neighbors(&self, h: HostId) -> &'a [HostId] {
        match self {
            TopoRef::Static(g) => g.neighbors(h),
            TopoRef::Overlay(v) => v.neighbors(h),
        }
    }

    #[inline]
    pub fn degree(&self, h: HostId) -> usize {
        match self {
            TopoRef::Static(g) => g.degree(h),
            TopoRef::Overlay(v) => v.degree(h),
        }
    }

    #[inline]
    pub fn has_edge(&self, a: HostId, b: HostId) -> bool {
        match self {
            TopoRef::Static(g) => g.has_edge(a, b),
            TopoRef::Overlay(v) => v.has_edge(a, b),
        }
    }
}

/// How large the overlay's add/remove delta may grow (in directed
/// half-edges) before the engine folds it back into a fresh CSR base.
/// Compaction is `O(|H| + |E|)`; the threshold amortizes it over at
/// least that many mutations on big graphs while keeping small test
/// graphs compacting eagerly enough to exercise the path.
pub(crate) fn compact_threshold(num_hosts: usize) -> usize {
    num_hosts.max(64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pov_topology::GraphBuilder;

    fn chain(n: usize) -> Graph {
        let mut b = GraphBuilder::with_hosts(n);
        for i in 0..n - 1 {
            b.add_edge(HostId(i as u32), HostId(i as u32 + 1));
        }
        b.build()
    }

    #[test]
    fn topo_ref_static_and_overlay_agree_until_mutation() {
        let g = chain(4);
        let mut v = OverlayView::new(g.clone());
        assert_eq!(
            TopoRef::Static(&g).neighbors(HostId(1)),
            TopoRef::Overlay(&v).neighbors(HostId(1)),
        );
        v.add_edge(HostId(0), HostId(3));
        let t = TopoRef::Overlay(&v);
        assert_eq!(t.neighbors(HostId(0)), &[HostId(1), HostId(3)]);
        assert_eq!(t.degree(HostId(0)), 2);
        assert_eq!(TopoRef::Static(&g).degree(HostId(0)), 1);
    }

    #[test]
    fn default_driver_stats_are_zero() {
        struct Noop;
        impl OverlayDriver for Noop {
            fn next_events(&mut self, _: Time, _: &EngineView<'_>, _: &mut Vec<OverlayEvent>) {}
            fn next_poll(&self, _: Time) -> Option<Time> {
                None
            }
        }
        assert_eq!(Noop.stats(), OverlayStats::default());
    }

    #[test]
    fn compact_threshold_scales_with_hosts() {
        assert_eq!(compact_threshold(10), 64);
        assert_eq!(compact_threshold(10_000), 10_000);
    }
}
