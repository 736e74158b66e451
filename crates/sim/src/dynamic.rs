//! Dynamic churn sources: dynamism decided *during* the run.
//!
//! A pre-materialized [`ChurnPlan`](crate::ChurnPlan) fixes every
//! failure and join before the first event fires, which is exactly the
//! §6.2 oblivious-adversary model — and exactly what an *adaptive*
//! adversary is not. The [`ChurnSource`] trait inverts the flow: the
//! event loop polls the source at instants of its choosing, handing it
//! an [`EngineView`] of the live run (alive flags, each host's protocol
//! state summary on request), and the source answers with the
//! membership changes to apply *now*. Casteigts' taxonomy of
//! dynamic-network classes puts worst-case adaptive schedules strictly
//! above random churn; this is the hook that makes them expressible.
//!
//! A [`ChurnPlan`](crate::ChurnPlan) is not a source:
//! `SimBuilder::churn` pre-pushes its events into the queue before the
//! run starts, and that is the only way a plan runs. One source ships
//! with the crate: [`SketchAdversary`], the protocol-state-aware
//! attacker. Each wave it kills the `k` alive hosts whose current
//! partials hold the FM sketch maxima, under a fixed total event budget
//! so runs are comparable to
//! [`ChurnPlan::uniform_failures`](crate::ChurnPlan::uniform_failures)
//! at equal cost.

use crate::overlay::TopoRef;
use crate::time::Time;
use pov_topology::{Graph, HostId};

/// A host's observable protocol state, as exposed to [`ChurnSource`]s
/// through [`EngineView`]. Protocol crates fill it in via
/// [`NodeLogic::summary`](crate::NodeLogic::summary) (the default is
/// [`StateSummary::default`]: inactive, nothing observable).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StateSummary {
    /// Whether the host currently participates in an active query.
    pub active: bool,
    /// Scalar "height" of the host's current partial aggregate — for
    /// FM-sketched aggregates the sketch's own estimate (the mass its
    /// accumulated bit maxima induce), for exact ones a value-derived
    /// proxy. Higher means the host carries more of the answer; `None`
    /// means nothing observable (not yet activated).
    pub sketch_weight: Option<f64>,
}

/// One membership change a [`ChurnSource`] requests at the current
/// instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnEvent {
    /// Kill the host (no-op if already dead).
    Fail(HostId),
    /// Revive the host (no-op if already alive).
    Join(HostId),
}

/// The engine state a [`ChurnSource`] (or an
/// [`OverlayDriver`](crate::OverlayDriver)) may inspect when polled.
/// This is the adaptive adversary's entire sensorium: topology, the
/// omniscient alive flags, and whatever each host's protocol chose to
/// expose through [`EngineView::summary`].
pub struct EngineView<'a> {
    /// Current virtual time.
    pub now: Time,
    /// The *base* topology (the CSR the simulation was built over).
    /// Prefer the accessor methods ([`EngineView::neighbors`] and
    /// friends), which serve a maintained overlay's current merged
    /// adjacency when there is one.
    pub graph: &'a Graph,
    /// Omniscient alive flags, indexed by host.
    pub alive: &'a [bool],
    /// The neighbour source protocols read: the overlay or the base CSR.
    pub(crate) topo: TopoRef<'a>,
    /// Reads a host's summary from its logic at call time.
    pub(crate) read_summary: &'a dyn Fn(HostId) -> StateSummary,
}

impl<'a> EngineView<'a> {
    /// `h`'s protocol state summary
    /// ([`NodeLogic::summary`](crate::NodeLogic::summary)), read from
    /// its logic when asked. A failed host's logic no longer runs, so it
    /// reports the state it failed in; a host dead from the start
    /// reports its state before the run began. The cost is whatever the
    /// protocol's `summary` costs (WILDFIRE decodes a partial), so read
    /// each host at most once per poll.
    pub fn summary(&self, h: HostId) -> StateSummary {
        (self.read_summary)(h)
    }

    /// `h`'s current neighbours: the overlay's merged adjacency when an
    /// overlay is maintained, the base CSR otherwise. Sources that
    /// react to the topology must read through this (not
    /// [`EngineView::graph`]) or they will act on stale edges.
    pub fn neighbors(&self, h: HostId) -> &'a [HostId] {
        self.topo.neighbors(h)
    }

    /// `h`'s current degree (overlay-aware, like
    /// [`EngineView::neighbors`]).
    pub fn degree(&self, h: HostId) -> usize {
        self.topo.degree(h)
    }

    /// Whether the undirected edge `(a, b)` currently exists
    /// (overlay-aware, like [`EngineView::neighbors`]).
    pub fn has_edge(&self, a: HostId, b: HostId) -> bool {
        self.topo.has_edge(a, b)
    }
}

/// A churn schedule decided while the simulation runs.
///
/// The engine polls the source with a [`Payload::ChurnPoll`] event:
/// once at time 0, then at every instant [`ChurnSource::next_poll`]
/// requests. Within an instant, poll-injected events apply after the
/// pre-materialized plan's failures and joins but before message
/// deliveries — a host killed by a source at `t` does not see messages
/// delivered at `t`, exactly like a statically scheduled failure.
///
/// [`Payload::ChurnPoll`]: crate::Simulation
pub trait ChurnSource {
    /// Write the membership changes to apply at `now` into `out`
    /// (cleared by the engine before the call; events are applied in
    /// `out` order). Called exactly once per polled instant. The
    /// out-parameter shape lets the engine reuse one wave buffer across
    /// every poll of a run instead of allocating a `Vec` per wave.
    fn next_events(&mut self, now: Time, view: &EngineView<'_>, out: &mut Vec<ChurnEvent>);

    /// The next instant this source wants to be polled, strictly after
    /// `now`; `None` once the source is exhausted (lets
    /// `run_to_quiescence` terminate).
    fn next_poll(&self, now: Time) -> Option<Time>;
}

/// The sketch-targeting adaptive adversary.
///
/// At evenly spaced wave instants across `[start, until]` it inspects
/// the [`EngineView`] and kills the `kills_per_wave` alive hosts whose
/// protocol summaries report the highest [`StateSummary::sketch_weight`]
/// — the hosts currently holding the FM sketch maxima — never touching
/// `spare` (the querying host, which must survive to declare) and never
/// exceeding `budget` kills in total. Hosts that expose no weight (not
/// yet activated, or a protocol that keeps the default
/// [`NodeLogic::summary`](crate::NodeLogic::summary)) are only struck
/// once no weighted target remains, so the budget is spent on the hosts
/// that actually carry the answer.
///
/// The adversary is deterministic: selection is a pure function of the
/// view with ties broken by ascending host id, so scenario reports stay
/// byte-identical across thread counts.
#[derive(Clone, Debug)]
pub struct SketchAdversary {
    budget: usize,
    killed: usize,
    start: Time,
    until: Time,
    spare: HostId,
    /// Precomputed wave instants with their kill quotas (ascending,
    /// distinct instants; quotas sum to `budget`). Waves whose evenly
    /// spaced instants quantize to the same tick merge their quotas, so
    /// a short window in ticks never silently underspends the budget —
    /// the equal-cost comparability contract with `uniform_failures`.
    waves: Vec<(Time, usize)>,
}

impl SketchAdversary {
    /// An adversary spending `budget` kills in waves of
    /// `kills_per_wave`, the waves evenly spaced across
    /// `[start, until]`, sparing `spare`.
    ///
    /// # Panics
    /// Panics if `kills_per_wave == 0` or `until < start`.
    pub fn new(
        kills_per_wave: usize,
        budget: usize,
        start: Time,
        until: Time,
        spare: HostId,
    ) -> Self {
        assert!(kills_per_wave >= 1, "kills_per_wave must be >= 1");
        assert!(until >= start, "empty adversary window");
        let num_waves = budget.div_ceil(kills_per_wave).max(1);
        let span = until.ticks() - start.ticks();
        let mut waves: Vec<(Time, usize)> = Vec::new();
        let mut remaining = budget;
        for i in 0..num_waves {
            let at = Time(start.ticks() + (i as u64 * span) / num_waves as u64);
            let quota = kills_per_wave.min(remaining);
            remaining -= quota;
            match waves.last_mut() {
                Some((t, q)) if *t == at => *q += quota,
                _ => waves.push((at, quota)),
            }
        }
        SketchAdversary {
            budget,
            killed: 0,
            start,
            until,
            spare,
            waves,
        }
    }

    /// Kills performed so far.
    pub fn kills(&self) -> usize {
        self.killed
    }

    /// The fixed total event budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// The attack window `[start, until]`.
    pub fn window(&self) -> (Time, Time) {
        (self.start, self.until)
    }
}

impl ChurnSource for SketchAdversary {
    fn next_events(&mut self, now: Time, view: &EngineView<'_>, out: &mut Vec<ChurnEvent>) {
        let quota = match self.waves.iter().find(|&&(t, _)| t == now) {
            Some(&(_, q)) => q.min(self.budget - self.killed),
            None => return,
        };
        if quota == 0 {
            return;
        }
        // Rank alive, non-spare hosts: weighted targets first (highest
        // sketch weight wins), then active-but-weightless, then the
        // rest; ties by ascending host id for determinism. Each
        // candidate's summary is read once, before the sort.
        let mut targets: Vec<(f64, bool, HostId)> = (0..view.alive.len() as u32)
            .map(HostId)
            .filter(|&h| h != self.spare && view.alive[h.index()])
            .map(|h| {
                let s = view.summary(h);
                (s.sketch_weight.unwrap_or(f64::NEG_INFINITY), s.active, h)
            })
            .collect();
        targets.sort_by(|&(wa, aa, a), &(wb, ab, b)| {
            wb.partial_cmp(&wa)
                .expect("sketch weights are never NaN")
                .then(ab.cmp(&aa))
                .then(a.0.cmp(&b.0))
        });
        let before = out.len();
        out.extend(
            targets
                .into_iter()
                .take(quota)
                .map(|(_, _, h)| ChurnEvent::Fail(h)),
        );
        self.killed += out.len() - before;
    }

    fn next_poll(&self, now: Time) -> Option<Time> {
        if self.killed >= self.budget {
            return None;
        }
        self.waves.iter().map(|&(t, _)| t).find(|&t| t > now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::ChurnPlan;
    use pov_topology::generators::special;

    fn view_of<'a>(
        graph: &'a Graph,
        alive: &'a [bool],
        read_summary: &'a dyn Fn(HostId) -> StateSummary,
        now: Time,
    ) -> EngineView<'a> {
        EngineView {
            now,
            graph,
            alive,
            topo: TopoRef::Static(graph),
            read_summary,
        }
    }

    /// Collect one poll's wave into a fresh buffer (tests only; the
    /// engine reuses one buffer per run instead).
    fn events_of(src: &mut impl ChurnSource, now: Time, view: &EngineView<'_>) -> Vec<ChurnEvent> {
        let mut out = Vec::new();
        src.next_events(now, view, &mut out);
        out
    }

    #[test]
    fn pinned_dead_host_yielded_once_even_with_a_rejoin() {
        let plan = ChurnPlan::none()
            .with_initially_dead(HostId(3))
            .merge(ChurnPlan::none().with_join(Time(5), HostId(3)));
        let dead: Vec<HostId> = plan.initially_dead().collect();
        assert_eq!(dead, vec![HostId(3)], "no duplicate yield");
    }

    #[test]
    fn adversary_targets_highest_weight_and_spares_hq() {
        let g = special::cycle(6);
        let alive = vec![true; 6];
        let mut summaries = [StateSummary::default(); 6];
        for (h, w) in [(0, 50.0), (2, 9.0), (3, 30.0), (4, 30.0)] {
            summaries[h] = StateSummary {
                active: true,
                sketch_weight: Some(w),
            };
        }
        let read = |h: HostId| summaries[h.index()];
        let mut adv = SketchAdversary::new(2, 2, Time(0), Time(10), HostId(0));
        let view = view_of(&g, &alive, &read, Time(0));
        // hq (weight 50) is spared; the two weight-30 hosts die, the
        // tie broken by ascending id.
        assert_eq!(
            events_of(&mut adv, Time(0), &view),
            vec![ChurnEvent::Fail(HostId(3)), ChurnEvent::Fail(HostId(4))]
        );
        assert_eq!(adv.kills(), 2);
        // Budget exhausted: no further polls, no further kills.
        assert_eq!(adv.next_poll(Time(0)), None);
    }

    #[test]
    fn adversary_budget_spreads_across_waves() {
        let g = special::cycle(20);
        let alive = vec![true; 20];
        let summaries: Vec<StateSummary> = (0..20)
            .map(|i| StateSummary {
                active: true,
                sketch_weight: Some(i as f64),
            })
            .collect();
        let read = |h: HostId| summaries[h.index()];
        let mut adv = SketchAdversary::new(2, 6, Time(0), Time(12), HostId(0));
        let mut killed = Vec::new();
        let mut t = Time(0);
        loop {
            let view = view_of(&g, &alive, &read, t);
            killed.extend(events_of(&mut adv, t, &view));
            match adv.next_poll(t) {
                Some(next) => t = next,
                None => break,
            }
        }
        assert_eq!(killed.len(), 6, "exactly the budget");
        assert_eq!(adv.kills(), 6);
        // Highest weights die first (h19 down), hq never.
        assert_eq!(killed[0], ChurnEvent::Fail(HostId(19)));
        assert!(!killed.contains(&ChurnEvent::Fail(HostId(0))));
    }

    #[test]
    fn budget_survives_wave_quantization() {
        let g = special::cycle(20);
        let alive = vec![true; 20];
        let read = |_: HostId| StateSummary::default();
        // 10 one-kill waves over a 5-tick window quantize to 5 instants;
        // their quotas merge, so the full budget still lands.
        let mut adv = SketchAdversary::new(1, 10, Time(0), Time(5), HostId(0));
        let mut killed = 0;
        let mut t = Time(0);
        loop {
            let view = view_of(&g, &alive, &read, t);
            killed += events_of(&mut adv, t, &view).len();
            match adv.next_poll(t) {
                Some(next) => t = next,
                None => break,
            }
        }
        assert_eq!(killed, 10, "quantized waves must not underspend");
        assert_eq!(adv.kills(), 10);
        // The degenerate window start == until collapses to one
        // all-budget wave.
        let mut adv = SketchAdversary::new(3, 7, Time(4), Time(4), HostId(0));
        let view = view_of(&g, &alive, &read, Time(4));
        assert_eq!(events_of(&mut adv, Time(4), &view).len(), 7);
        assert_eq!(adv.next_poll(Time(4)), None);
    }

    #[test]
    fn adversary_ignores_off_wave_polls() {
        let g = special::cycle(4);
        let alive = vec![true; 4];
        let read = |_: HostId| StateSummary::default();
        let mut adv = SketchAdversary::new(1, 2, Time(4), Time(8), HostId(0));
        let view = view_of(&g, &alive, &read, Time(0));
        assert!(events_of(&mut adv, Time(0), &view).is_empty());
        assert_eq!(adv.next_poll(Time(0)), Some(Time(4)));
    }
}
