//! The §6.2 dynamism model.
//!
//! *"We model host failures by removing a total of R randomly selected
//! hosts from G at a uniform rate during `[t0, tn]`."* Joins are also
//! supported (they matter for the `HU` upper bound of Single-Site
//! Validity) though the paper's simulations do not exercise them.

use crate::Time;
use pov_topology::{analysis, Graph, HostId};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// A schedule of host failures (and optionally joins).
#[derive(Clone, Debug, Default)]
pub struct ChurnPlan {
    /// `(time, host)` failure events, sorted by time.
    pub failures: Vec<(Time, HostId)>,
    /// `(time, host)` join events for hosts that start dead.
    pub joins: Vec<(Time, HostId)>,
    /// Hosts explicitly marked dead from time 0, independent of any
    /// events (they rejoin only if a join is scheduled). Window slicers
    /// use this to say "down for the whole window" without resorting to
    /// a sentinel join at `Time(u64::MAX)`, which any later shift or
    /// merge arithmetic could silently wrap.
    pub dead_from_start: Vec<HostId>,
}

impl ChurnPlan {
    /// No churn at all: the static-network baseline.
    pub fn none() -> Self {
        ChurnPlan::default()
    }

    /// The paper's model: `r` distinct hosts drawn uniformly from
    /// `0..num_hosts` (excluding `spare`, normally the querying host
    /// `hq`, which must survive to declare a result) fail at a uniform
    /// rate over `[window_start, window_end]`.
    pub fn uniform_failures(
        num_hosts: usize,
        r: usize,
        window_start: Time,
        window_end: Time,
        spare: HostId,
        seed: u64,
    ) -> Self {
        ChurnPlan {
            failures: wave(num_hosts, r, window_start, window_end, spare, seed),
            ..ChurnPlan::default()
        }
    }

    /// Flash-crowd join burst: `j` distinct hosts drawn uniformly from
    /// `0..num_hosts` (excluding `spare`) start dead and join at a
    /// uniform rate over `[window_start, window_end]` — the sudden
    /// audience-arrival regime the paper's failure-only model cannot
    /// express (joins grow `HU`, stressing the upper validity bound).
    pub fn flash_crowd(
        num_hosts: usize,
        j: usize,
        window_start: Time,
        window_end: Time,
        spare: HostId,
        seed: u64,
    ) -> Self {
        ChurnPlan {
            joins: wave(num_hosts, j, window_start, window_end, spare, seed),
            ..ChurnPlan::default()
        }
    }

    /// Correlated (clustered) failures: `clusters` random centres each
    /// take their BFS neighbourhood of up to `cluster_size` hosts down
    /// *together*, cluster `i` at the `i`-th of evenly spaced instants
    /// across `[window_start, window_end]`. Models rack/region outages,
    /// where failures are spatially dependent rather than the paper's
    /// independent uniform draws. `spare` (normally `hq`) never fails.
    pub fn correlated_failures(
        graph: &Graph,
        clusters: usize,
        cluster_size: usize,
        window_start: Time,
        window_end: Time,
        spare: HostId,
        seed: u64,
    ) -> Self {
        let span = window_span(window_start, window_end);
        let centres = shuffled_hosts(graph.num_hosts(), spare, &mut SmallRng::seed_from_u64(seed));
        let clusters = clusters.min(centres.len());
        let mut failed = vec![false; graph.num_hosts()];
        failed[spare.index()] = true; // never select the spare
        let mut failures: Vec<(Time, HostId)> = Vec::new();
        for (i, &centre) in centres[..clusters].iter().enumerate() {
            let at = pace(window_start, span, i, clusters);
            // BFS outward from the centre, taking fresh hosts only.
            let mut frontier = std::collections::VecDeque::from([centre]);
            let mut seen = vec![false; graph.num_hosts()];
            seen[centre.index()] = true;
            let mut taken = 0usize;
            while taken < cluster_size {
                let Some(h) = frontier.pop_front() else { break };
                if !failed[h.index()] {
                    failed[h.index()] = true;
                    failures.push((at, h));
                    taken += 1;
                }
                for &nb in graph.neighbors(h) {
                    if !seen[nb.index()] {
                        seen[nb.index()] = true;
                        frontier.push_back(nb);
                    }
                }
            }
        }
        failures.sort_by_key(|&(t, h)| (t, h.0));
        ChurnPlan {
            failures,
            ..ChurnPlan::default()
        }
    }

    /// The adaptive adversary of the Theorem 4.2 flavour: at instant
    /// `at`, kill every host within `radius` hops of `root` (except
    /// `root` itself). Against tree-based protocols rooted at `hq` this
    /// orphans the *entire* tree below the blast radius in one stroke.
    /// Deterministic — the adversary knows the topology.
    pub fn root_neighbourhood_failures(graph: &Graph, root: HostId, radius: u32, at: Time) -> Self {
        let dist = analysis::bfs_distances(graph, root);
        let failures = (0..graph.num_hosts() as u32)
            .map(HostId)
            .filter(|&h| h != root && dist[h.index()] >= 1 && dist[h.index()] <= radius)
            .map(|h| (at, h))
            .collect();
        ChurnPlan {
            failures,
            ..ChurnPlan::default()
        }
    }

    /// Oscillating membership: `k` distinct hosts drawn uniformly from
    /// `0..num_hosts` (excluding `spare`) repeatedly fail and rejoin —
    /// the host-rejoining regime of Casteigts' dynamic-network classes
    /// that the paper's depart-forever model cannot express. Host `i`
    /// starts its first outage at a staggered phase inside
    /// `[window_start, window_end)`, stays down for `downtime` ticks,
    /// and repeats every `period` ticks until the window closes. A host
    /// whose rejoin would land past `window_end` stays down.
    ///
    /// The phases are the `k` instants paced over one `period` from
    /// `window_start`, so all `k` hosts oscillate only when
    /// `period <= window_end - window_start`: a host whose phase lands
    /// at or past `window_end` never fails. The `.scn` parser rejects
    /// such a period.
    ///
    /// The signature mirrors the other generators (population, count,
    /// window, spare, seed) plus the two cycle parameters — clippy's
    /// argument budget loses to consistency here.
    #[allow(clippy::too_many_arguments)]
    pub fn oscillating(
        num_hosts: usize,
        k: usize,
        window_start: Time,
        window_end: Time,
        period: u64,
        downtime: u64,
        spare: HostId,
        seed: u64,
    ) -> Self {
        assert!(window_end >= window_start, "empty oscillation window");
        assert!(period >= 1, "oscillation period must be >= 1 tick");
        assert!(
            downtime >= 1 && downtime < period,
            "downtime must satisfy 1 <= downtime < period"
        );
        let candidates = shuffled_hosts(num_hosts, spare, &mut SmallRng::seed_from_u64(seed));
        let k = k.min(candidates.len());
        let mut plan = ChurnPlan::default();
        for (i, &h) in candidates[..k].iter().enumerate() {
            // Stagger first outages across one period so the population
            // dips smoothly instead of k hosts blinking in lock-step.
            let mut t = pace(window_start, period, i, k).ticks();
            while t < window_end.ticks() {
                plan.failures.push((Time(t), h));
                let up = t + downtime;
                if up < window_end.ticks() {
                    plan.joins.push((Time(up), h));
                }
                t += period;
            }
        }
        plan.normalize();
        plan
    }

    /// Merge two plans into one schedule with deterministic event
    /// interleaving: the result is sorted by `(time, host)` within each
    /// event class and is independent of argument order —
    /// `a.merge(b)` and `b.merge(a)` yield identical event streams. This
    /// is the combinator that lets a run stack regimes (uniform failures
    /// plus a flash crowd plus rejoin cycles) that the single-generator
    /// API could only express one at a time.
    ///
    /// **Same-tick tie-break.** Merging (and `oscillating` plans in
    /// particular) can schedule a failure *and* a join for one host at
    /// the same tick; deduplication is per-stream, so both survive. The
    /// engine resolves the tie explicitly — failures apply before joins
    /// at equal instants (the event queue ranks `Fail < Join`, not push
    /// order) — so such a host dies, restarts via `on_start`, and ends
    /// the tick **alive**. `initially_dead` and the window slicers
    /// follow the same fail-before-join convention.
    pub fn merge(mut self, other: ChurnPlan) -> ChurnPlan {
        self.failures.extend(other.failures);
        self.joins.extend(other.joins);
        self.dead_from_start.extend(other.dead_from_start);
        self.normalize();
        self
    }

    /// Sort both event streams by `(time, host)` and drop exact
    /// duplicates, the canonical form [`ChurnPlan::merge`] relies on for
    /// order-determinism.
    fn normalize(&mut self) {
        self.failures.sort_unstable_by_key(|&(t, h)| (t, h.0));
        self.failures.dedup();
        self.joins.sort_unstable_by_key(|&(t, h)| (t, h.0));
        self.joins.dedup();
        self.dead_from_start.sort_unstable_by_key(|h| h.0);
        self.dead_from_start.dedup();
    }

    /// Add a single failure.
    pub fn with_failure(mut self, at: Time, host: HostId) -> Self {
        self.failures.push((at, host));
        self
    }

    /// Add a single join (the host starts dead and appears at `at`).
    pub fn with_join(mut self, at: Time, host: HostId) -> Self {
        self.joins.push((at, host));
        self
    }

    /// Mark a host dead from time 0, independent of any scheduled
    /// events — it comes back only if a join is also scheduled. This is
    /// the explicit spelling window slicers use for "down for the whole
    /// window"; a sentinel join at `Time(u64::MAX)` would expose later
    /// shift/merge arithmetic to wrap-around.
    pub fn with_initially_dead(mut self, host: HostId) -> Self {
        self.dead_from_start.push(host);
        self
    }

    /// Hosts that start dead, each once, in ascending id order: those
    /// explicitly marked via [`ChurnPlan::with_initially_dead`], plus
    /// hosts whose *first* scheduled event is a join — they appear
    /// later. A host that fails first and rejoins afterwards
    /// (fail-then-rejoin) starts alive like everyone else; "first"
    /// follows the engine's same-tick tie-break (failures apply before
    /// joins at equal instants), so a host with both events at one tick
    /// starts alive, blips dead, and ends the tick alive.
    ///
    /// One ordered-map pass over the scheduled events.
    pub fn initially_dead(&self) -> impl Iterator<Item = HostId> {
        // Each host's first event as (instant, is_join): a failure
        // (`false`) wins a tie with a join. A pinned host counts as
        // joining first, whatever its events.
        let mut first: BTreeMap<u32, (Time, bool)> = BTreeMap::new();
        let fails = self.failures.iter().map(|&(t, h)| (h, (t, false)));
        for (h, event) in fails.chain(self.joins.iter().map(|&(t, h)| (h, (t, true)))) {
            let slot = first.entry(h.0).or_insert(event);
            *slot = (*slot).min(event);
        }
        for h in &self.dead_from_start {
            first.insert(h.0, (Time::ZERO, true));
        }
        first
            .into_iter()
            .filter(|&(_, (_, is_join))| is_join)
            .map(|(h, _)| HostId(h))
    }
}

/// The number of hosts a `fraction` of a population of `n` stands
/// for: `(fraction · n)` rounded to the nearest host.
pub fn share(fraction: f64, n: usize) -> usize {
    (fraction * n as f64).round() as usize
}

/// Every host of `0..num_hosts` except `spare`, shuffled by `rng`: the
/// one draw of "randomly selected hosts" behind every generator here
/// and the phase lowering.
pub(crate) fn shuffled_hosts(num_hosts: usize, spare: HostId, rng: &mut SmallRng) -> Vec<HostId> {
    let mut hosts: Vec<HostId> = (0..num_hosts as u32)
        .map(HostId)
        .filter(|&h| h != spare)
        .collect();
    hosts.shuffle(rng);
    hosts
}

/// The `i`-th of `k` evenly spaced instants over `span` ticks from
/// `start`, `start + i·span / max(k, 1)`: events at a uniform *rate*.
pub(crate) fn pace(start: Time, span: u64, i: usize, k: usize) -> Time {
    start + (i as u64 * span) / k.max(1) as u64
}

/// The tick span events are paced over in `[start, end]` (at least 1).
fn window_span(start: Time, end: Time) -> u64 {
    assert!(end >= start, "churn window ends before it starts");
    (end - start).max(1)
}

/// `count` hosts drawn from all but `spare` by `seed`, each with its
/// instant, at a uniform rate over `[start, end]`: the events of
/// [`ChurnPlan::uniform_failures`] and [`ChurnPlan::flash_crowd`].
fn wave(
    num_hosts: usize,
    count: usize,
    start: Time,
    end: Time,
    spare: HostId,
    seed: u64,
) -> Vec<(Time, HostId)> {
    let span = window_span(start, end);
    let hosts = shuffled_hosts(num_hosts, spare, &mut SmallRng::seed_from_u64(seed));
    let count = count.min(hosts.len());
    hosts[..count]
        .iter()
        .enumerate()
        .map(|(i, &h)| (pace(start, span, i, count), h))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_failures_basic() {
        let plan = ChurnPlan::uniform_failures(100, 10, Time(0), Time(50), HostId(0), 7);
        assert_eq!(plan.failures.len(), 10);
        // Spare host is never selected.
        assert!(plan.failures.iter().all(|&(_, h)| h != HostId(0)));
        // Distinct victims.
        let mut hosts: Vec<u32> = plan.failures.iter().map(|&(_, h)| h.0).collect();
        hosts.sort_unstable();
        hosts.dedup();
        assert_eq!(hosts.len(), 10);
        // All within the window.
        assert!(plan
            .failures
            .iter()
            .all(|&(t, _)| t >= Time(0) && t <= Time(50)));
    }

    #[test]
    fn uniform_rate_spacing() {
        let plan = ChurnPlan::uniform_failures(1000, 5, Time(10), Time(60), HostId(0), 1);
        let times: Vec<u64> = plan.failures.iter().map(|&(t, _)| t.0).collect();
        assert_eq!(times, vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn r_capped_at_population() {
        let plan = ChurnPlan::uniform_failures(5, 50, Time(0), Time(10), HostId(2), 3);
        assert_eq!(plan.failures.len(), 4); // everyone but the spare
    }

    #[test]
    fn deterministic_per_seed() {
        let a = ChurnPlan::uniform_failures(100, 8, Time(0), Time(20), HostId(0), 5);
        let b = ChurnPlan::uniform_failures(100, 8, Time(0), Time(20), HostId(0), 5);
        assert_eq!(a.failures, b.failures);
        let c = ChurnPlan::uniform_failures(100, 8, Time(0), Time(20), HostId(0), 6);
        assert_ne!(a.failures, c.failures);
    }

    /// The per-join scan `initially_dead` replaced, kept as the
    /// reference. It yields a host once per qualifying join.
    fn initially_dead_by_scan(plan: &ChurnPlan) -> Vec<HostId> {
        let pinned = &plan.dead_from_start;
        let joins = plan.joins.iter().filter(|&&(jt, h)| {
            !pinned.contains(&h) && !plan.failures.iter().any(|&(ft, fh)| fh == h && ft <= jt)
        });
        pinned
            .iter()
            .copied()
            .chain(joins.map(|&(_, h)| h))
            .collect()
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn initially_dead_matches_the_per_join_scan(
            fails in prop::collection::vec((0u64..12, 0u32..10), 0..16),
            joins in prop::collection::vec((0u64..12, 0u32..10), 0..16),
            pinned in prop::collection::vec(0u32..10, 0..4),
        ) {
            let mut plan = ChurnPlan::none();
            plan.failures = fails.into_iter().map(|(t, h)| (Time(t), HostId(h))).collect();
            plan.joins = joins.into_iter().map(|(t, h)| (Time(t), HostId(h))).collect();
            plan.dead_from_start = pinned.into_iter().map(HostId).collect();
            let mut want = initially_dead_by_scan(&plan);
            want.sort_unstable_by_key(|h| h.0);
            want.dedup();
            prop_assert_eq!(plan.initially_dead().collect::<Vec<_>>(), want);
        }
    }

    #[test]
    fn a_host_joining_twice_is_dead_once() {
        let plan = ChurnPlan::none()
            .with_join(Time(5), HostId(3))
            .merge(ChurnPlan::none().with_join(Time(9), HostId(3)));
        assert_eq!(initially_dead_by_scan(&plan), vec![HostId(3); 2]);
        assert_eq!(plan.initially_dead().collect::<Vec<_>>(), vec![HostId(3)]);
    }

    #[test]
    fn joins_tracked_as_initially_dead() {
        let plan = ChurnPlan::none()
            .with_join(Time(4), HostId(9))
            .with_failure(Time(2), HostId(1));
        let dead: Vec<HostId> = plan.initially_dead().collect();
        assert_eq!(dead, vec![HostId(9)]);
    }

    #[test]
    fn zero_failures() {
        let plan = ChurnPlan::uniform_failures(10, 0, Time(0), Time(10), HostId(0), 1);
        assert_eq!(plan.failures.len(), 0);
    }

    #[test]
    fn flash_crowd_spacing_and_spare() {
        let plan = ChurnPlan::flash_crowd(100, 5, Time(10), Time(60), HostId(3), 7);
        assert_eq!(plan.joins.len(), 5);
        assert!(plan.joins.iter().all(|&(_, h)| h != HostId(3)));
        let times: Vec<u64> = plan.joins.iter().map(|&(t, _)| t.0).collect();
        assert_eq!(times, vec![10, 20, 30, 40, 50]);
        // All joiners start dead.
        assert_eq!(plan.initially_dead().count(), 5);
        // Deterministic per seed.
        let again = ChurnPlan::flash_crowd(100, 5, Time(10), Time(60), HostId(3), 7);
        assert_eq!(plan.joins, again.joins);
    }

    #[test]
    fn correlated_failures_form_clusters() {
        let g = pov_topology::generators::grid_square(10);
        let plan = ChurnPlan::correlated_failures(&g, 3, 8, Time(0), Time(30), HostId(0), 11);
        assert_eq!(plan.failures.len(), 24);
        assert!(plan.failures.iter().all(|&(_, h)| h != HostId(0)));
        // Distinct victims.
        let mut hosts: Vec<u32> = plan.failures.iter().map(|&(_, h)| h.0).collect();
        hosts.sort_unstable();
        hosts.dedup();
        assert_eq!(hosts.len(), 24);
        // Hosts failing at the same instant form a connected-ish blast
        // zone: every victim has another victim of the same instant
        // within 2 hops (BFS cluster growth guarantees adjacency).
        for &(t, h) in &plan.failures {
            let near = plan.failures.iter().any(|&(t2, h2)| {
                t2 == t && h2 != h && pov_topology::analysis::bfs_distances(&g, h)[h2.index()] <= 2
            });
            assert!(near, "victim {h:?} at {t:?} is isolated");
        }
        // Sorted by time.
        assert!(plan.failures.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn correlated_cluster_size_bounds_each_cluster() {
        let g = pov_topology::generators::grid_square(10);
        let plan =
            |size| ChurnPlan::correlated_failures(&g, 3, size, Time(0), Time(30), HostId(0), 11);
        // Size 0 takes nobody — not every host reachable from a centre.
        assert_eq!(plan(0).failures.len(), 0);
        // Size 1 takes exactly the three centres, one per instant.
        let times: Vec<u64> = plan(1).failures.iter().map(|&(t, _)| t.0).collect();
        assert_eq!(times, vec![0, 10, 20]);
        assert_eq!(plan(2).failures.len(), 6);
    }

    #[test]
    fn root_neighbourhood_kills_ball_not_root() {
        use pov_topology::generators::special;
        let g = special::chain(8);
        let plan = ChurnPlan::root_neighbourhood_failures(&g, HostId(2), 2, Time(4));
        let mut victims: Vec<u32> = plan.failures.iter().map(|&(_, h)| h.0).collect();
        victims.sort_unstable();
        // Hosts within 2 hops of h2 on a chain: h0, h1, h3, h4.
        assert_eq!(victims, vec![0, 1, 3, 4]);
        assert!(plan.failures.iter().all(|&(t, _)| t == Time(4)));
    }

    #[test]
    fn oscillating_hosts_fail_and_rejoin() {
        let plan = ChurnPlan::oscillating(50, 5, Time(0), Time(40), 10, 4, HostId(0), 9);
        // Each host cycles ~4 times inside the window.
        assert!(
            plan.failures.len() >= 15,
            "{} failures",
            plan.failures.len()
        );
        assert!(plan.joins.len() >= 10, "{} joins", plan.joins.len());
        assert!(plan.failures.iter().all(|&(_, h)| h != HostId(0)));
        // Every host's first event is a failure, so nobody starts dead.
        assert_eq!(plan.initially_dead().count(), 0);
        // Per host, events alternate fail → join → fail …
        let mut hosts: Vec<u32> = plan.failures.iter().map(|&(_, h)| h.0).collect();
        hosts.sort_unstable();
        hosts.dedup();
        assert_eq!(hosts.len(), 5);
        for &h in &hosts {
            let mut events: Vec<(u64, bool)> = plan
                .failures
                .iter()
                .filter(|&&(_, fh)| fh.0 == h)
                .map(|&(t, _)| (t.ticks(), false))
                .chain(
                    plan.joins
                        .iter()
                        .filter(|&&(_, jh)| jh.0 == h)
                        .map(|&(t, _)| (t.ticks(), true)),
                )
                .collect();
            events.sort_unstable();
            for (i, &(_, is_join)) in events.iter().enumerate() {
                assert_eq!(is_join, i % 2 == 1, "host {h} events {events:?}");
            }
        }
        // Deterministic per seed.
        let again = ChurnPlan::oscillating(50, 5, Time(0), Time(40), 10, 4, HostId(0), 9);
        assert_eq!(plan.failures, again.failures);
        assert_eq!(plan.joins, again.joins);
    }

    #[test]
    fn merge_is_order_deterministic() {
        let a = ChurnPlan::uniform_failures(60, 8, Time(0), Time(30), HostId(0), 4);
        let b = ChurnPlan::flash_crowd(60, 6, Time(5), Time(25), HostId(0), 5);
        let ab = a.clone().merge(b.clone());
        let ba = b.merge(a);
        assert_eq!(ab.failures, ba.failures);
        assert_eq!(ab.joins, ba.joins);
        assert_eq!(ab.failures.len(), 8);
        assert_eq!(ab.joins.len(), 6);
        // Sorted by (time, host).
        assert!(ab
            .failures
            .windows(2)
            .all(|w| (w[0].0, w[0].1 .0) <= (w[1].0, w[1].1 .0)));
    }

    #[test]
    fn merge_round_trips_initially_dead() {
        // Host 3 fails in plan A and rejoins in plan B: after the merge
        // its first event is the failure, so it must start alive.
        let a = ChurnPlan::none().with_failure(Time(2), HostId(3));
        let b = ChurnPlan::none().with_join(Time(7), HostId(3));
        let merged = a.merge(b);
        assert_eq!(merged.initially_dead().count(), 0);
        // The reverse stacking — join first, fail later — starts dead.
        let a = ChurnPlan::none().with_join(Time(2), HostId(3));
        let b = ChurnPlan::none().with_failure(Time(7), HostId(3));
        let merged = a.merge(b);
        assert_eq!(merged.initially_dead().collect::<Vec<_>>(), vec![HostId(3)]);
    }

    // --- joins interacting with failures (engine-backed orderings) ---

    use crate::{Ctx, NodeLogic, SimBuilder};

    #[derive(Debug, Default)]
    struct Starts {
        count: u32,
    }
    impl NodeLogic for Starts {
        type Msg = ();
        fn on_start(&mut self, _: &mut Ctx<'_, ()>) {
            self.count += 1;
        }
        fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: HostId, _: ()) {}
    }

    #[test]
    fn join_then_fail_ordering() {
        use pov_topology::generators::special;
        // h1 starts dead, joins at t=2, fails again at t=6.
        let plan = ChurnPlan::none()
            .with_join(Time(2), HostId(1))
            .with_failure(Time(6), HostId(1));
        let dead: Vec<HostId> = plan.initially_dead().collect();
        assert_eq!(dead, vec![HostId(1)]);
        let mut sim = SimBuilder::new(special::chain(3))
            .churn(plan)
            .build(|_| Starts::default());
        sim.run_until(Time(10));
        // Started exactly once (at the join), and is dead at the end.
        assert_eq!(sim.logic(HostId(1)).count, 1);
        assert!(!sim.is_alive(HostId(1)));
        assert_eq!(sim.num_alive(), 2);
        // Trace records the join before the failure.
        assert_eq!(sim.trace().events.len(), 2);
    }

    #[test]
    fn fail_then_rejoin_ordering() {
        use pov_topology::generators::special;
        // h1 starts alive, fails at t=2, rejoins at t=6.
        let plan = ChurnPlan::none()
            .with_failure(Time(2), HostId(1))
            .with_join(Time(6), HostId(1));
        // First event is the failure, so h1 must NOT start dead.
        assert_eq!(plan.initially_dead().count(), 0);
        let mut sim = SimBuilder::new(special::chain(3))
            .churn(plan)
            .build(|_| Starts::default());
        sim.run_until(Time(10));
        // Started at t=0 and again on rejoin; alive at the end.
        assert_eq!(sim.logic(HostId(1)).count, 2);
        assert!(sim.is_alive(HostId(1)));
        assert_eq!(sim.num_alive(), 3);
        assert_eq!(sim.trace().events.len(), 2);
    }
}
