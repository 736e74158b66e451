//! Long-horizon membership regimes scripted as **phase schedules**.
//!
//! The paper's §6.2 model perturbs one query with a single burst of
//! uniform-rate departures; every workload in the repo so far is that
//! kind of short burst. Real deployments live through *regimes*: an
//! overlay grows as an audience arrives, plateaus, bleeds hosts, gets
//! cut in half by a backbone outage, heals, and keeps answering queries
//! throughout. A [`PhaseSchedule`] scripts exactly that arc — an
//! ordered list of [`Phase`]s (growth → stable → shrink → partition →
//! heal, each with its own tick budget) over horizons of 10⁴ ticks and
//! beyond — and [`PhaseSchedule::lower`] compiles it down to the
//! engine's existing primitives: one absolute-time [`ChurnPlan`] plus
//! an optional windowed [`PartitionPlan`]. Nothing downstream learns a
//! new mechanism; the continuous-window slicer, the oracle, and the
//! batch runner all consume the lowered plans unchanged.
//!
//! Lowering is a pure function of `(graph, spare, seed, schedule)`:
//! the same inputs always produce byte-identical plans, which is what
//! lets the scenario batch runner promise thread-count-independent
//! reports over phased regimes.

use crate::churn::{pace, share, shuffled_hosts};
use crate::{ChurnPlan, PartitionPlan, Time};
use pov_topology::{Graph, HostId};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// What happens to the membership during one phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PhaseKind {
    /// `fraction·|H|` currently-dead hosts join at a uniform rate
    /// across the phase (capped at the dead population).
    Growth {
        /// Fraction of the total population that joins (0..=1).
        fraction: f64,
    },
    /// No membership events; the network serves queries undisturbed.
    Stable,
    /// `fraction·|H|` currently-alive hosts fail at a uniform rate
    /// across the phase (the spare host never fails).
    Shrink {
        /// Fraction of the total population that fails (0..=1).
        fraction: f64,
    },
    /// A BFS-coherent cut severs `fraction·|H|` hosts from the rest for
    /// the whole phase, healing exactly at the phase boundary. Hosts on
    /// both sides stay alive — disconnection without departure.
    Partition {
        /// Fraction of hosts on the severed side (0..=1).
        fraction: f64,
    },
    /// Every currently-dead host rejoins, spread uniformly across the
    /// phase — the overlay recovers its full population.
    Heal,
}

impl PhaseKind {
    /// The phase's report label (`growth`, `stable`, `shrink`,
    /// `partition`, `heal`).
    pub fn label(self) -> &'static str {
        match self {
            PhaseKind::Growth { .. } => "growth",
            PhaseKind::Stable => "stable",
            PhaseKind::Shrink { .. } => "shrink",
            PhaseKind::Partition { .. } => "partition",
            PhaseKind::Heal => "heal",
        }
    }

    fn fraction(self) -> Option<f64> {
        match self {
            PhaseKind::Growth { fraction }
            | PhaseKind::Shrink { fraction }
            | PhaseKind::Partition { fraction } => Some(fraction),
            PhaseKind::Stable | PhaseKind::Heal => None,
        }
    }
}

/// One phase: a regime kind and the tick span it occupies.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Phase {
    /// The membership regime during the span.
    pub kind: PhaseKind,
    /// Phase length in ticks (≥ 1).
    pub ticks: u64,
}

/// An ordered list of [`Phase`]s plus the fraction of hosts alive at
/// tick 0. Build with [`PhaseSchedule::new`] /
/// [`PhaseSchedule::with_start_alive`] and chain
/// [`PhaseSchedule::then`]; compile with [`PhaseSchedule::lower`].
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseSchedule {
    start_alive: f64,
    phases: Vec<Phase>,
}

/// What a schedule compiles down to: the engine's existing plan types,
/// ready for `RunPlan::churn` / `RunPlan::partition`.
#[derive(Clone, Debug)]
pub struct LoweredSchedule {
    /// All join/fail events plus the initially-dead pinning.
    pub churn: ChurnPlan,
    /// The stacked cuts of every `Partition` phase (`None` if the
    /// schedule has none).
    pub partition: Option<PartitionPlan>,
}

impl Default for PhaseSchedule {
    fn default() -> Self {
        PhaseSchedule::new()
    }
}

impl PhaseSchedule {
    /// A schedule starting with the whole population alive.
    pub fn new() -> Self {
        PhaseSchedule::with_start_alive(1.0)
    }

    /// A schedule starting with only `fraction` of the population alive
    /// (the rest are pinned dead until a growth/heal phase revives
    /// them). The spare host is always alive.
    pub fn with_start_alive(fraction: f64) -> Self {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "start-alive fraction {fraction} outside (0, 1]"
        );
        PhaseSchedule {
            start_alive: fraction,
            phases: Vec::new(),
        }
    }

    /// Append a phase spanning `ticks` ticks.
    pub fn then(mut self, kind: PhaseKind, ticks: u64) -> Self {
        assert!(ticks >= 1, "a phase needs at least one tick");
        if let Some(f) = kind.fraction() {
            assert!(
                (0.0..=1.0).contains(&f),
                "{} fraction {f} outside [0, 1]",
                kind.label()
            );
        }
        self.phases.push(Phase { kind, ticks });
        self
    }

    /// The scripted phases, in order.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Fraction of hosts alive at tick 0.
    pub fn start_alive(&self) -> f64 {
        self.start_alive
    }

    /// The label of the phase covering instant `t` (phases tile time
    /// from 0 in order; instants past the end keep the last phase's
    /// label — the regime that is still in force).
    ///
    /// # Panics
    /// Panics on an empty schedule.
    pub fn label_at(&self, t: Time) -> &'static str {
        assert!(!self.phases.is_empty(), "label_at on an empty schedule");
        let mut end = 0u64;
        for p in &self.phases {
            end += p.ticks;
            if t.ticks() < end {
                return p.kind.label();
            }
        }
        self.phases.last().expect("non-empty").kind.label()
    }

    /// Compile the schedule into engine plans. Pure in
    /// `(graph, spare, seed, self)`: the same inputs yield identical
    /// plans, event for event. `spare` (normally the querying host
    /// `hq`) is always alive and never severed onto a partition's
    /// minority side.
    ///
    /// # Panics
    /// Panics on an empty schedule.
    pub fn lower(&self, graph: &Graph, spare: HostId, seed: u64) -> LoweredSchedule {
        assert!(!self.phases.is_empty(), "lowering an empty schedule");
        let n = graph.num_hosts();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut candidates = shuffled_hosts(n, spare, &mut rng);

        // Alive tracking: the spare plus the first `start_alive` slice
        // of the shuffled candidates; everyone else is pinned dead from
        // tick 0 (they come back only when a growth/heal phase schedules
        // their join).
        let alive_quota = share(self.start_alive, n).clamp(1, n).saturating_sub(1); // the spare fills one alive slot
        let mut alive = vec![false; n];
        alive[spare.index()] = true;
        for &h in candidates.iter().take(alive_quota) {
            alive[h.index()] = true;
        }
        let mut plan = ChurnPlan::none();
        for &h in candidates.iter().skip(alive_quota) {
            plan = plan.with_initially_dead(h);
        }

        let mut cuts: Vec<PartitionPlan> = Vec::new();
        let mut t = Time::ZERO;
        for phase in &self.phases {
            let (start, span) = (t, phase.ticks);
            t += span;
            // Growth, shrink and heal are one wave: it flips up to
            // `quota` hosts to alive (`up`) or to dead.
            let (up, quota) = match phase.kind {
                PhaseKind::Growth { fraction } => (true, share(fraction, n)),
                PhaseKind::Shrink { fraction } => (false, share(fraction, n)),
                PhaseKind::Heal => (true, usize::MAX), // every dead host
                PhaseKind::Stable => continue,
                PhaseKind::Partition { fraction } => {
                    let cut = PartitionPlan::split_sparing(graph, spare, fraction, &mut rng);
                    cuts.push(cut.window(start, t));
                    continue;
                }
            };
            // Fresh shuffle per wave so consecutive growth/shrink phases
            // do not keep recycling the same victims.
            candidates.shuffle(&mut rng);
            let flippable: Vec<HostId> = candidates
                .iter()
                .copied()
                .filter(|h| alive[h.index()] != up)
                .collect();
            let k = quota.min(flippable.len());
            let events = if up {
                &mut plan.joins
            } else {
                &mut plan.failures
            };
            for (i, &h) in flippable[..k].iter().enumerate() {
                events.push((pace(start, span, i, k), h));
                alive[h.index()] = up;
            }
        }
        LoweredSchedule {
            // merge(none) canonicalizes: both event streams sorted by
            // (time, host) and deduplicated.
            churn: plan.merge(ChurnPlan::none()),
            partition: PartitionPlan::stack_all(cuts),
        }
    }

    /// The ewok-style default arc used by the repo benchmark's
    /// `continuous_lifecycle` workload and the documentation examples: start at `start_alive = 0.7`, grow by
    /// 25%, plateau, shed 30%, suffer a 30% cut, then heal — phase
    /// spans proportioned 2 : 3 : 2 : 2 : 1 over `horizon` ticks.
    ///
    /// # Panics
    /// Panics if `horizon < 10` (the five phases need at least a tick
    /// each).
    pub fn lifecycle(horizon: u64) -> Self {
        assert!(horizon >= 10, "lifecycle horizon too short: {horizon}");
        let unit = horizon / 10;
        PhaseSchedule::with_start_alive(0.7)
            .then(PhaseKind::Growth { fraction: 0.25 }, 2 * unit)
            .then(PhaseKind::Stable, 3 * unit)
            .then(PhaseKind::Shrink { fraction: 0.3 }, 2 * unit)
            .then(PhaseKind::Partition { fraction: 0.3 }, 2 * unit)
            .then(PhaseKind::Heal, horizon - 9 * unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pov_topology::generators;

    fn graph() -> Graph {
        generators::random_average_degree(120, 5.0, 9)
    }

    /// Replay the lowered plan and return the alive count at `t` (after
    /// all events at `t` applied; joins rank after failures at equal
    /// instants, matching the engine's tie-break).
    fn alive_at(plan: &ChurnPlan, n: usize, t: Time) -> usize {
        let mut events: Vec<(Time, bool, HostId)> = plan
            .failures
            .iter()
            .filter(|&&(ft, _)| ft <= t)
            .map(|&(ft, h)| (ft, false, h))
            .chain(
                plan.joins
                    .iter()
                    .filter(|&&(jt, _)| jt <= t)
                    .map(|&(jt, h)| (jt, true, h)),
            )
            .collect();
        events.sort_by_key(|&(et, is_join, h)| (et, is_join, h.0));
        let mut alive = vec![true; n];
        for h in plan.initially_dead() {
            alive[h.index()] = false;
        }
        for (_, is_join, h) in events {
            alive[h.index()] = is_join;
        }
        alive.iter().filter(|&&a| a).count()
    }

    #[test]
    fn lowering_is_deterministic() {
        let g = graph();
        let s = PhaseSchedule::lifecycle(10_000);
        let a = s.lower(&g, HostId(0), 42);
        let b = s.lower(&g, HostId(0), 42);
        assert_eq!(a.churn.failures, b.churn.failures);
        assert_eq!(a.churn.joins, b.churn.joins);
        assert_eq!(a.churn.dead_from_start, b.churn.dead_from_start);
        assert_eq!(a.partition, b.partition);
        let c = s.lower(&g, HostId(0), 43);
        assert_ne!(a.churn.joins, c.churn.joins, "seed must matter");
    }

    #[test]
    fn lifecycle_population_arc() {
        let g = graph();
        let n = g.num_hosts();
        let s = PhaseSchedule::lifecycle(10_000);
        let lowered = s.lower(&g, HostId(0), 7);
        // Start: 70% alive.
        let start = alive_at(&lowered.churn, n, Time(0));
        assert!(
            (start as f64 - 0.7 * n as f64).abs() <= 2.0,
            "start alive {start} of {n}"
        );
        // After growth (ticks 0..2000): +25% of n.
        let grown = alive_at(&lowered.churn, n, Time(2_000));
        assert!(grown > start, "growth must add hosts: {grown} vs {start}");
        // After shrink (ticks 5000..7000): −30% of n.
        let shrunk = alive_at(&lowered.churn, n, Time(7_000));
        assert!(shrunk < grown, "shrink must remove hosts");
        // After heal: everyone is back.
        let healed = alive_at(&lowered.churn, n, Time(10_000));
        assert_eq!(healed, n, "heal revives the whole population");
        // The partition phase lowered to one cut windowed inside it.
        let partition = lowered.partition.expect("lifecycle has a cut");
        let cuts: Vec<_> = partition.cuts().collect();
        assert_eq!(cuts.len(), 1);
        assert_eq!(cuts[0].1, &[(Time(7_000), Time(9_000))]);
    }

    #[test]
    fn spare_is_never_dead_or_severed() {
        let g = graph();
        let spare = HostId(5);
        let s = PhaseSchedule::with_start_alive(0.4)
            .then(PhaseKind::Shrink { fraction: 0.9 }, 500)
            .then(PhaseKind::Partition { fraction: 0.45 }, 500);
        let lowered = s.lower(&g, spare, 11);
        assert!(lowered.churn.failures.iter().all(|&(_, h)| h != spare));
        assert!(!lowered.churn.dead_from_start.contains(&spare));
    }

    #[test]
    fn labels_tile_the_horizon() {
        let s = PhaseSchedule::new()
            .then(PhaseKind::Growth { fraction: 0.1 }, 100)
            .then(PhaseKind::Stable, 50)
            .then(PhaseKind::Heal, 10);
        assert_eq!(s.label_at(Time(0)), "growth");
        assert_eq!(s.label_at(Time(99)), "growth");
        assert_eq!(s.label_at(Time(100)), "stable");
        assert_eq!(s.label_at(Time(149)), "stable");
        assert_eq!(s.label_at(Time(150)), "heal");
        assert_eq!(s.label_at(Time(159)), "heal");
        // Past the horizon the last regime stays in force.
        assert_eq!(s.label_at(Time(10_000)), "heal");
    }

    #[test]
    fn events_stay_inside_their_phases() {
        let g = graph();
        let s = PhaseSchedule::with_start_alive(0.5)
            .then(PhaseKind::Stable, 1_000)
            .then(PhaseKind::Growth { fraction: 0.3 }, 1_000)
            .then(PhaseKind::Stable, 1_000)
            .then(PhaseKind::Shrink { fraction: 0.2 }, 1_000);
        let lowered = s.lower(&g, HostId(0), 3);
        assert!(lowered
            .churn
            .joins
            .iter()
            .all(|&(t, _)| t >= Time(1_000) && t < Time(2_000)));
        assert!(lowered
            .churn
            .failures
            .iter()
            .all(|&(t, _)| t >= Time(3_000) && t < Time(4_000)));
        assert!(lowered.partition.is_none());
    }

    #[test]
    fn growth_caps_at_dead_population() {
        let g = graph();
        let n = g.num_hosts();
        // Everyone starts alive; a growth phase has nobody to add.
        let s = PhaseSchedule::new().then(PhaseKind::Growth { fraction: 0.5 }, 100);
        let lowered = s.lower(&g, HostId(0), 1);
        assert!(lowered.churn.joins.is_empty());
        assert_eq!(alive_at(&lowered.churn, n, Time(0)), n);
    }

    #[test]
    #[should_panic(expected = "at least one tick")]
    fn zero_tick_phase_rejected() {
        let _ = PhaseSchedule::new().then(PhaseKind::Stable, 0);
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn bad_start_alive_rejected() {
        let _ = PhaseSchedule::with_start_alive(0.0);
    }
}
