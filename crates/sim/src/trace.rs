//! Ground-truth event trace.
//!
//! The oracle of §6.2 *"observes all events in G"* and uses them to
//! compute the Single-Site-Validity bounds. The simulator records every
//! membership change here; the `pov-oracle` crate replays it.

use crate::Time;
use pov_topology::HostId;
use serde::{Deserialize, Serialize};

/// One membership change.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// Host left the network (failed) at the given time.
    Fail(Time, HostId),
    /// Host joined the network at the given time.
    Join(Time, HostId),
}

impl TraceEvent {
    /// The instant of the event.
    pub fn time(&self) -> Time {
        match *self {
            TraceEvent::Fail(t, _) | TraceEvent::Join(t, _) => t,
        }
    }

    /// The host involved.
    pub fn host(&self) -> HostId {
        match *self {
            TraceEvent::Fail(_, h) | TraceEvent::Join(_, h) => h,
        }
    }
}

/// Full ground truth of a run: which hosts were alive initially and every
/// later membership change, in time order.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Trace {
    /// Alive flags at time 0, indexed by host.
    pub initially_alive: Vec<bool>,
    /// Membership changes in the order they occurred.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    pub(crate) fn new(initially_alive: Vec<bool>) -> Self {
        Trace {
            initially_alive,
            events: Vec::new(),
        }
    }

    pub(crate) fn record(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }

    /// The initial flags with the time-ordered prefix of events applied,
    /// up to the first event at which `stop` holds, and that event's
    /// index: the one replay behind every alive-set query, which resumes
    /// from there.
    fn replay(&self, stop: impl Fn(Time) -> bool) -> (Vec<bool>, usize) {
        let mut alive = self.initially_alive.clone();
        let mut applied = 0;
        for ev in self.events.iter().take_while(|ev| !stop(ev.time())) {
            alive[ev.host().index()] = matches!(ev, TraceEvent::Join(..));
            applied += 1;
        }
        (alive, applied)
    }

    /// The events from index `from` up to and including instant `end`.
    fn until(&self, from: usize, end: Time) -> impl Iterator<Item = &TraceEvent> {
        self.events[from..]
            .iter()
            .take_while(move |ev| ev.time() <= end)
    }

    /// Alive flags at time `t` (inclusive of events at `t`).
    pub fn alive_at(&self, t: Time) -> Vec<bool> {
        self.replay(|time| time > t).0
    }

    /// Hosts alive at *every* instant of `[start, end]` — the building
    /// block of `HI` and of stable-path computations.
    pub fn alive_throughout(&self, start: Time, end: Time) -> Vec<bool> {
        let (mut alive, rest) = self.replay(|time| time > start);
        // A host that failed, or joined, mid-interval was not alive
        // throughout.
        for ev in self.until(rest, end) {
            alive[ev.host().index()] = false;
        }
        alive
    }

    /// Hosts alive at *some* instant of `[start, end]` — the `HU` bound.
    ///
    /// A host that fails exactly at `start` *was* alive at that instant,
    /// so the baseline applies only events strictly before `start`.
    pub fn alive_sometime(&self, start: Time, end: Time) -> Vec<bool> {
        let (mut alive, rest) = self.replay(|time| time >= start);
        // Failures do not clear the flag: the host *was* alive.
        for ev in self.until(rest, end) {
            if let TraceEvent::Join(_, h) = *ev {
                alive[h.index()] = true;
            }
        }
        alive
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        // 4 hosts; host 3 starts dead and joins at t=5; host 1 fails at t=3.
        let mut tr = Trace::new(vec![true, true, true, false]);
        tr.record(TraceEvent::Fail(Time(3), HostId(1)));
        tr.record(TraceEvent::Join(Time(5), HostId(3)));
        tr
    }

    #[test]
    fn alive_at_points_in_time() {
        let tr = sample_trace();
        assert_eq!(tr.alive_at(Time(0)), vec![true, true, true, false]);
        assert_eq!(tr.alive_at(Time(3)), vec![true, false, true, false]);
        assert_eq!(tr.alive_at(Time(9)), vec![true, false, true, true]);
    }

    #[test]
    fn alive_throughout_interval() {
        let tr = sample_trace();
        // Over [0,10]: host 0 and 2 never change; 1 fails; 3 joins late.
        assert_eq!(
            tr.alive_throughout(Time(0), Time(10)),
            vec![true, false, true, false]
        );
        // Over [4,10]: host 1 already dead at start; 3 joins inside.
        assert_eq!(
            tr.alive_throughout(Time(4), Time(10)),
            vec![true, false, true, false]
        );
        // Over [6,10]: host 3 alive the whole window.
        assert_eq!(
            tr.alive_throughout(Time(6), Time(10)),
            vec![true, false, true, true]
        );
    }

    #[test]
    fn alive_sometime_interval() {
        let tr = sample_trace();
        // HU over [0,10]: everyone was alive at some point.
        assert_eq!(
            tr.alive_sometime(Time(0), Time(10)),
            vec![true, true, true, true]
        );
        // Over [4,4]: host 1 dead, host 3 not yet joined.
        assert_eq!(
            tr.alive_sometime(Time(4), Time(4)),
            vec![true, false, true, false]
        );
    }

    #[test]
    fn alive_at_same_tick_fail_then_join() {
        // Fail and Join of the same host at the same tick apply in trace
        // order: the later event wins at that instant.
        let mut tr = Trace::new(vec![true, true]);
        tr.record(TraceEvent::Fail(Time(4), HostId(0)));
        tr.record(TraceEvent::Join(Time(4), HostId(0)));
        assert_eq!(tr.alive_at(Time(3)), vec![true, true]);
        assert_eq!(tr.alive_at(Time(4)), vec![true, true], "rejoin wins");
        assert_eq!(tr.alive_at(Time(5)), vec![true, true]);

        let mut tr = Trace::new(vec![false, true]);
        tr.record(TraceEvent::Join(Time(4), HostId(0)));
        tr.record(TraceEvent::Fail(Time(4), HostId(0)));
        assert_eq!(tr.alive_at(Time(4)), vec![false, true], "fail wins");
    }

    #[test]
    fn alive_throughout_window_edges() {
        let tr = sample_trace();
        // A fail exactly at `start` is inclusive: host 1 is not alive
        // throughout [3, x] for any x.
        assert_eq!(
            tr.alive_throughout(Time(3), Time(3)),
            vec![true, false, true, false]
        );
        // One tick earlier the window [2,2] closes before the failure.
        assert_eq!(
            tr.alive_throughout(Time(2), Time(2)),
            vec![true, true, true, false]
        );
        // A join exactly at `end` still counts as mid-interval: host 3
        // was dead for every instant of [4,5) and so is excluded.
        assert_eq!(
            tr.alive_throughout(Time(4), Time(5)),
            vec![true, false, true, false]
        );
        // Starting exactly at the join instant includes the host:
        // alive_at(5) already sees the join, and nothing later clears it.
        assert_eq!(
            tr.alive_throughout(Time(5), Time(10)),
            vec![true, false, true, true]
        );
        // Degenerate window [t, t] equals alive_at(t).
        assert_eq!(tr.alive_throughout(Time(5), Time(5)), tr.alive_at(Time(5)));
    }

    #[test]
    fn alive_throughout_rejoin_within_window_excludes_host() {
        // Fail then rejoin inside the window: the host missed an instant,
        // so it is not alive throughout — even though it is alive at both
        // window edges.
        let mut tr = Trace::new(vec![true]);
        tr.record(TraceEvent::Fail(Time(4), HostId(0)));
        tr.record(TraceEvent::Join(Time(6), HostId(0)));
        assert_eq!(tr.alive_throughout(Time(0), Time(10)), vec![false]);
        assert_eq!(tr.alive_at(Time(0)), vec![true]);
        assert_eq!(tr.alive_at(Time(10)), vec![true]);
    }

    #[test]
    fn alive_sometime_window_edges() {
        let tr = sample_trace();
        // A host failing exactly at `start` *was* alive at that instant:
        // the baseline applies only events strictly before `start`.
        assert_eq!(
            tr.alive_sometime(Time(3), Time(10)),
            vec![true, true, true, true]
        );
        // One tick later the failure is history: host 1 is out.
        assert_eq!(
            tr.alive_sometime(Time(4), Time(10)),
            vec![true, false, true, true]
        );
        // A join exactly at `end` is inclusive: host 3 counts over [0,5].
        assert_eq!(
            tr.alive_sometime(Time(0), Time(5)),
            vec![true, true, true, true]
        );
        // ...but not over [0,4].
        assert_eq!(
            tr.alive_sometime(Time(0), Time(4)),
            vec![true, true, true, false]
        );
        // Degenerate window [t, t]: join at that very tick counts.
        assert_eq!(
            tr.alive_sometime(Time(5), Time(5)),
            vec![true, false, true, true]
        );
    }

    #[test]
    fn alive_sometime_same_tick_fail_and_join() {
        // Host fails at the window start and a different host joins at
        // the same tick: both count as "alive sometime".
        let mut tr = Trace::new(vec![true, false]);
        tr.record(TraceEvent::Fail(Time(7), HostId(0)));
        tr.record(TraceEvent::Join(Time(7), HostId(1)));
        assert_eq!(tr.alive_sometime(Time(7), Time(9)), vec![true, true]);
        // Before the window both changes are baseline: host 0 gone,
        // host 1 in.
        assert_eq!(tr.alive_sometime(Time(8), Time(9)), vec![false, true]);
    }

    #[test]
    fn event_accessors() {
        let ev = TraceEvent::Fail(Time(2), HostId(7));
        assert_eq!(ev.time(), Time(2));
        assert_eq!(ev.host(), HostId(7));
    }
}
