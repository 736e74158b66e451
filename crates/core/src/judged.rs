//! Run protocols and have the ORACLE judge them — the shared execution
//! layer under the façade ([`crate::Network`] / [`crate::QueryBuilder`]),
//! the scenario batch runner and the continuous-query driver.
//!
//! Two entry points, one plan type:
//!
//! * [`judged_run`] — the single-run primitive: execute one
//!   [`ProtocolKind`] over a graph under a [`RunPlan`]'s environment,
//!   replay the membership trace through the §6.2 ORACLE, and return
//!   the declared value with its Single-Site-Validity verdict and §6.3
//!   cost metrics.
//! * [`judged_plan`] — the plan executor: one [`JudgedOutcome`] **per
//!   protocol per window**, every protocol fed the *same*
//!   churn/partition/seed realization (paired comparison), with
//!   continuous windows sliced from one absolute-time plan.

use pov_oracle::{aggregate_bounds, host_sets, ssv_deviation, Verdict};
use pov_protocols::{runner, ContinuousSpec, ProtocolKind, RunPlan};
use pov_sim::{ChurnPlan, Metrics, PartitionPlan, Time};
use pov_topology::{Graph, HostId};

/// A declared value, the ORACLE's judgement of it, and the run's costs.
#[derive(Clone, Debug)]
pub struct JudgedOutcome {
    /// The value `hq` declared (`None` if `hq` died first).
    pub value: Option<f64>,
    /// When it was declared.
    pub declared_at: Option<Time>,
    /// The ORACLE's Single-Site-Validity judgement over the query
    /// interval `[0, declared_at]` (or the full deadline when nothing
    /// was declared).
    pub verdict: Verdict,
    /// `|HC|` — hosts continuously reachable from `hq` over the interval.
    pub hc_size: usize,
    /// `|HU|` — hosts alive at some instant of the interval.
    pub hu_size: usize,
    /// The valid envelope `[q(HC), q(HU)]` for interval-bounded
    /// aggregates (count/sum; `None` for min/max/avg, whose validity is
    /// witness-based).
    pub bounds: Option<(f64, f64)>,
    /// §6.3 cost metrics.
    pub metrics: Metrics,
}

impl JudgedOutcome {
    /// Time cost in ticks (declaration instant at `hq`).
    pub fn time_cost(&self) -> Option<u64> {
        self.declared_at.map(Time::ticks)
    }

    /// Multiplicative deviation of the declared value from the valid
    /// envelope: `max(q(HC)/v, v/q(HU), 1)`. `1.0` means the value sat
    /// inside the bounds; WILDFIRE's Approximate SSV (Thm 5.3) keeps
    /// this within FM noise while best-effort protocols blow up. `None`
    /// when the aggregate has no interval bounds, nothing was declared,
    /// or `v <= 0`.
    pub fn deviation(&self) -> Option<f64> {
        let (lo, hi) = self.bounds?;
        ssv_deviation(self.value?, lo, hi)
    }
}

/// One window's judged outcome within a [`ProtocolJudged`] series.
#[derive(Clone, Debug)]
pub struct WindowJudged {
    /// Absolute start instant of the window (always `0` for one-shots).
    pub start: Time,
    /// The window's judged outcome.
    pub judged: JudgedOutcome,
}

/// Everything one protocol produced under a plan: one judged outcome
/// per window (exactly one for a one-shot plan; the series may stop
/// early if `hq` dies between continuous windows).
#[derive(Clone, Debug)]
pub struct ProtocolJudged {
    /// The protocol that ran.
    pub kind: ProtocolKind,
    /// Per-window outcomes, in window order.
    pub windows: Vec<WindowJudged>,
}

impl ProtocolJudged {
    /// The single outcome of a one-shot plan.
    ///
    /// # Panics
    /// Panics if the series is empty (a one-shot always has one window).
    pub fn one(&self) -> &JudgedOutcome {
        &self.windows[0].judged
    }
}

/// Run `kind` over `graph` (host `h` holding `values[h]`) under the
/// environment half of `plan` — one one-shot query — then judge the
/// outcome against the ORACLE bounds. `plan.protocols` and
/// `plan.continuous` are [`judged_plan`]'s concern and are not read
/// here.
pub fn judged_run(
    kind: ProtocolKind,
    graph: &Graph,
    values: &[u64],
    plan: &RunPlan,
) -> JudgedOutcome {
    let outcome = runner::run(kind, graph, values, plan);
    // The query interval ends at declaration, or at the full deadline
    // `2·D̂·δ` in ticks when nothing was declared.
    let end = outcome.declared_at.unwrap_or(Time(plan.deadline()));
    let sets = host_sets(graph, &outcome.trace, plan.hq, Time::ZERO, end);
    let verdict = Verdict::judge(
        plan.aggregate,
        &sets,
        values,
        outcome.value.unwrap_or(f64::NAN),
    );
    JudgedOutcome {
        value: outcome.value,
        declared_at: outcome.declared_at,
        verdict,
        hc_size: sets.hc_len(),
        hu_size: sets.hu_len(),
        bounds: aggregate_bounds(plan.aggregate, &sets, values),
        metrics: outcome.metrics,
    }
}

/// Execute a whole [`RunPlan`]: every protocol in `plan.protocols`, one
/// judged outcome per window, all from the **same** churn, partition
/// and seed realization. For one-shot plans each protocol yields a
/// single window at `start = 0`; for continuous plans (§4.2) the
/// absolute-time churn/partition schedule is sliced into per-window
/// local plans ([`window_local_plans`]), so "protocol A vs protocol B
/// across windows" is a paired comparison on identical dynamism.
///
/// # Panics
/// Panics if `plan.protocols` is empty, or on any plan
/// [`window_local_plans`] rejects: a continuous window shorter than the
/// one-shot deadline `2·D̂·δ` (a window must fit a full query round,
/// §4.2), or a dynamic adversary with continuous windows.
pub fn judged_plan(graph: &Graph, values: &[u64], plan: &RunPlan) -> Vec<ProtocolJudged> {
    assert!(
        !plan.protocols.is_empty(),
        "RunPlan has no protocols to execute; add one with .protocol(..)"
    );
    // Slice the windows ONCE, then feed every protocol the same local
    // plans: the shared-realization guarantee is structural, and the
    // O(hosts + events) history replays run per window, not per
    // protocol per window.
    let locals = window_local_plans(graph, plan);
    plan.protocols
        .iter()
        .map(|&kind| ProtocolJudged {
            kind,
            windows: locals
                .iter()
                .map(|(start, local)| WindowJudged {
                    start: *start,
                    judged: judged_run(kind, graph, values, local),
                })
                .collect(),
        })
        .collect()
}

/// The absolute start instant of every window [`judged_plan`] will
/// judge: a single `0` for a one-shot plan, `w × W` for each window of
/// a continuous plan. Long-horizon phased regimes
/// ([`pov_sim::PhaseSchedule`]) lower to absolute-time plans whose
/// phase boundaries rarely align with window boundaries; callers pair
/// these instants with `PhaseSchedule::label_at` to tag each judged
/// window with the regime in force when it opened (the scenario
/// runner's `phase` column).
/// Note the judged series itself may stop early if `hq` dies — align
/// by each [`WindowJudged::start`], not by index alone.
pub fn window_starts(plan: &RunPlan) -> Vec<Time> {
    match plan.continuous {
        None => vec![Time::ZERO],
        Some(cs) => (0..cs.windows)
            .map(|w| Time(w as u64 * cs.window))
            .collect(),
    }
}

/// The per-window local plans [`judged_plan`] executes, exposed for
/// callers that drive the same windows through a different executor —
/// the trace runner replays each `(start, local_plan)` with a telemetry
/// recorder attached, and byte-identical traces across thread counts
/// hinge on using *exactly* this slicing (same window-indexed seeds,
/// same churn/partition history replay).
///
/// A one-shot plan yields a single `(Time::ZERO, plan)` entry; a
/// continuous plan yields one entry per window, stopping early if `hq`
/// is dead at a window start. The local plans carry the environment
/// only — their `protocols` lists are empty.
///
/// # Panics
/// Panics if a continuous window is shorter than the one-shot deadline,
/// or a dynamic adversary is combined with continuous windows.
pub fn window_local_plans(graph: &Graph, plan: &RunPlan) -> Vec<(Time, RunPlan)> {
    // Continuous windows re-express the *pre-materialized* plan in each
    // window's local time by replaying its history; a dynamic adversary
    // decides its kills during the run, so its schedule cannot be
    // replayed into later windows' start states. Reject the combination
    // rather than judging window 1+ against the wrong membership.
    assert!(
        plan.adversary.is_none() || plan.continuous.is_none(),
        "a dynamic adversary cannot be combined with continuous windows \
         (its kills are not replayable into window-local churn plans)"
    );
    match plan.continuous {
        None => vec![(
            Time::ZERO,
            RunPlan {
                protocols: Vec::new(),
                ..plan.clone()
            },
        )],
        Some(cs) => window_plans(graph, plan, cs),
    }
}

/// The continuous slicer: one local [`RunPlan`] per window, each
/// describing a one-shot against the membership state the absolute-time
/// plan has reached by the window start. Stops early if `hq` is dead at
/// a window start.
fn window_plans(graph: &Graph, plan: &RunPlan, cs: ContinuousSpec) -> Vec<(Time, RunPlan)> {
    assert!(
        cs.window >= plan.deadline(),
        "window must fit a full query round (W >= 2·D̂·δ)"
    );
    let mut locals = Vec::with_capacity(cs.windows);
    let mut replay = ChurnReplay::new(&plan.churn, graph.num_hosts());
    for w in 0..cs.windows {
        let start = Time(w as u64 * cs.window);
        let state = replay.advance_to(start);
        let Some(local_churn) = local_churn(&plan.churn, state, start, plan.hq) else {
            break; // hq is dead at this window's start
        };
        let local = RunPlan {
            churn: local_churn,
            partition: plan
                .partition
                .as_ref()
                .and_then(|p| slice_partition(p, start)),
            // Window-indexed seed, identical across protocols: every
            // protocol sees the same per-window realization.
            seed: plan.seed.wrapping_add(w as u64),
            protocols: Vec::new(),
            continuous: None,
            ..plan.clone()
        };
        locals.push((start, local));
    }
    locals
}

/// A host's membership at a window start.
#[derive(Clone, Copy, PartialEq)]
enum State {
    Alive,
    Dead,
}

/// The plan's membership history, replayed forward once across all
/// windows: each window start applies only the events since the
/// previous one. At equal instants a join applies after a failure (the
/// host ends the tick alive), matching `ChurnPlan::initially_dead`'s
/// first-event convention.
struct ChurnReplay {
    /// Every host's state after the events applied so far.
    state: Vec<State>,
    /// Every failure and join as `(time, host, is_join)`, sorted.
    history: Vec<(Time, u32, bool)>,
    /// How many of `history` are applied.
    applied: usize,
}

impl ChurnReplay {
    fn new(churn: &ChurnPlan, num_hosts: usize) -> Self {
        let mut state = vec![State::Alive; num_hosts];
        for h in churn.initially_dead() {
            state[h.index()] = State::Dead;
        }
        let fails = churn.failures.iter().map(|&(t, h)| (t, h.0, false));
        let joins = churn.joins.iter().map(|&(t, h)| (t, h.0, true));
        let mut history: Vec<(Time, u32, bool)> = fails.chain(joins).collect();
        history.sort_unstable();
        ChurnReplay {
            state,
            history,
            applied: 0,
        }
    }

    /// Every host's state at `start`: the events before it applied.
    /// Window starts must not decrease from call to call.
    fn advance_to(&mut self, start: Time) -> &[State] {
        for &(_, h, is_join) in self.history[self.applied..]
            .iter()
            .take_while(|&&(t, _, _)| t < start)
        {
            self.state[h as usize] = if is_join { State::Alive } else { State::Dead };
            self.applied += 1;
        }
        &self.state
    }
}

/// Re-express the absolute-time `churn` in a window's local time, given
/// every host's `state` at the window `start`: the events before
/// `start` collapse into that state, events at or after `start` shift
/// left by `start`. A host dead at `start` is encoded through the
/// engine's initially-dead convention: if it rejoins later the shifted
/// join does the job; if it never does, it is pinned down for the whole
/// window with the explicit [`ChurnPlan::with_initially_dead`] marker (a
/// sentinel join at `Time(u64::MAX)` would keep it down too, but any
/// later shift or merge arithmetic over such a plan could wrap).
/// Returns `None` if `hq` itself is dead at `start`.
fn local_churn(churn: &ChurnPlan, state: &[State], start: Time, hq: HostId) -> Option<ChurnPlan> {
    let num_hosts = state.len();
    if state[hq.index()] == State::Dead {
        return None;
    }
    let mut local = ChurnPlan::none();
    let shift = |t: Time| Time(t.ticks() - start.ticks());
    for &(t, h) in churn.failures.iter().filter(|&&(t, _)| t >= start) {
        local = local.with_failure(shift(t), h);
    }
    for &(t, h) in churn.joins.iter().filter(|&&(t, _)| t >= start) {
        local = local.with_join(shift(t), h);
    }
    // Normalize no-op events so each host's *first* local event matches
    // its start state — `ChurnPlan::initially_dead` and the engine read
    // state off that first event. Stacked regimes (`.churn(a).churn(b)`)
    // legitimately produce redundant events: a failure scheduled for a
    // host already dead at the window start, or a join for one already
    // alive. Both are no-ops in the full-timeline run and must stay
    // no-ops after slicing — dropped here, with the explicit
    // initially-dead marker for dead hosts that never rejoin.
    let mut first_fail: Vec<Option<Time>> = vec![None; num_hosts];
    let mut first_join: Vec<Option<Time>> = vec![None; num_hosts];
    for &(t, h) in &local.failures {
        let slot = &mut first_fail[h.index()];
        *slot = Some(slot.map_or(t, |f: Time| f.min(t)));
    }
    for &(t, h) in &local.joins {
        let slot = &mut first_join[h.index()];
        *slot = Some(slot.map_or(t, |j: Time| j.min(t)));
    }
    // Strictly after the first join: a dead host's failure *at* the
    // first-join tick is a no-op (fails apply before joins at equal
    // instants, and the host is still down), but keeping it would make
    // the fail the host's first local event — which `initially_dead`'s
    // fail-before-join tie-break reads as "starts alive".
    local.failures.retain(|&(t, h)| {
        state[h.index()] == State::Alive || first_join[h.index()].is_some_and(|j| t > j)
    });
    local.joins.retain(|&(t, h)| {
        state[h.index()] == State::Dead || first_fail[h.index()].is_some_and(|f| t >= f)
    });
    for (i, &s) in state.iter().enumerate() {
        if s == State::Dead && first_join[i].is_none() {
            local = local.with_initially_dead(HostId(i as u32));
        }
    }
    Some(local)
}

/// The slicer before [`ChurnReplay`]: replays the whole history up to
/// `start` from time 0 for every window. The reference the one-pass
/// replay is property-tested against.
#[cfg(test)]
fn slice_churn(churn: &ChurnPlan, num_hosts: usize, start: Time, hq: HostId) -> Option<ChurnPlan> {
    let mut state = vec![State::Alive; num_hosts];
    for h in churn.initially_dead() {
        state[h.index()] = State::Dead;
    }
    let mut history: Vec<(Time, u32, bool)> = churn
        .failures
        .iter()
        .filter(|&&(t, _)| t < start)
        .map(|&(t, h)| (t, h.0, false))
        .chain(
            churn
                .joins
                .iter()
                .filter(|&&(t, _)| t < start)
                .map(|&(t, h)| (t, h.0, true)),
        )
        .collect();
    history.sort_unstable_by_key(|&(t, h, is_join)| (t, h, is_join));
    for (_, h, is_join) in history {
        state[h as usize] = if is_join { State::Alive } else { State::Dead };
    }
    local_churn(churn, &state, start, hq)
}

/// Shift a partition plan's active windows into a window's local time,
/// clipping at the window start — cut by cut, so cascading (stacked)
/// partitions slice like single ones. Returns `None` when no cut
/// overlaps the remaining timeline — degenerate (zero-length) windows,
/// whether present in the source plan or produced by the clamp, are
/// skipped so a dead cut never masquerades as an active partition
/// downstream; cuts left without windows are dropped entirely.
fn slice_partition(plan: &PartitionPlan, start: Time) -> Option<PartitionPlan> {
    PartitionPlan::stack_all(plan.cuts().filter_map(|(sides, windows)| {
        let mut local = PartitionPlan::new(sides.to_vec());
        let mut any = false;
        for &(from, until) in windows {
            if until <= start {
                continue;
            }
            let f = from.ticks().saturating_sub(start.ticks());
            let u = until.ticks() - start.ticks();
            if f == u {
                // A zero-length `[f, f)` cut can never activate;
                // counting it would hand callers a Some(plan) whose
                // every window is inert.
                continue;
            }
            local = local.window(Time(f), Time(u));
            any = true;
        }
        any.then_some(local)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pov_protocols::wildfire::WildfireOpts;
    use pov_protocols::Aggregate;
    use pov_sim::{ChurnPlan, PartitionPlan};
    use pov_topology::generators::special;
    use pov_topology::HostId;

    #[test]
    fn judged_wildfire_max_is_valid() {
        let g = special::cycle(20);
        let values: Vec<u64> = (1..=20).collect();
        let cfg = RunPlan::query(Aggregate::Max).d_hat(11);
        let out = judged_run(
            ProtocolKind::Wildfire(WildfireOpts::default()),
            &g,
            &values,
            &cfg,
        );
        assert_eq!(out.value, Some(20.0));
        assert!(out.verdict.is_valid());
        assert_eq!(out.hc_size, 20);
        assert_eq!(out.hu_size, 20);
        assert!(out.metrics.messages_sent > 0);
        assert!(out.time_cost().is_some());
    }

    #[test]
    fn churn_shrinks_hc_through_judged_run() {
        let g = special::cycle(12);
        let cfg = RunPlan::query(Aggregate::Count).d_hat(7).churn(
            ChurnPlan::none()
                .with_failure(Time(1), HostId(5))
                .with_failure(Time(1), HostId(8)),
        );
        let out = judged_run(ProtocolKind::SpanningTree, &g, &[1; 12], &cfg);
        // Two failures on a cycle strand the arc between them.
        assert!(out.hc_size < 10, "hc = {}", out.hc_size);
        assert_eq!(out.hu_size, 12);
    }

    #[test]
    fn partition_runs_through_judged_run() {
        // Sever half a cycle for the whole query: WILDFIRE cannot hear
        // the far side even though every host stays alive, so the count
        // undershoots HC — the partition regime violates validity in a
        // way failure-only churn never makes WILDFIRE do.
        let g = special::cycle(16);
        let sides = (0..16u8).map(|i| u8::from(i >= 8)).collect();
        let cfg = RunPlan::query(Aggregate::Count)
            .d_hat(9)
            .partition(PartitionPlan::new(sides).window(Time(0), Time(1_000)));
        let out = judged_run(ProtocolKind::SpanningTree, &g, &[1; 16], &cfg);
        let v = out.value.expect("hq alive");
        assert!(v < 16.0, "partition must hide hosts, got {v}");
        // All 16 hosts remain alive: HU (and HC — paths exist in the
        // static graph) still count them.
        assert_eq!(out.hu_size, 16);
    }

    #[test]
    fn plan_pairs_protocols_on_one_realization() {
        let g = special::cycle(24);
        let plan = RunPlan::query(Aggregate::Count)
            .d_hat(13)
            .churn(ChurnPlan::uniform_failures(
                24,
                6,
                Time(0),
                Time(26),
                HostId(0),
                3,
            ))
            .seed(9)
            .protocols([
                ProtocolKind::Wildfire(WildfireOpts::default()),
                ProtocolKind::SpanningTree,
            ]);
        let judged = judged_plan(&g, &[1; 24], &plan);
        assert_eq!(judged.len(), 2);
        let wf = judged[0].one();
        let st = judged[1].one();
        // Identical churn realization ⇒ identical oracle sets whenever
        // both protocols declare at the same deadline-driven instant…
        assert_eq!(wf.hu_size, st.hu_size);
        // …and dropping one protocol does not change the other's run.
        let solo = judged_plan(
            &g,
            &[1; 24],
            &plan
                .clone()
                .protocols([ProtocolKind::Wildfire(WildfireOpts::default())]),
        );
        assert_eq!(solo[0].one().value, wf.value);
        assert_eq!(
            solo[0].one().metrics.messages_sent,
            wf.metrics.messages_sent
        );
    }

    #[test]
    fn continuous_plan_yields_one_judged_per_window() {
        let g = special::cycle(20);
        let plan = RunPlan::query(Aggregate::Max)
            .d_hat(11)
            .continuous(24, 3)
            .protocol(ProtocolKind::Wildfire(WildfireOpts::default()));
        let judged = judged_plan(&g, &(1..=20).collect::<Vec<u64>>(), &plan);
        assert_eq!(judged[0].windows.len(), 3);
        for (w, win) in judged[0].windows.iter().enumerate() {
            assert_eq!(win.start, Time(w as u64 * 24));
            assert_eq!(win.judged.value, Some(20.0));
            assert!(win.judged.verdict.is_valid(), "window {w}");
        }
    }

    #[test]
    fn continuous_windows_see_evolving_membership() {
        // Host 10 dies during window 0 and stays dead: later windows
        // must judge against the shrunken population (`HU` drops) while
        // the max — held by the surviving host 5 — keeps coming back.
        // `D̂ = 20` covers the broken ring's chain diameter of 18.
        let g = special::cycle(20);
        let mut values = vec![1u64; 20];
        values[5] = 100;
        let plan = RunPlan::query(Aggregate::Max)
            .d_hat(20)
            .churn(ChurnPlan::none().with_failure(Time(30), HostId(10)))
            .continuous(40, 3)
            .protocol(ProtocolKind::Wildfire(WildfireOpts::default()));
        let windows = &judged_plan(&g, &values, &plan)[0].windows;
        assert_eq!(windows.len(), 3);
        for w in windows {
            assert_eq!(w.judged.value, Some(100.0));
            assert!(w.judged.verdict.is_valid(), "window at {:?}", w.start);
        }
        assert_eq!(windows[0].judged.hu_size, 20, "alive until t=30");
        assert_eq!(windows[1].judged.hu_size, 19, "dead before window 1");
        assert_eq!(windows[2].judged.hu_size, 19);
    }

    #[test]
    fn continuous_handles_fail_then_rejoin_across_windows() {
        // Host 10 fails in window 0 and rejoins during window 1: window
        // 1's sliced plan must carry the dead state in *and* the join
        // event — the initially_dead round trip, across window
        // boundaries — and window 2 must see the host alive throughout.
        let g = special::cycle(20);
        let mut values = vec![1u64; 20];
        values[5] = 100;
        let churn = ChurnPlan::none()
            .with_failure(Time(30), HostId(10))
            .with_join(Time(50), HostId(10));
        let plan = RunPlan::query(Aggregate::Max)
            .d_hat(20)
            .churn(churn)
            .continuous(40, 3)
            .protocol(ProtocolKind::Wildfire(WildfireOpts::default()));
        let windows = &judged_plan(&g, &values, &plan)[0].windows;
        assert_eq!(windows.len(), 3);
        // Window 1: h10 starts dead (HC excludes it) but rejoins at
        // local t=10, so HU still counts all 20 — a mis-sliced plan that
        // dropped the join would report 19.
        assert!(windows[1].judged.hc_size < 20);
        assert_eq!(windows[1].judged.hu_size, 20);
        // Window 2: h10 has been back since t=50 < 80; the ring is whole
        // again and the window is statically valid.
        assert_eq!(windows[2].judged.hc_size, 20);
        assert_eq!(windows[2].judged.hu_size, 20);
        assert_eq!(windows[2].judged.value, Some(100.0));
        assert!(windows[2].judged.verdict.is_valid());
    }

    #[test]
    fn phased_schedule_judged_across_window_boundaries() {
        // A four-phase arc lowered onto a continuous plan whose window
        // grid does NOT align with the phase boundaries: every window
        // must still judge against the membership the absolute-time
        // schedule has reached, and `window_starts` + `label_at` must
        // tag each window with the phase in force when it opened.
        use pov_sim::{PhaseKind, PhaseSchedule};
        let g = pov_topology::generators::random_average_degree(60, 6.0, 4);
        let n = g.num_hosts();
        let values = vec![1u64; n];
        let d_hat = 8; // one-shot deadline 16 ticks
        let horizon = 16 * 12; // 12 windows, 4 phases of 3 windows each
        let schedule = PhaseSchedule::with_start_alive(0.6)
            .then(PhaseKind::Growth { fraction: 0.4 }, horizon / 4)
            .then(PhaseKind::Stable, horizon / 4)
            .then(PhaseKind::Shrink { fraction: 0.5 }, horizon / 4)
            .then(PhaseKind::Heal, horizon / 4);
        let lowered = schedule.lower(&g, HostId(0), 5);
        let plan = RunPlan::query(Aggregate::Count)
            .d_hat(d_hat)
            .churn(lowered.churn)
            .seed(2)
            .continuous(16, 12)
            .protocol(ProtocolKind::SpanningTree);
        let starts = window_starts(&plan);
        assert_eq!(starts.len(), 12);
        assert_eq!(starts[0], Time::ZERO);
        assert_eq!(starts[11], Time(11 * 16));
        let labels: Vec<&str> = starts.iter().map(|&s| schedule.label_at(s)).collect();
        assert_eq!(
            labels,
            [
                "growth", "growth", "growth", "stable", "stable", "stable", "shrink", "shrink",
                "shrink", "heal", "heal", "heal"
            ]
        );
        let windows = &judged_plan(&g, &values, &plan)[0].windows;
        // hq is the schedule's spare: it survives every phase, so the
        // series never stops early and aligns with the planned starts.
        assert_eq!(windows.len(), 12);
        for (w, start) in windows.iter().zip(&starts) {
            assert_eq!(w.start, *start);
        }
        // HU traces the population arc across the boundaries: the last
        // stable window sees the fully grown overlay, the first heal
        // window sees the post-shrink trough, and by the final window
        // the healed joins have brought the count back up.
        let hu = |w: usize| windows[w].judged.hu_size;
        assert!(
            hu(5) > hu(0),
            "growth must raise HU: {} vs {}",
            hu(5),
            hu(0)
        );
        assert!(
            hu(9) < hu(5),
            "shrink must cut HU before heal: {} vs {}",
            hu(9),
            hu(5)
        );
        assert!(
            hu(11) > hu(9),
            "heal must recover HU: {} vs {}",
            hu(11),
            hu(9)
        );
    }

    #[test]
    fn window_local_plans_mirror_judged_plan_slicing() {
        let g = special::cycle(20);
        let churn = ChurnPlan::none()
            .with_failure(Time(30), HostId(10))
            .with_join(Time(50), HostId(10));
        let plan = RunPlan::query(Aggregate::Max)
            .d_hat(20)
            .churn(churn)
            .seed(13)
            .continuous(40, 3)
            .protocol(ProtocolKind::Wildfire(WildfireOpts::default()));
        let locals = window_local_plans(&g, &plan);
        assert_eq!(locals.len(), 3);
        for (w, (start, local)) in locals.iter().enumerate() {
            assert_eq!(*start, Time(w as u64 * 40));
            assert_eq!(local.seed, plan.seed.wrapping_add(w as u64));
            assert!(local.protocols.is_empty(), "environment only");
            assert!(local.continuous.is_none());
        }
        // Window 1 starts with h10 down and carries its rejoin, exactly
        // as the judged executor slices it.
        let w1 = &locals[1].1;
        assert!(w1.churn.initially_dead().any(|h| h == HostId(10)));
        assert!(w1.churn.joins.contains(&(Time(10), HostId(10))));
        // Replaying a window's local plan through judged_run matches the
        // judged_plan outcome for that window — the consistency the
        // trace runner depends on.
        let windows = &judged_plan(&g, &[1; 20], &plan)[0].windows;
        let kind = ProtocolKind::Wildfire(WildfireOpts::default());
        let replay = judged_run(kind, &g, &[1; 20], w1);
        assert_eq!(replay.value, windows[1].judged.value);
        assert_eq!(
            replay.metrics.messages_sent,
            windows[1].judged.metrics.messages_sent
        );

        // One-shot plans collapse to a single zero-start window.
        let one_shot = RunPlan::query(Aggregate::Count)
            .d_hat(5)
            .protocol(ProtocolKind::SpanningTree);
        let locals = window_local_plans(&g, &one_shot);
        assert_eq!(locals.len(), 1);
        assert_eq!(locals[0].0, Time::ZERO);
    }

    #[test]
    fn stray_failure_on_dead_host_does_not_resurrect_it() {
        // Merged plans can schedule a redundant failure on a host that
        // is already dead (fail@30 merged with a stray fail@42, no
        // rejoin). In window 1 the first *local* event for h10 would be
        // that no-op failure — which `initially_dead`'s first-event rule
        // reads as "starts alive". The slicer must drop it: h10 stays
        // down for the whole window and HU must not count it.
        let g = special::cycle(20);
        let churn = ChurnPlan::none()
            .with_failure(Time(30), HostId(10))
            .merge(ChurnPlan::none().with_failure(Time(42), HostId(10)));
        let plan = RunPlan::query(Aggregate::Max)
            .d_hat(20)
            .churn(churn)
            .continuous(40, 2)
            .protocol(ProtocolKind::Wildfire(WildfireOpts::default()));
        let windows = &judged_plan(&g, &[1; 20], &plan)[0].windows;
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].judged.hu_size, 20, "alive until t=30");
        assert_eq!(
            windows[1].judged.hu_size, 19,
            "a no-op failure must not resurrect the dead host"
        );
    }

    #[test]
    fn stray_join_on_alive_host_does_not_bury_it() {
        // The mirror case: stacked join-producing regimes can schedule a
        // redundant join on a host that is alive at a window start
        // (join@20 merged with a stray join@60, no failures). In window
        // 1 the stray join would be h10's first local event, which
        // `initially_dead` reads as "starts dead". The slicer must drop
        // it: h10 stays up all window and HC/HU keep counting it.
        let g = special::cycle(20);
        let churn = ChurnPlan::none()
            .with_join(Time(20), HostId(10))
            .merge(ChurnPlan::none().with_join(Time(60), HostId(10)));
        let plan = RunPlan::query(Aggregate::Max)
            .d_hat(20)
            .churn(churn)
            .continuous(40, 2)
            .protocol(ProtocolKind::Wildfire(WildfireOpts::default()));
        let windows = &judged_plan(&g, &[1; 20], &plan)[0].windows;
        assert_eq!(windows.len(), 2);
        assert_eq!(
            windows[1].judged.hc_size, 20,
            "a no-op join must not bury the alive host"
        );
        assert_eq!(windows[1].judged.hu_size, 20);
    }

    #[test]
    fn continuous_stops_when_hq_dies() {
        let g = special::cycle(12);
        let plan = RunPlan::query(Aggregate::Count)
            .d_hat(7)
            .churn(ChurnPlan::none().with_failure(Time(20), HostId(0)))
            .continuous(16, 4)
            .protocol(ProtocolKind::SpanningTree);
        let windows = &judged_plan(&g, &[1; 12], &plan)[0].windows;
        // hq dies at t=20, inside window 1 (16..32): windows 2+ never run.
        assert!(windows.len() <= 2, "got {} windows", windows.len());
    }

    #[test]
    fn continuous_slices_partitions_into_local_time() {
        // A cut active across [20, 44) spans windows 0..2 of width 24:
        // window 0 sees it from local t=20, window 1 from local t=0.
        let g = special::cycle(16);
        let sides: Vec<u8> = (0..16u8).map(|i| u8::from(i >= 8)).collect();
        let plan = RunPlan::query(Aggregate::Count)
            .d_hat(9)
            .partition(PartitionPlan::new(sides).window(Time(20), Time(44)))
            .continuous(24, 3)
            .protocol(ProtocolKind::SpanningTree);
        let windows = &judged_plan(&g, &[1; 16], &plan)[0].windows;
        assert_eq!(windows.len(), 3);
        // Window 1 runs entirely under the cut: the far side is hidden.
        let v1 = windows[1].judged.value.expect("hq alive");
        assert!(v1 < 16.0, "cut window must hide hosts, got {v1}");
        // Window 2 starts at t=48, after the heal: full count again.
        assert_eq!(windows[2].judged.value, Some(16.0));
    }

    #[test]
    fn degenerate_partition_window_slices_to_none() {
        // Regression: a zero-length window survives the `until <= start`
        // guard (until = 5 > start = 0), clamps to `[5, 5)` and used to
        // flip `any = true`, handing downstream a Some(plan) whose cut
        // can never activate — "a partition is active" with no partition.
        let plan = PartitionPlan::new(vec![0, 1]).window(Time(5), Time(5));
        assert!(slice_partition(&plan, Time::ZERO).is_none());
        assert!(slice_partition(&plan, Time(3)).is_none());
        // Mixed plan: the real window survives, the degenerate one is
        // dropped rather than contaminating `any`.
        let plan = PartitionPlan::new(vec![0, 1])
            .window(Time(5), Time(5))
            .window(Time(10), Time(20));
        let local = slice_partition(&plan, Time(8)).expect("real window remains");
        assert_eq!(local.windows(), &[(Time(2), Time(12))]);
    }

    #[test]
    fn sliced_churn_carries_no_sentinel_timestamps() {
        // Regression: dead-at-start hosts that never rejoin used to be
        // encoded as a join at Time(u64::MAX); any later shift or merge
        // over the sliced plan could wrap. They are now pinned with the
        // explicit initially-dead marker, and no sliced plan carries a
        // timestamp beyond the original plan's horizon.
        let n = 30usize;
        for seed in 0..8u64 {
            let plan = ChurnPlan::uniform_failures(n, 8, Time(0), Time(60), HostId(0), seed)
                .merge(ChurnPlan::oscillating(
                    n,
                    5,
                    Time(0),
                    Time(60),
                    12,
                    5,
                    HostId(0),
                    seed ^ 0xff,
                ))
                .merge(ChurnPlan::flash_crowd(
                    n,
                    4,
                    Time(10),
                    Time(50),
                    HostId(0),
                    seed.wrapping_mul(31),
                ));
            for start in [0u64, 15, 30, 45, 60, 75] {
                let Some(local) = slice_churn(&plan, n, Time(start), HostId(0)) else {
                    continue;
                };
                let horizon = Time(60); // no source event is later
                for &(t, h) in local.failures.iter().chain(&local.joins) {
                    assert!(
                        t <= horizon,
                        "seed {seed} start {start}: event ({t:?}, {h:?}) past horizon"
                    );
                    assert_ne!(t, Time(u64::MAX), "sentinel leaked");
                }
                // A merge over the sliced plan must stay sentinel-free
                // and keep the pinned hosts down.
                let before: Vec<HostId> = {
                    let mut d: Vec<HostId> = local.initially_dead().collect();
                    d.sort_by_key(|h| h.0);
                    d.dedup();
                    d
                };
                let merged = local.merge(ChurnPlan::none());
                let mut after: Vec<HostId> = merged.initially_dead().collect();
                after.sort_by_key(|h| h.0);
                after.dedup();
                assert_eq!(after, before, "seed {seed} start {start}");
                assert!(merged
                    .failures
                    .iter()
                    .chain(&merged.joins)
                    .all(|&(t, _)| t != Time(u64::MAX)));
            }
        }
    }

    #[test]
    fn same_tick_fail_join_after_window_start_keeps_host_dead_at_start() {
        // Regression: h dies at t=5 and has a (no-op) fail plus a
        // rejoin both at t=20 — the shape merged uniform + oscillating
        // plans produce. Slicing at t=10 must decode h as dead at the
        // window start: keeping the local fail@10 would make it h's
        // first local event, which the fail-before-join tie-break reads
        // as "starts alive", silently resurrecting the host for local
        // [0, 10).
        let h = HostId(3);
        let churn = ChurnPlan::none()
            .with_failure(Time(5), h)
            .with_failure(Time(20), h)
            .with_join(Time(20), h);
        let local = slice_churn(&churn, 8, Time(10), HostId(0)).expect("hq alive");
        assert!(
            local.initially_dead().any(|d| d == h),
            "h must start the window dead: {local:?}"
        );
        // The rejoin survives in local time; the no-op fail does not.
        assert!(local.joins.contains(&(Time(10), h)));
        assert!(!local.failures.contains(&(Time(10), h)));
    }

    /// A sliced plan's three lists, for comparing two slicers.
    type Parts = (Vec<(Time, HostId)>, Vec<(Time, HostId)>, Vec<HostId>);

    fn parts(local: Option<ChurnPlan>) -> Option<Parts> {
        local.map(|c| (c.failures, c.joins, c.dead_from_start))
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The one-pass replay `window_plans` carries from window to
        /// window slices every window exactly as the replay from time 0
        /// did: over stacked regimes (uniform failures, oscillation and
        /// a flash crowd merged, plus raw events that may repeat a
        /// host's state), a same-tick fail+join, pinned-dead hosts, and
        /// windows at which `hq` is dead.
        #[test]
        fn one_pass_replay_slices_like_the_replay_from_zero(
            seed in 0u64..1_000,
            fails in prop::collection::vec((0u64..70, 0u32..24), 0..20),
            joins in prop::collection::vec((0u64..70, 0u32..24), 0..20),
            pinned in prop::collection::vec(0u32..24, 0..4),
            window in 1u64..16,
        ) {
            let n = 24usize;
            let flicker = HostId(1 + (seed % 23) as u32);
            let mut plan = ChurnPlan::uniform_failures(n, 6, Time(0), Time(50), HostId(0), seed)
                .merge(ChurnPlan::oscillating(n, 4, Time(0), Time(60), 9, 4, HostId(0), seed ^ 0xff))
                .merge(ChurnPlan::flash_crowd(n, 3, Time(10), Time(40), HostId(0), seed.wrapping_mul(31)))
                .with_failure(Time(20), flicker)
                .with_join(Time(20), flicker);
            plan.failures.extend(fails.into_iter().map(|(t, h)| (Time(t), HostId(h))));
            plan.joins.extend(joins.into_iter().map(|(t, h)| (Time(t), HostId(h))));
            plan.dead_from_start.extend(pinned.into_iter().map(HostId));
            let hq = HostId(0);
            let mut replay = ChurnReplay::new(&plan, n);
            for w in 0..=80 / window {
                let start = Time(w * window);
                let one_pass = local_churn(&plan, replay.advance_to(start), start, hq);
                prop_assert_eq!(parts(one_pass), parts(slice_churn(&plan, n, start, hq)));
            }
        }
    }

    #[test]
    fn stacked_cuts_slice_cut_by_cut() {
        // Cut A lives in [0, 6) (gone by the slice point); cut B spans
        // it. Slicing at t=10 must keep only cut B, shifted.
        let a = PartitionPlan::new(vec![0, 1]).window(Time(0), Time(6));
        let b = PartitionPlan::new(vec![1, 0]).window(Time(4), Time(30));
        let local = slice_partition(&a.stack(b), Time(10)).expect("cut B survives");
        let cuts: Vec<_> = local.cuts().collect();
        assert_eq!(cuts.len(), 1);
        assert_eq!(cuts[0].0, &[1, 0]);
        assert_eq!(cuts[0].1, &[(Time(0), Time(20))]);
        // Both cuts expired: nothing survives.
        let a = PartitionPlan::new(vec![0, 1]).window(Time(0), Time(6));
        let b = PartitionPlan::new(vec![1, 0]).window(Time(4), Time(8));
        assert!(slice_partition(&a.stack(b), Time(10)).is_none());
    }

    #[test]
    fn cascading_partitions_run_through_judged_plan() {
        // Two overlapping regional cuts on a cycle: while either is
        // active its far side is unreachable; the declared count drops
        // below the static-network 16 even though nobody fails.
        let g = special::cycle(16);
        let first = (0..16u8).map(|i| u8::from(i >= 8)).collect();
        let second = (0..16u8).map(|i| u8::from((4..12).contains(&i))).collect();
        let plan = RunPlan::query(Aggregate::Count)
            .d_hat(9)
            .partition(
                PartitionPlan::new(first)
                    .window(Time(0), Time(8))
                    .stack(PartitionPlan::new(second).window(Time(5), Time(1_000))),
            )
            .protocol(ProtocolKind::SpanningTree);
        let judged = judged_plan(&g, &[1; 16], &plan);
        let out = judged[0].one();
        let v = out.value.expect("hq alive");
        assert!(v < 16.0, "cascading cuts must hide hosts, got {v}");
        assert_eq!(out.hu_size, 16, "everyone stays alive");
    }

    #[test]
    fn adversary_kills_reach_the_oracle_like_any_churn() {
        use pov_protocols::AdversarySpec;
        let g = special::cycle(24);
        let plan = RunPlan::query(Aggregate::Count)
            .d_hat(13)
            .adversary(AdversarySpec::fm_maxima(2, 6, Time(2), Time(20)))
            .protocol(ProtocolKind::Wildfire(WildfireOpts::default()));
        let out = judged_plan(&g, &[1; 24], &plan);
        let judged = out[0].one();
        // Six adversary kills: HC loses at least the six dead hosts,
        // while HU still counts them (alive at the interval's start) —
        // exactly how statically scheduled failures are judged.
        assert!(judged.hc_size <= 18, "hc = {}", judged.hc_size);
        assert_eq!(judged.hu_size, 24);
        assert!(judged.value.is_some(), "hq is always spared");
    }

    #[test]
    #[should_panic(expected = "dynamic adversary cannot be combined")]
    fn adversary_plus_continuous_rejected() {
        use pov_protocols::AdversarySpec;
        let g = special::cycle(12);
        let plan = RunPlan::query(Aggregate::Count)
            .d_hat(7)
            .adversary(AdversarySpec::fm_maxima(1, 2, Time(0), Time(10)))
            .continuous(16, 2)
            .protocol(ProtocolKind::SpanningTree);
        judged_plan(&g, &[1; 12], &plan);
    }

    #[test]
    #[should_panic(expected = "full query round")]
    fn continuous_rejects_too_small_window() {
        let g = special::cycle(8);
        let plan = RunPlan::query(Aggregate::Count)
            .d_hat(5)
            .continuous(6, 2)
            .protocol(ProtocolKind::SpanningTree);
        judged_plan(&g, &[1; 8], &plan);
    }

    #[test]
    #[should_panic(expected = "no protocols to execute")]
    fn plan_without_protocols_rejected() {
        let g = special::chain(3);
        judged_plan(&g, &[1; 3], &RunPlan::query(Aggregate::Count).d_hat(2));
    }
}
