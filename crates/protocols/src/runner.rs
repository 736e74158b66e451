//! One-call drivers: topology + values + churn + query → [`Outcome`].
//!
//! Every experiment in §6 runs some protocol over some topology with
//! some churn plan and inspects the declared value and the §6.3 cost
//! metrics. This module is that loop, shared by the experiment drivers,
//! benches and examples.

use crate::allreport::AllReportNode;
use crate::common::{Aggregate, Operator, Partial, QuerySpec};
use crate::dag::DagNode;
use crate::gossip::GossipNode;
use crate::spanning_tree::SpanningTreeNode;
use crate::wildfire::{WildfireNode, WildfireOpts};
use pov_overlay::{OverlayConfig, OverlayMaintenance};
use pov_sim::{
    ChurnPlan, DelayModel, Medium, Metrics, NodeLogic, OverlayStats, PartitionPlan, SimBuilder,
    SketchAdversary, TelemetrySink, Time, Trace,
};
use pov_topology::{Graph, HostId, OverlayView};

/// Which protocol to run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ProtocolKind {
    /// ALLREPORT (Fig 2): every host reports straight to `hq`.
    AllReport,
    /// RANDOMIZEDREPORT (§4.3) with report probability `p`.
    RandomizedReport {
        /// Per-host report probability.
        p: f64,
    },
    /// SPANNINGTREE (§4.4).
    SpanningTree,
    /// DIRECTEDACYCLICGRAPH with `k` parents (§4.4).
    Dag {
        /// Maximum parents per host.
        k: usize,
    },
    /// WILDFIRE (§5) with the §5.3 optimizations toggled by `opts`.
    Wildfire(WildfireOpts),
    /// Push-sum gossip for `rounds` rounds (§2.2 baseline).
    Gossip {
        /// Number of gossip rounds.
        rounds: u32,
    },
}

impl ProtocolKind {
    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolKind::AllReport => "ALLREPORT",
            ProtocolKind::RandomizedReport { .. } => "RANDOMIZEDREPORT",
            ProtocolKind::SpanningTree => "SPANNINGTREE",
            ProtocolKind::Dag { .. } => "DAG",
            ProtocolKind::Wildfire(_) => "WILDFIRE",
            ProtocolKind::Gossip { .. } => "GOSSIP",
        }
    }

    /// Unambiguous display label: the paper name plus the parameters a
    /// run varies (`DAG(k=2)`, `RANDOMIZEDREPORT(p=0.5)`,
    /// `GOSSIP(rounds=40)`), so two contenders that differ only in `k`,
    /// `p` or `rounds` get distinct report sections.
    pub fn label(&self) -> String {
        match self {
            ProtocolKind::Dag { k } => format!("DAG(k={k})"),
            ProtocolKind::RandomizedReport { p } => format!("RANDOMIZEDREPORT(p={p})"),
            ProtocolKind::Gossip { rounds } => format!("GOSSIP(rounds={rounds})"),
            other => other.name().to_string(),
        }
    }

    /// Whether the protocol sends reports straight to `hq` over the
    /// underlay, which only a point-to-point medium carries.
    pub fn reports_direct(&self) -> bool {
        matches!(
            self,
            ProtocolKind::AllReport | ProtocolKind::RandomizedReport { .. }
        )
    }
}

/// Declarative description of a protocol-state-aware adversary attached
/// to a [`RunPlan`] via [`RunPlan::adversary`]: it kills the hosts whose
/// current partials hold the highest FM bit ranks. Lowered per run into a
/// fresh [`SketchAdversary`] (full budget each run, sparing `plan.hq`),
/// so every protocol under a multi-protocol plan faces the same
/// attacker policy — though, being adaptive, the attacker's realized
/// kill schedule follows each protocol's own state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdversarySpec {
    /// Hosts killed per wave.
    pub kills_per_wave: usize,
    /// Total kill budget — pick it equal to a
    /// [`ChurnPlan::uniform_failures`] `r` to compare targeted against
    /// uniform churn at equal event cost.
    pub budget: usize,
    /// First wave instant.
    pub start: Time,
    /// Last instant the adversary may strike.
    pub until: Time,
}

impl AdversarySpec {
    /// An FM-maxima adversary with `budget` kills in waves of
    /// `kills_per_wave` across `[start, until]`.
    pub fn fm_maxima(kills_per_wave: usize, budget: usize, start: Time, until: Time) -> Self {
        AdversarySpec {
            kills_per_wave,
            budget,
            start,
            until,
        }
    }

    /// Lower the spec into a runnable churn source sparing `spare`
    /// (the querying host).
    pub fn build(&self, spare: HostId) -> SketchAdversary {
        SketchAdversary::new(
            self.kills_per_wave,
            self.budget,
            self.start,
            self.until,
            spare,
        )
    }
}

/// Continuous-query execution: re-issue the one-shot every `window`
/// ticks and judge each report over its own recent window (§4.2's
/// Continuous Single-Site Validity). Carried by [`RunPlan`]; consumed by
/// the judged executor in the core crate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ContinuousSpec {
    /// Window length `W` in ticks. Must be at least the one-shot
    /// deadline `2·D̂·δ` so a window fits one full query round (§4.2's
    /// impossibility for `W < max Dᵢ·δ`).
    pub window: u64,
    /// How many consecutive windows to run.
    pub windows: usize,
}

/// One composable description of a whole run: the query, the network
/// conditions (medium, delay, stacked churn, partition), the seed, and
/// *what to execute over them* — a list of protocols and an optional
/// continuous-window spec. Every entry point (façade, scenario batch
/// runner, experiment drivers, benches) builds one of these, and every
/// executor consumes it, so "compare N protocols under churn + a
/// partition across continuous windows" is one value instead of four
/// hand-assembled loops.
///
/// Build with the fluent constructors:
///
/// ```
/// use pov_protocols::{Aggregate, ProtocolKind, RunPlan};
/// use pov_protocols::wildfire::WildfireOpts;
/// use pov_sim::{ChurnPlan, Time};
///
/// let plan = RunPlan::query(Aggregate::Count)
///     .d_hat(6)
///     .churn(ChurnPlan::uniform_failures(
///         100, 10, Time(0), Time(12), pov_topology::HostId(0), 7,
///     ))
///     .protocol(ProtocolKind::Wildfire(WildfireOpts::default()))
///     .protocol(ProtocolKind::SpanningTree)
///     .seed(7);
/// assert_eq!(plan.protocols.len(), 2);
/// assert_eq!(plan.deadline(), 12);
/// ```
///
/// The single-protocol primitives ([`run`], [`run_wildfire_operator`])
/// read only the *environment* half of the plan (query + conditions);
/// the `protocols` list and `continuous` spec drive the plan executor
/// layered on top (`judged_plan` in the core crate).
#[derive(Clone, Debug)]
pub struct RunPlan {
    /// The aggregate to compute.
    pub aggregate: Aggregate,
    /// Stable-diameter overestimate `D̂`.
    pub d_hat: u32,
    /// FM repetitions `c` for sketched aggregates.
    pub c: usize,
    /// Communication medium.
    pub medium: Medium,
    /// Per-hop delay model. `D̂` stays denominated in *hops*; the query
    /// deadline in ticks scales by the model's bound `δ` (the paper's
    /// `2·D̂·δ`), so protocols keep their guarantees under jittered or
    /// multi-tick delays.
    pub delay: DelayModel,
    /// Failure/join schedule (stack regimes with
    /// [`ChurnPlan::merge`]).
    pub churn: ChurnPlan,
    /// Optional temporary partition: messages crossing the cut while it
    /// is active are lost in transit (hosts stay alive).
    pub partition: Option<PartitionPlan>,
    /// Optional dynamic adversary polled during the run (stacks on top
    /// of the static `churn` plan; its kills reach the oracle through
    /// the membership trace like any other failure).
    pub adversary: Option<AdversarySpec>,
    /// Optional overlay maintenance: when set, each run layers a
    /// mutable overlay over the base graph and an
    /// [`OverlayMaintenance`] driver (partial views, shuffles,
    /// SWIM-style failure detection) rewires it while the query
    /// executes. Every protocol under the plan gets an identically
    /// configured driver, so overlay evolution is part of the paired
    /// environment like the churn realization.
    pub overlay: Option<OverlayConfig>,
    /// Root seed for the run. Protocols sharing one plan share this
    /// stream, so their runs see the *same* churn/delay realization —
    /// the paired-comparison setup the paper's §6 figures need.
    pub seed: u64,
    /// The querying host.
    pub hq: HostId,
    /// The protocols to execute under this plan (the plan executor
    /// produces one outcome per entry; the single-run primitives take
    /// their protocol explicitly instead).
    pub protocols: Vec<ProtocolKind>,
    /// When set, the plan describes a §4.2 continuous query instead of
    /// a one-shot: re-issue every `window` ticks, `windows` times.
    pub continuous: Option<ContinuousSpec>,
}

impl RunPlan {
    /// Start describing a run: a failure-free point-to-point query with
    /// sensible defaults (`D̂ = 8`, `c = 8` per Fig 6, `hq = h0`, no
    /// protocols selected yet).
    pub fn query(aggregate: Aggregate) -> Self {
        RunPlan {
            aggregate,
            d_hat: 8,
            c: 8,
            medium: Medium::PointToPoint,
            delay: DelayModel::Fixed(1),
            churn: ChurnPlan::none(),
            partition: None,
            adversary: None,
            overlay: None,
            seed: 0,
            hq: HostId(0),
            protocols: Vec::new(),
            continuous: None,
        }
    }

    /// Set the stable-diameter overestimate `D̂`.
    pub fn d_hat(mut self, d_hat: u32) -> Self {
        self.d_hat = d_hat;
        self
    }

    /// Set the FM repetitions `c` for sketched aggregates.
    pub fn repetitions(mut self, c: usize) -> Self {
        self.c = c;
        self
    }

    /// Choose the communication medium.
    pub fn medium(mut self, medium: Medium) -> Self {
        self.medium = medium;
        self
    }

    /// Choose the per-hop delay model.
    pub fn delay(mut self, delay: DelayModel) -> Self {
        self.delay = delay;
        self
    }

    /// Set the failure/join schedule. Calling twice *stacks* the plans
    /// via [`ChurnPlan::merge`] rather than replacing the first one.
    pub fn churn(mut self, churn: ChurnPlan) -> Self {
        self.churn = self.churn.merge(churn);
        self
    }

    /// Layer a temporary partition over the run.
    pub fn partition(mut self, partition: PartitionPlan) -> Self {
        self.partition = Some(partition);
        self
    }

    /// Attach a dynamic adversary (a protocol-state-aware churn source
    /// polled during the run). Stacks with any static churn plan; the
    /// querying host is always spared.
    pub fn adversary(mut self, adversary: AdversarySpec) -> Self {
        self.adversary = Some(adversary);
        self
    }

    /// Maintain a dynamic overlay during each run (see
    /// [`RunPlan::overlay`] field docs). The driver runs until the
    /// plan's full horizon — one-shot deadline or the last continuous
    /// window, whichever is later.
    pub fn overlay(mut self, overlay: OverlayConfig) -> Self {
        self.overlay = Some(overlay);
        self
    }

    /// Set the root seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Choose the querying host.
    pub fn from_host(mut self, hq: HostId) -> Self {
        self.hq = hq;
        self
    }

    /// Append one protocol to the execution list.
    pub fn protocol(mut self, kind: ProtocolKind) -> Self {
        self.protocols.push(kind);
        self
    }

    /// Replace the execution list with `kinds`.
    pub fn protocols(mut self, kinds: impl IntoIterator<Item = ProtocolKind>) -> Self {
        self.protocols = kinds.into_iter().collect();
        self
    }

    /// Make the plan continuous: re-issue the query every `window` ticks
    /// for `windows` consecutive windows, judging each report over its
    /// own window (§4.2).
    pub fn continuous(mut self, window: u64, windows: usize) -> Self {
        self.continuous = Some(ContinuousSpec { window, windows });
        self
    }

    /// The one-shot query deadline in ticks: `2·D̂·δ`.
    pub fn deadline(&self) -> u64 {
        2 * self.d_hat as u64 * self.delay.bound()
    }

    fn spec(&self) -> QuerySpec {
        QuerySpec {
            aggregate: self.aggregate,
            // Protocol timer arithmetic runs in ticks; one hop costs up
            // to `δ = delay.bound()` of them, so the tick-denominated
            // diameter overestimate is `D̂·δ`. A wrapped product would
            // run a different query, so overflow is fatal.
            d_hat: u32::try_from(self.delay.bound())
                .ok()
                .and_then(|delta| self.d_hat.checked_mul(delta))
                .unwrap_or_else(|| {
                    panic!(
                        "D̂·δ exceeds u32::MAX: D̂ = {}, δ = {}",
                        self.d_hat,
                        self.delay.bound()
                    )
                }),
            c: self.c,
        }
    }

    /// The simulation this plan describes, over `graph`. The builder
    /// *borrows* the graph: every protocol of a multi-run plan (and
    /// every cell of a batch sweep) shares one CSR neighbour arena
    /// instead of cloning the adjacency per run.
    fn sim_builder<'g>(&self, graph: &'g Graph) -> SimBuilder<'g> {
        let mut b = SimBuilder::over(graph)
            .medium(self.medium)
            .delay(self.delay)
            .churn(self.churn.clone())
            .seed(self.seed);
        if let Some(adversary) = &self.adversary {
            b = b.dynamic_churn(adversary.build(self.hq));
        }
        if let Some(overlay) = self.overlay {
            b = b.overlay(OverlayMaintenance::new(overlay, self.horizon()));
        }
        match &self.partition {
            Some(p) => b.partition(p.clone()),
            None => b,
        }
    }

    /// The plan's full run horizon in ticks: the one-shot deadline, or
    /// the end of the last continuous window, whichever is later (the
    /// overlay driver maintains through this instant).
    fn horizon(&self) -> Time {
        let oneshot = self.deadline() + 2;
        let continuous = self
            .continuous
            .map_or(0, |c| c.window * c.windows as u64 + 2);
        Time(oneshot.max(continuous))
    }
}

/// What a run produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The declared value, if the querying host survived to declare one.
    pub value: Option<f64>,
    /// When the value was declared.
    pub declared_at: Option<Time>,
    /// §6.3 cost metrics.
    pub metrics: Metrics,
    /// Ground-truth membership trace (for the oracle).
    pub trace: Trace,
    /// Overlay maintenance counters, when the plan maintained one
    /// ([`RunPlan::overlay`]).
    pub overlay: Option<OverlayStats>,
    /// The maintained overlay's view at the horizon, when the plan
    /// maintained one.
    pub overlay_view: Option<OverlayView>,
}

impl Outcome {
    /// Time cost in ticks: declaration time at `hq` (§6.3/§6.6.2 measure
    /// WILDFIRE's time cost as `2·D̂·δ`, i.e. the declaration instant).
    pub fn time_cost(&self) -> Option<u64> {
        self.declared_at.map(Time::ticks)
    }
}

/// Build `plan`'s simulation over `graph`, host `h` made by
/// `node(values[h], h == hq)`, run it to `horizon` and read hq's node
/// with `read`: the one path every protocol's run takes.
fn simulate<L: NodeLogic>(
    plan: &RunPlan,
    graph: &Graph,
    values: &[u64],
    sink: Option<&mut (dyn TelemetrySink + 'static)>,
    horizon: Time,
    node: impl Fn(u64, bool) -> L,
    read: impl FnOnce(&L) -> Option<(f64, Time)>,
) -> Outcome {
    assert_eq!(
        values.len(),
        graph.num_hosts(),
        "one attribute value per host"
    );
    assert!(plan.hq.index() < graph.num_hosts(), "querying host exists");
    let mut b = plan.sim_builder(graph);
    if let Some(sink) = sink {
        b = b.telemetry(sink);
    }
    // The factory borrows the caller's value slice: per-run clones of
    // the whole attribute table were pure allocation churn in batch
    // sweeps.
    let mut sim = b.build(|h| node(values[h.index()], h == plan.hq));
    sim.run_until(horizon);
    let result = read(sim.logic(plan.hq));
    let overlay = sim.overlay_stats();
    let (metrics, trace, overlay_view) = sim.into_record();
    Outcome {
        value: result.map(|(v, _)| v),
        declared_at: result.map(|(_, t)| t),
        metrics,
        trace,
        overlay,
        overlay_view,
    }
}

/// Run `kind` over `graph` where host `h` holds `values[h]`, under the
/// *environment* half of `plan` (query, medium, delay, churn, partition,
/// seed, `hq`). This is the single-run primitive: `plan.protocols` and
/// `plan.continuous` are the plan executor's concern and are not read
/// here.
///
/// # Panics
/// Panics if `values.len() != graph.num_hosts()`, the querying host is
/// out of range, or `kind` reports over the underlay
/// ([`ProtocolKind::reports_direct`]) on a radio medium.
pub fn run(kind: ProtocolKind, graph: &Graph, values: &[u64], plan: &RunPlan) -> Outcome {
    run_with(kind, graph, values, plan, None)
}

/// [`run`] with an optional [`TelemetrySink`] attached to the
/// simulation: the engine feeds the sink per-tick activity samples
/// while the run executes, without perturbing the outcome (see the
/// sink trait's determinism guarantees). `run(..)` is exactly
/// `run_with(.., None)`.
///
/// # Panics
/// Same conditions as [`run`].
pub fn run_with(
    kind: ProtocolKind,
    graph: &Graph,
    values: &[u64],
    plan: &RunPlan,
    sink: Option<&mut (dyn TelemetrySink + 'static)>,
) -> Outcome {
    // The engine checks underlay sends only in debug builds; a release
    // run would deliver them over radio and judge a query the medium
    // cannot carry.
    assert!(
        !(kind.reports_direct() && plan.medium == Medium::Radio),
        "{} reports over the underlay, which a radio medium does not carry",
        kind.label()
    );
    let spec = plan.spec();
    let horizon = Time(spec.deadline() + 2);
    match kind {
        ProtocolKind::AllReport => simulate(
            plan,
            graph,
            values,
            sink,
            horizon,
            |v, is_hq| match is_hq {
                true => AllReportNode::query_host(v, spec),
                false => AllReportNode::host(v),
            },
            AllReportNode::result,
        ),
        ProtocolKind::RandomizedReport { p } => simulate(
            plan,
            graph,
            values,
            sink,
            horizon,
            |v, is_hq| match is_hq {
                true => AllReportNode::randomized_query_host(v, spec, p),
                false => AllReportNode::host(v),
            },
            AllReportNode::result,
        ),
        ProtocolKind::SpanningTree => simulate(
            plan,
            graph,
            values,
            sink,
            horizon,
            |v, is_hq| match is_hq {
                true => SpanningTreeNode::query_host(v, spec),
                false => SpanningTreeNode::host(v),
            },
            SpanningTreeNode::result,
        ),
        ProtocolKind::Dag { k } => simulate(
            plan,
            graph,
            values,
            sink,
            horizon,
            |v, is_hq| match is_hq {
                true => DagNode::query_host(v, k, spec),
                false => DagNode::host(v, k),
            },
            DagNode::result,
        ),
        ProtocolKind::Wildfire(opts) => simulate(
            plan,
            graph,
            values,
            sink,
            horizon,
            |v, is_hq| match is_hq {
                true => WildfireNode::query_host(v, spec, opts),
                false => WildfireNode::host(v, opts),
            },
            WildfireNode::result,
        ),
        ProtocolKind::Gossip { rounds } => simulate(
            plan,
            graph,
            values,
            sink,
            Time(rounds as u64 * plan.delay.bound() + 2),
            |v, is_hq| GossipNode::new(v, plan.aggregate, rounds, is_hq),
            GossipNode::result,
        ),
    }
}

/// Run WILDFIRE with an extension [`Operator`] (§7) and return the
/// merged partial alongside the outcome: hq's partial at declaration
/// time (e.g. a histogram the caller can query for buckets and
/// quantiles), whose scalar reading (count estimate / histogram total)
/// is the outcome's value.
pub fn run_wildfire_operator(
    operator: Operator,
    opts: WildfireOpts,
    graph: &Graph,
    values: &[u64],
    plan: &RunPlan,
) -> (Outcome, Option<Partial>) {
    let spec = plan.spec();
    let mut partial = None;
    let outcome = simulate(
        plan,
        graph,
        values,
        None,
        Time(spec.deadline() + 2),
        |v, is_hq| match is_hq {
            true => WildfireNode::query_host_with_operator(v, spec, opts, operator),
            false => WildfireNode::host_with_operator(v, opts, operator),
        },
        |hq: &WildfireNode| {
            partial = hq.partial();
            hq.result()
        },
    );
    (outcome, partial)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pov_topology::generators::special;

    fn wildfire() -> ProtocolKind {
        ProtocolKind::Wildfire(WildfireOpts::default())
    }

    /// Every protocol of `plan` run under it, in list order.
    fn run_each(g: &Graph, values: &[u64], plan: &RunPlan) -> Vec<Outcome> {
        plan.protocols
            .iter()
            .map(|&kind| run(kind, g, values, plan))
            .collect()
    }

    #[test]
    fn labels_carry_the_parameters_a_run_varies() {
        assert_eq!(ProtocolKind::Dag { k: 2 }.label(), "DAG(k=2)");
        assert_eq!(
            ProtocolKind::RandomizedReport { p: 0.5 }.label(),
            "RANDOMIZEDREPORT(p=0.5)"
        );
        assert_eq!(
            ProtocolKind::Gossip { rounds: 40 }.label(),
            "GOSSIP(rounds=40)"
        );
        assert_eq!(ProtocolKind::SpanningTree.label(), "SPANNINGTREE");
        let wildfire = wildfire();
        assert_eq!(wildfire.label(), "WILDFIRE");
        assert!(ProtocolKind::AllReport.reports_direct());
        assert!(ProtocolKind::RandomizedReport { p: 0.5 }.reports_direct());
        assert!(!wildfire.reports_direct());
    }

    #[test]
    #[should_panic(expected = "RANDOMIZEDREPORT(p=0.5) reports over the underlay")]
    fn direct_reports_over_radio_are_rejected() {
        let g = special::cycle(6);
        let plan = RunPlan::query(Aggregate::Count)
            .d_hat(4)
            .medium(Medium::Radio);
        run(
            ProtocolKind::RandomizedReport { p: 0.5 },
            &g,
            &[1; 6],
            &plan,
        );
    }

    #[test]
    fn all_protocols_agree_on_max_failure_free() {
        let g = special::cycle(12);
        let values: Vec<u64> = (0..12).map(|i| 10 + i * 7).collect();
        let plan = RunPlan::query(Aggregate::Max).d_hat(6).protocols([
            ProtocolKind::AllReport,
            ProtocolKind::SpanningTree,
            ProtocolKind::Dag { k: 2 },
            wildfire(),
        ]);
        for &kind in &plan.protocols {
            let out = run(kind, &g, &values, &plan);
            assert_eq!(out.value, Some(87.0), "{}", kind.name());
        }
    }

    #[test]
    fn exact_protocols_agree_on_count() {
        let g = special::cycle(10);
        let values = vec![1u64; 10];
        let cfg = RunPlan::query(Aggregate::Count).d_hat(5);
        for kind in [ProtocolKind::AllReport, ProtocolKind::SpanningTree] {
            let out = run(kind, &g, &values, &cfg);
            assert_eq!(out.value, Some(10.0), "{}", kind.name());
        }
    }

    #[test]
    fn overlay_plan_declares_and_reports_stats() {
        let g = special::cycle(12);
        let values: Vec<u64> = (0..12).map(|i| 10 + i * 7).collect();
        let plan = RunPlan::query(Aggregate::Max)
            .d_hat(6)
            .overlay(OverlayConfig {
                probe_every: 2,
                shuffle_every: 4,
                ..OverlayConfig::default()
            })
            .protocols([wildfire()]);
        let out = run(plan.protocols[0], &g, &values, &plan);
        assert_eq!(out.value, Some(87.0));
        let stats = out
            .overlay
            .expect("overlay stats present when plan has overlay");
        assert!(stats.probes > 0, "driver probed during the run");
        let view = out.overlay_view.expect("the maintained view moves out");
        assert_eq!(view.num_hosts(), 12);
        // A plan without an overlay reports none.
        let bare = run(
            ProtocolKind::SpanningTree,
            &g,
            &values,
            &RunPlan::query(Aggregate::Max).d_hat(6),
        );
        assert!(bare.overlay.is_none() && bare.overlay_view.is_none());
    }

    #[test]
    fn overlay_evolution_is_paired_across_protocols() {
        // Two protocols under one overlay-maintaining plan see the same
        // driver configuration and (absent an adaptive adversary) the
        // same deterministic overlay evolution.
        let g = special::cycle(16);
        let plan = RunPlan::query(Aggregate::Count)
            .d_hat(8)
            .churn(ChurnPlan::uniform_failures(
                16,
                2,
                Time(0),
                Time(16),
                HostId(0),
                7,
            ))
            .overlay(OverlayConfig::default())
            .protocols([wildfire(), ProtocolKind::SpanningTree]);
        let outs = run_each(&g, &[1; 16], &plan);
        assert_eq!(outs[0].trace.events, outs[1].trace.events);
        assert_eq!(outs[0].overlay, outs[1].overlay);
    }

    #[test]
    fn protocols_under_one_plan_share_one_realization() {
        // Two protocols under one plan: same churn plan, same seed.
        let g = special::cycle(16);
        let plan = RunPlan::query(Aggregate::Count)
            .d_hat(9)
            .churn(ChurnPlan::uniform_failures(
                16,
                3,
                Time(0),
                Time(18),
                HostId(0),
                11,
            ))
            .protocols([wildfire(), ProtocolKind::SpanningTree]);
        let outs = run_each(&g, &[1; 16], &plan);
        assert_eq!(outs.len(), 2);
        // Both runs observed the identical membership trace — the
        // defining property of a paired comparison.
        assert_eq!(outs[0].trace.events, outs[1].trace.events);
    }

    #[test]
    fn outcome_carries_metrics_and_trace() {
        let g = special::chain(5);
        let cfg = RunPlan::query(Aggregate::Count)
            .d_hat(4)
            .churn(ChurnPlan::none().with_failure(Time(1), HostId(3)));
        let out = run(ProtocolKind::SpanningTree, &g, &[1; 5], &cfg);
        assert!(out.metrics.messages_sent > 0);
        assert_eq!(out.trace.events.len(), 1);
        let alive_at_end = out.trace.alive_at(Time(u64::MAX));
        assert_eq!(alive_at_end.iter().filter(|&&a| a).count(), 4);
        assert!(out.time_cost().is_some());
    }

    #[test]
    fn kmv_count_through_operator_runner() {
        let g = special::cycle(64);
        let cfg = RunPlan::query(Aggregate::Count).d_hat(34);
        let (out, partial) = run_wildfire_operator(
            Operator::KmvCount { k: 32 },
            WildfireOpts::default(),
            &g,
            &vec![1; 64],
            &cfg,
        );
        let v = out.value.expect("declared");
        // KMV with k = 32 on 64 hosts: exact-ish (k/2 < n < exact regime
        // boundary); allow sketch noise.
        assert!((40.0..110.0).contains(&v), "KMV count {v}");
        assert!(matches!(partial, Some(Partial::KmvCount(_))));
    }

    #[test]
    fn histogram_through_operator_runner() {
        // 100 hosts: half hold value 10, half hold 90.
        let g = special::cycle(100);
        let values: Vec<u64> = (0..100).map(|i| if i % 2 == 0 { 10 } else { 90 }).collect();
        let cfg = RunPlan::query(Aggregate::Count).d_hat(52).repetitions(16);
        let (_, partial) = run_wildfire_operator(
            Operator::ValueHistogram {
                min: 0,
                max: 99,
                buckets: 10,
            },
            WildfireOpts::default(),
            &g,
            &values,
            &cfg,
        );
        let partial = partial.expect("present");
        let hist = partial.as_histogram().expect("histogram partial");
        let est = hist.bucket_estimates();
        // Mass concentrates in buckets 1 (values 10..19) and 9 (90..99).
        let hot: f64 = est[1] + est[9];
        let cold: f64 = est.iter().sum::<f64>() - hot;
        assert!(
            hot > 3.0 * cold.max(1.0),
            "hot buckets {hot} vs cold {cold} ({est:?})"
        );
        // The histogram-average sits between the two modes.
        let avg = hist.average().expect("non-empty");
        assert!((25.0..80.0).contains(&avg), "avg {avg}");
    }

    #[test]
    fn delay_bound_scales_declaration_and_stays_correct() {
        // With a 2-tick hop bound, WILDFIRE's deadline stretches to
        // 2·D̂·δ ticks and the exact max still comes back right.
        let g = special::cycle(12);
        let values: Vec<u64> = (0..12).map(|i| 10 + i * 7).collect();
        let base = RunPlan::query(Aggregate::Max).d_hat(6);
        let slow = base.clone().delay(DelayModel::Fixed(2));
        let fast = runner_declares(&g, &values, &base);
        let lagged = runner_declares(&g, &values, &slow);
        assert_eq!(fast.0, Some(87.0));
        assert_eq!(lagged.0, Some(87.0));
        assert_eq!(lagged.1, fast.1 * 2, "deadline scales by the bound");

        // Jittered delays within the bound keep max exact too.
        let jitter = base.delay(DelayModel::Uniform { min: 1, max: 2 });
        assert_eq!(runner_declares(&g, &values, &jitter).0, Some(87.0));
    }

    fn runner_declares(g: &Graph, values: &[u64], cfg: &RunPlan) -> (Option<f64>, u64) {
        let out = run(wildfire(), g, values, cfg);
        (out.value, out.time_cost().expect("declared"))
    }

    #[test]
    fn plan_builder_composes() {
        let a = ChurnPlan::none().with_failure(Time(3), HostId(2));
        let b = ChurnPlan::none().with_join(Time(5), HostId(7));
        let plan = RunPlan::query(Aggregate::Sum)
            .d_hat(4)
            .repetitions(16)
            .medium(Medium::Radio)
            .delay(DelayModel::Uniform { min: 1, max: 3 })
            .churn(a)
            .churn(b) // stacks, not replaces
            .partition(PartitionPlan::new(vec![0; 4]).window(Time(1), Time(2)))
            .seed(99)
            .from_host(HostId(1))
            .protocol(ProtocolKind::SpanningTree)
            .continuous(24, 3);
        assert_eq!(plan.churn.failures, vec![(Time(3), HostId(2))]);
        assert_eq!(plan.churn.joins, vec![(Time(5), HostId(7))]);
        assert_eq!(plan.deadline(), 2 * 4 * 3);
        assert_eq!(
            plan.continuous,
            Some(ContinuousSpec {
                window: 24,
                windows: 3
            })
        );
        assert!(plan.partition.is_some());
        assert_eq!(plan.hq, HostId(1));
        assert_eq!(plan.protocols, vec![ProtocolKind::SpanningTree]);
    }

    #[test]
    fn adversary_spends_exactly_its_budget_and_spares_hq() {
        let g = special::cycle(20);
        let plan = RunPlan::query(Aggregate::Count)
            .d_hat(11)
            .adversary(AdversarySpec::fm_maxima(3, 7, Time(1), Time(15)));
        let out = run(wildfire(), &g, &[1; 20], &plan);
        // Exactly `budget` kills land in the trace — the comparability
        // contract with uniform_failures at r = 7.
        assert_eq!(out.trace.events.len(), 7);
        let alive_at_end = out.trace.alive_at(Time(u64::MAX));
        assert_eq!(alive_at_end.iter().filter(|&&a| !a).count(), 7);
        assert!(alive_at_end[0], "hq is spared");
        assert!(out.value.is_some(), "hq declares");
    }

    #[test]
    #[should_panic(expected = "D̂·δ exceeds u32::MAX: D̂ = 7, δ = 1073741824")]
    fn tick_diameter_overflow_panics_instead_of_wrapping() {
        // 7 · 2³⁰ wraps u32 to 3 · 2³⁰, a shorter deadline and so a
        // different query; the plan must refuse to run it.
        let g = special::cycle(8);
        let plan = RunPlan::query(Aggregate::Count)
            .d_hat(7)
            .delay(DelayModel::Fixed(1 << 30));
        run(ProtocolKind::SpanningTree, &g, &[1; 8], &plan);
    }

    #[test]
    fn adversary_is_deterministic_per_plan() {
        let g = special::cycle(24);
        let plan = RunPlan::query(Aggregate::Count)
            .d_hat(13)
            .seed(9)
            .adversary(AdversarySpec::fm_maxima(2, 6, Time(0), Time(20)));
        let a = run(wildfire(), &g, &[1; 24], &plan);
        let b = run(wildfire(), &g, &[1; 24], &plan);
        assert_eq!(a.trace.events, b.trace.events);
        assert_eq!(a.value, b.value);
        assert_eq!(a.metrics.messages_sent, b.metrics.messages_sent);
    }

    #[test]
    fn run_with_sink_matches_plain_run() {
        use pov_sim::TickSample;

        #[derive(Default)]
        struct Counting {
            ticks: u64,
            dispatched: u64,
        }
        impl TelemetrySink for Counting {
            fn on_tick(&mut self, s: &TickSample) {
                self.ticks += 1;
                self.dispatched += s.dispatched;
            }
        }

        let g = special::cycle(16);
        let plan =
            RunPlan::query(Aggregate::Count)
                .d_hat(9)
                .seed(5)
                .churn(ChurnPlan::uniform_failures(
                    16,
                    3,
                    Time(0),
                    Time(18),
                    HostId(0),
                    11,
                ));
        let kind = wildfire();
        let plain = run(kind, &g, &[1; 16], &plan);
        let mut sink = Counting::default();
        let tapped = run_with(kind, &g, &[1; 16], &plan, Some(&mut sink));
        // Observing must not perturb: identical outcome either way.
        assert_eq!(tapped.value, plain.value);
        assert_eq!(tapped.declared_at, plain.declared_at);
        assert_eq!(tapped.trace.events, plain.trace.events);
        assert_eq!(tapped.metrics.messages_sent, plain.metrics.messages_sent);
        // And the sink saw the whole run.
        assert!(sink.ticks > 0);
        assert_eq!(sink.dispatched, tapped.metrics.events_dispatched);
    }

    #[test]
    fn gossip_runs_through_runner() {
        let g = special::complete(16);
        let cfg = RunPlan::query(Aggregate::Average).d_hat(2);
        let out = run(ProtocolKind::Gossip { rounds: 60 }, &g, &[10; 16], &cfg);
        let v = out.value.expect("declared");
        assert!((v - 10.0).abs() < 1.0, "avg {v}");
    }

    #[test]
    #[should_panic(expected = "one attribute value per host")]
    fn value_count_mismatch_rejected() {
        let g = special::chain(3);
        let cfg = RunPlan::query(Aggregate::Count).d_hat(2);
        run(ProtocolKind::SpanningTree, &g, &[1, 2], &cfg);
    }
}
