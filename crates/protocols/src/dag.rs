//! The DIRECTEDACYCLICGRAPH best-effort protocol (§4.4).
//!
//! SPANNINGTREE loses a whole subtree when one interior host dies; the
//! DAG variant gives every host up to `k` parents so its contribution has
//! `k` chances to reach the root (TAG \[22\], Considine et al. \[7\]). The
//! same value can then arrive at the root along several paths, so —
//! exactly as in the paper's evaluation (§6: *"Our implementation of
//! DIRECTEDACYCLICGRAPH uses the distributed count and sum operators"*) —
//! count/sum/avg partials are FM sketches (duplicate-insensitive), while
//! min/max remain exact.
//!
//! Structure: the sender of the first query copy is the first parent
//! (exactly the SPANNINGTREE tree); senders of later duplicate copies
//! are adopted as extra parents while slots remain, **provided they sit
//! strictly closer to the root** — that keeps the parent relation
//! acyclic, so update propagation terminates.
//!
//! Convergecast: the same echo discipline as SPANNINGTREE (report to all
//! parents once every non-parent neighbour is classified, with the
//! `(2·D̂ − depth)·δ` fallback), plus one budgeted *late update*:
//! duplicate-insensitivity makes it safe for a host that has already
//! reported to push a refreshed aggregate to its parents when a
//! straggling child report still changes it. The budget (one late shot
//! per host, coalesced at end of tick) keeps the convergecast at
//! `O(k·|H|)` messages — under radio a report to all `k` parents is a
//! single multicast, which is why the paper's Fig 11 DAG curve overlaps
//! SPANNINGTREE — while still letting a value climb around a dead first
//! parent level by level.
//!
//! SPANNINGTREE's radio rule and one-shot root hold here too: each query
//! copy names its sender's *first* parent, a copy that names the
//! receiver comes from its own child's radio flood and classifies
//! nothing, and a root that rejoins does not flood again. Unlike
//! SPANNINGTREE, a DAG host keeps *which* neighbours it has classified,
//! not a count: an extra parent hears its child twice even
//! point-to-point — the child's query copy (sent before the adoption)
//! and then its report.

use crate::common::{fallback_at, summary_of, Partial, QuerySpec};
use crate::spanning_tree::NO_PARENT;
use pov_sim::{Ctx, NodeLogic, StateSummary, Time};
use pov_topology::HostId;

/// Timer key for the per-host fallback deadline.
const TIMER_FALLBACK: u32 = 1;
/// Timer key for the end-of-tick coalesced late update.
const TIMER_LATE_FLUSH: u32 = 2;
/// Late updates each host may send after its completion report.
const LATE_UPDATE_BUDGET: u32 = 1;

/// DAG messages.
#[derive(Clone, Debug)]
pub enum DagMsg {
    /// The flooded query.
    Query {
        /// Query parameters.
        spec: QuerySpec,
        /// Hops travelled (sender's depth).
        hops: u32,
        /// The sender's first parent ([`NO_PARENT`] from the root).
        parent: HostId,
    },
    /// An aggregate from a host that adopted us as one of its parents
    /// (either its completion report or a late update).
    Report {
        /// The child's combined partial aggregate.
        partial: Partial,
    },
}

/// Per-host DAG state.
#[derive(Debug)]
pub struct DagNode {
    value: u64,
    k: usize,
    parents: Vec<HostId>,
    depth: u32,
    activated: bool,
    reported: bool,
    /// Non-parent neighbours already classified (flooded past us or
    /// reported), ascending.
    heard: Vec<HostId>,
    partial: Option<Partial>,
    query: Option<QuerySpec>,
    result: Option<(f64, Time)>,
    is_query_host: bool,
    late_updates_left: u32,
    late_flush_scheduled: bool,
}

impl DagNode {
    /// A passive host that will adopt up to `k` parents.
    pub fn host(value: u64, k: usize) -> Self {
        assert!(k >= 1, "need at least one parent slot");
        DagNode {
            value,
            k,
            parents: Vec::new(),
            depth: 0,
            activated: false,
            reported: false,
            heard: Vec::new(),
            partial: None,
            query: None,
            result: None,
            is_query_host: false,
            late_updates_left: LATE_UPDATE_BUDGET,
            late_flush_scheduled: false,
        }
    }

    /// The querying host (DAG sink).
    pub fn query_host(value: u64, k: usize, spec: QuerySpec) -> Self {
        let mut n = Self::host(value, k);
        n.is_query_host = true;
        n.query = Some(spec);
        n
    }

    /// The declared result at the root.
    pub fn result(&self) -> Option<(f64, Time)> {
        self.result
    }

    /// Parents adopted so far (diagnostics).
    pub fn parents(&self) -> &[HostId] {
        &self.parents
    }
}

/// Classify neighbour `h` in `heard`, kept sorted: a DAG host only
/// ever asks how many distinct neighbours are classified, so the set
/// needs a duplicate-free insert and `len()`. The first insert reserves
/// the `expected` neighbours the host waits for: one exact allocation,
/// not a doubling regrow, per host.
fn note_heard(heard: &mut Vec<HostId>, h: HostId, expected: usize) {
    if let Err(i) = heard.binary_search(&h) {
        if heard.capacity() == 0 {
            heard.reserve_exact(expected);
        }
        heard.insert(i, h);
    }
}

impl DagNode {
    fn expected(&self, ctx: &Ctx<'_, DagMsg>) -> usize {
        ctx.degree() - usize::from(!self.parents.is_empty())
    }

    fn within_deadline(&self, ctx: &Ctx<'_, DagMsg>) -> bool {
        self.query
            .map(|spec| ctx.now().ticks() <= spec.deadline())
            .unwrap_or(false)
    }

    fn check_completion(&mut self, ctx: &mut Ctx<'_, DagMsg>) {
        if self.reported || !self.activated {
            return;
        }
        if self.heard.len() >= self.expected(ctx) {
            self.report(ctx);
        }
    }

    fn report(&mut self, ctx: &mut Ctx<'_, DagMsg>) {
        if self.reported {
            return;
        }
        self.reported = true;
        let partial = self.partial.clone().expect("activated host has a partial");
        if self.is_query_host {
            self.result = Some((partial.value(), ctx.now()));
        } else {
            // Convergecast cost O(k·|H|): one copy per parent.
            self.send_to_parents(ctx, partial);
        }
    }

    fn send_to_parents(&self, ctx: &mut Ctx<'_, DagMsg>, partial: Partial) {
        // One radio multicast reaches all k parents for a single message
        // (§4.4); point-to-point pays per parent.
        ctx.multicast(&self.parents, DagMsg::Report { partial });
    }
}

impl NodeLogic for DagNode {
    type Msg = DagMsg;

    fn summary(&self) -> StateSummary {
        summary_of(self.partial.as_ref().map(Partial::sketch_weight))
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_, DagMsg>) {
        // A root that rejoins after a failure has already flooded.
        if !self.is_query_host || self.activated {
            return;
        }
        let spec = self.query.expect("query host has a spec");
        self.activated = true;
        self.partial = Some(Partial::init_sketched(
            spec.aggregate,
            self.value,
            spec.c,
            ctx.rng(),
        ));
        ctx.set_timer(spec.deadline(), TIMER_FALLBACK);
        ctx.broadcast(DagMsg::Query {
            spec,
            hops: 0,
            parent: NO_PARENT,
        });
        self.check_completion(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, DagMsg>, from: HostId, msg: DagMsg) {
        match msg {
            DagMsg::Query { spec, hops, parent } => {
                if !self.activated {
                    self.activated = true;
                    self.query = Some(spec);
                    self.parents.push(from);
                    self.depth = hops + 1;
                    self.partial = Some(Partial::init_sketched(
                        spec.aggregate,
                        self.value,
                        spec.c,
                        ctx.rng(),
                    ));
                    let now = ctx.now().ticks();
                    let fire_at = fallback_at(spec.deadline(), self.depth, now);
                    ctx.set_timer(fire_at - now, TIMER_FALLBACK);
                    ctx.broadcast_except(
                        Some(from),
                        DagMsg::Query {
                            spec,
                            hops: self.depth,
                            parent: from,
                        },
                    );
                    self.check_completion(ctx);
                } else if parent != ctx.me() {
                    // Duplicate copy (not our own child's radio flood):
                    // classify the sender; adopt it as an extra parent
                    // while slots remain, but only if it is strictly
                    // closer to the root (acyclicity).
                    if !self.is_query_host
                        && self.parents.len() < self.k
                        && hops < self.depth
                        && !self.parents.contains(&from)
                    {
                        self.parents.push(from);
                    }
                    let expected = self.expected(ctx);
                    note_heard(&mut self.heard, from, expected);
                    self.check_completion(ctx);
                }
            }
            DagMsg::Report { partial } => {
                let Some(p) = self.partial.as_mut() else {
                    return; // report outran the flood (jittered delays)
                };
                let changed = p.combine_check(&partial);
                if !self.reported {
                    let expected = self.expected(ctx);
                    note_heard(&mut self.heard, from, expected);
                    self.check_completion(ctx);
                } else if changed && !self.is_query_host {
                    // Late arrival after our completion report: spend the
                    // (coalesced, end-of-tick) late-update budget so the
                    // value can still climb around a dead first parent.
                    if self.late_updates_left > 0
                        && !self.late_flush_scheduled
                        && self.within_deadline(ctx)
                    {
                        self.late_flush_scheduled = true;
                        ctx.set_timer_at_tick_end(TIMER_LATE_FLUSH);
                    }
                } else if changed && self.is_query_host {
                    // The root keeps absorbing late updates until its
                    // deadline and refreshes the declared value.
                    if let (Some((_, at)), Some(p)) = (self.result, self.partial.as_ref()) {
                        self.result = Some((p.value(), at.max(ctx.now())));
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, DagMsg>, key: u32) {
        match key {
            TIMER_FALLBACK => self.report(ctx),
            TIMER_LATE_FLUSH => {
                self.late_flush_scheduled = false;
                if self.late_updates_left > 0 && self.within_deadline(ctx) {
                    self.late_updates_left -= 1;
                    let refreshed = self.partial.clone().expect("reported host has a partial");
                    self.send_to_parents(ctx, refreshed);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Aggregate;
    use pov_sim::{ChurnPlan, SimBuilder, Simulation};
    use pov_topology::generators::{grid_square, special};
    use pov_topology::Graph;

    fn run(
        graph: Graph,
        values: &[u64],
        aggregate: Aggregate,
        k: usize,
        d_hat: u32,
        churn: ChurnPlan,
        seed: u64,
    ) -> Simulation<'static, DagNode> {
        let spec = QuerySpec {
            aggregate,
            d_hat,
            c: 16,
        };
        let values = values.to_vec();
        let mut sim = SimBuilder::new(graph)
            .churn(churn)
            .seed(seed)
            .build(move |h| {
                if h == HostId(0) {
                    DagNode::query_host(values[h.index()], k, spec)
                } else {
                    DagNode::host(values[h.index()], k)
                }
            });
        sim.run_until(Time(spec.deadline() + 2));
        sim
    }

    #[test]
    fn min_max_exact_failure_free() {
        let values = [50u64, 10, 90, 30, 70, 20];
        let sim = run(
            special::cycle(6),
            &values,
            Aggregate::Min,
            2,
            3,
            ChurnPlan::none(),
            1,
        );
        assert_eq!(sim.logic(HostId(0)).result().unwrap().0, 10.0);
        let sim = run(
            special::cycle(6),
            &values,
            Aggregate::Max,
            2,
            3,
            ChurnPlan::none(),
            1,
        );
        assert_eq!(sim.logic(HostId(0)).result().unwrap().0, 90.0);
    }

    #[test]
    fn declares_no_later_than_deadline() {
        let sim = run(
            special::cycle(6),
            &[1; 6],
            Aggregate::Max,
            2,
            5,
            ChurnPlan::none(),
            4,
        );
        let (_, at) = sim.logic(HostId(0)).result().unwrap();
        assert!(at <= Time(10), "declared at {at}");
    }

    #[test]
    fn sketched_count_duplicates_tolerated() {
        // On the complete graph every non-root host sits at depth 1 and
        // the same sketch reaches the root along every edge; the FM
        // estimate is still a single-count estimate.
        let n = 32;
        let sim = run(
            special::complete(n),
            &vec![1; n],
            Aggregate::Count,
            3,
            2,
            ChurnPlan::none(),
            7,
        );
        let (v, _) = sim.logic(HostId(0)).result().expect("declared");
        assert!(
            (8.0..130.0).contains(&v),
            "count {v} should be within FM error of {n}, not k-fold inflated"
        );
    }

    #[test]
    fn multiple_parents_adopted() {
        // Cycle of 6 rooted at h0: h3 (depth 3) hears duplicates from
        // both depth-2 neighbours and adopts a second parent.
        let sim = run(
            special::cycle(6),
            &[1; 6],
            Aggregate::Count,
            2,
            3,
            ChurnPlan::none(),
            3,
        );
        assert_eq!(sim.logic(HostId(3)).parents().len(), 2);
        // Extra parents are strictly shallower than the child.
        let d3 = sim.logic(HostId(3)).depth;
        for p in sim.logic(HostId(3)).parents() {
            assert!(sim.logic(*p).depth < d3);
        }
    }

    #[test]
    fn redundancy_beats_spanning_tree_under_failure() {
        // Diamond + tail: 0-1, 0-2, 1-3, 2-3, 3-4.
        // Host 3's first parent is 1, which dies after broadcast; with
        // k=2 host 3 also reports via parent 2 (a late update if 2 has
        // already reported), so host 4's value — the max — still reaches
        // the root.
        let mut b = pov_topology::GraphBuilder::with_hosts(5);
        b.add_edge(HostId(0), HostId(1));
        b.add_edge(HostId(0), HostId(2));
        b.add_edge(HostId(1), HostId(3));
        b.add_edge(HostId(2), HostId(3));
        b.add_edge(HostId(3), HostId(4));
        let churn = ChurnPlan::none().with_failure(Time(2), HostId(1));
        let values = [1u64, 2, 3, 4, 99];
        let sim = run(b.build(), &values, Aggregate::Max, 2, 4, churn, 5);
        let (v, _) = sim.logic(HostId(0)).result().expect("declared");
        assert_eq!(v, 99.0, "host 4's value must survive via the second parent");
    }

    #[test]
    fn k_one_loses_like_spanning_tree() {
        // Same instance with k=1: host 3 only knows parent 1, so its
        // subtree (including 99) dies with host 1.
        let mut b = pov_topology::GraphBuilder::with_hosts(5);
        b.add_edge(HostId(0), HostId(1));
        b.add_edge(HostId(0), HostId(2));
        b.add_edge(HostId(1), HostId(3));
        b.add_edge(HostId(2), HostId(3));
        b.add_edge(HostId(3), HostId(4));
        let churn = ChurnPlan::none().with_failure(Time(2), HostId(1));
        let values = [1u64, 2, 3, 4, 99];
        let sim = run(b.build(), &values, Aggregate::Max, 1, 4, churn, 5);
        let (v, _) = sim.logic(HostId(0)).result().expect("declared");
        assert!(v < 99.0, "k=1 should lose the tail value, got {v}");
    }

    #[test]
    fn k_one_degenerates_to_tree_shape() {
        let sim = run(
            special::cycle(8),
            &[1; 8],
            Aggregate::Max,
            1,
            4,
            ChurnPlan::none(),
            2,
        );
        for h in 1..8u32 {
            assert_eq!(sim.logic(HostId(h)).parents().len(), 1, "host {h}");
        }
    }

    #[test]
    fn convergecast_cost_scales_with_k() {
        // A grid gives interior hosts several strictly-shallower
        // neighbours, so higher k means more report copies.
        let g = grid_square(6);
        let count = |k: usize| {
            let sim = run(
                g.clone(),
                &vec![1; 36],
                Aggregate::Count,
                k,
                7,
                ChurnPlan::none(),
                9,
            );
            sim.metrics().messages_sent
        };
        let (c1, c3) = (count(1), count(3));
        assert!(
            c3 > c1,
            "k=3 ({c3}) should send more than k=1 ({c1}) on a grid"
        );
    }

    #[test]
    fn a_neighbour_heard_twice_counts_once() {
        //   0 — 1
        //   |    \
        //   2 —— 3        and a tail 2 — 4 — 5 — 6 — 7
        // Host 3's first parent is 1; host 2's duplicate copy makes 2 an
        // extra parent. At tick 3 host 2 hears 3 twice — 3's duplicate
        // query copy, then its report — and must still wait for the tail.
        let edges = [
            (0, 1),
            (0, 2),
            (1, 3),
            (2, 3),
            (2, 4),
            (4, 5),
            (5, 6),
            (6, 7),
        ];
        let mut b = pov_topology::GraphBuilder::with_hosts(8);
        for (x, y) in edges {
            b.add_edge(HostId(x), HostId(y));
        }
        let spec = QuerySpec {
            aggregate: Aggregate::Max,
            d_hat: 8,
            c: 16,
        };
        let mut sim = SimBuilder::new(b.build()).build(|h| {
            let value = if h == HostId(7) { 99 } else { 1 };
            if h == HostId(0) {
                DagNode::query_host(value, 2, spec)
            } else {
                DagNode::host(value, 2)
            }
        });
        sim.run_until(Time(3));
        assert_eq!(sim.logic(HostId(3)).parents(), &[HostId(1), HostId(2)]);
        let host2 = sim.logic(HostId(2));
        assert_eq!(host2.heard, vec![HostId(3)]);
        assert!(!host2.reported, "host 2 still waits on host 4");
        sim.run_until(Time(spec.deadline() + 2));
        let (v, _) = sim.logic(HostId(0)).result().expect("declared");
        assert_eq!(v, 99.0);
    }

    #[test]
    #[should_panic(expected = "parent slot")]
    fn zero_parents_rejected() {
        DagNode::host(1, 0);
    }
}
