//! The SPANNINGTREE best-effort protocol (§4.4).
//!
//! Broadcast organizes hosts into a spanning tree rooted at `hq` (parent
//! = sender of the first query copy received, as in TAG \[22\] and
//! Yao–Gehrke \[38\]); convergecast propagates *exact* partial aggregates
//! from the leaves to the root, one message per host.
//!
//! Tree completion uses the classic echo trick, which costs nothing
//! extra: during flooding every host forwards the query to all
//! non-parent neighbours, so host `u` eventually hears a (possibly
//! duplicate) query copy from every neighbour that did **not** choose `u`
//! as its parent. Neighbours that stay silent are exactly `u`'s
//! children; once each of them has either flooded past `u` or delivered
//! its subtree aggregate, `u` reports upward. A per-host fallback
//! deadline at `(2·D̂ − depth)·δ` bounds the wait when a child dies
//! mid-protocol — which is precisely when SPANNINGTREE silently loses
//! whole subtrees (Theorem 4.4, Figs 7–9).

use crate::common::{note_heard, Partial, QuerySpec};
use crate::observer::{summary_of, ProtocolObserver};
use pov_sim::{Ctx, NodeLogic, StateSummary, Time};
use pov_topology::HostId;

/// Timer key for the per-host fallback deadline.
const TIMER_FALLBACK: u64 = 1;

/// SPANNINGTREE messages.
#[derive(Clone, Debug)]
pub enum StMsg {
    /// The flooded query; receipt from `f` means `f` is not my child.
    Query {
        /// Query parameters.
        spec: QuerySpec,
        /// Hops travelled (sender's depth).
        hops: u32,
    },
    /// A child's subtree aggregate.
    Child {
        /// The child's combined partial aggregate.
        partial: Partial,
    },
}

/// Per-host SPANNINGTREE state.
#[derive(Debug)]
pub struct SpanningTreeNode {
    value: u64,
    parent: Option<HostId>,
    depth: u32,
    activated: bool,
    reported: bool,
    /// Non-parent neighbours already classified (flooded past us or
    /// reported as child), ascending.
    heard: Vec<HostId>,
    partial: Option<Partial>,
    query: Option<QuerySpec>,
    result: Option<(f64, Time)>,
    is_query_host: bool,
}

impl SpanningTreeNode {
    /// A passive host.
    pub fn host(value: u64) -> Self {
        SpanningTreeNode {
            value,
            parent: None,
            depth: 0,
            activated: false,
            reported: false,
            heard: Vec::new(),
            partial: None,
            query: None,
            result: None,
            is_query_host: false,
        }
    }

    /// The querying host (tree root).
    pub fn query_host(value: u64, spec: QuerySpec) -> Self {
        let mut n = Self::host(value);
        n.is_query_host = true;
        n.query = Some(spec);
        n
    }

    /// The declared result at the root.
    pub fn result(&self) -> Option<(f64, Time)> {
        self.result
    }

    /// This host's parent in the tree (diagnostics).
    pub fn parent(&self) -> Option<HostId> {
        self.parent
    }
}

impl SpanningTreeNode {
    fn expected(&self, ctx: &Ctx<'_, StMsg>) -> usize {
        ctx.degree() - usize::from(self.parent.is_some())
    }

    fn check_completion(&mut self, ctx: &mut Ctx<'_, StMsg>) {
        if self.reported || !self.activated {
            return;
        }
        if self.heard.len() >= self.expected(ctx) {
            self.report(ctx);
        }
    }

    fn report(&mut self, ctx: &mut Ctx<'_, StMsg>) {
        if self.reported {
            return;
        }
        self.reported = true;
        let partial = self.partial.clone().expect("activated host has a partial");
        if self.is_query_host {
            self.result = Some((partial.value(), ctx.now()));
        } else if let Some(parent) = self.parent {
            ctx.send(parent, StMsg::Child { partial });
        }
    }
}

impl ProtocolObserver for SpanningTreeNode {
    fn state_summary(&self) -> StateSummary {
        summary_of(self.partial.as_ref())
    }
}

impl NodeLogic for SpanningTreeNode {
    type Msg = StMsg;

    fn summary(&self) -> StateSummary {
        self.state_summary()
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_, StMsg>) {
        if !self.is_query_host {
            return;
        }
        let spec = self.query.expect("query host has a spec");
        self.activated = true;
        self.partial = Some(Partial::init_exact(spec.aggregate, self.value));
        ctx.set_timer(spec.deadline(), TIMER_FALLBACK);
        ctx.broadcast(StMsg::Query { spec, hops: 0 });
        self.check_completion(ctx); // isolated root: degree 0
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, StMsg>, from: HostId, msg: StMsg) {
        match msg {
            StMsg::Query { spec, hops } => {
                if !self.activated {
                    // First copy: `from` becomes our parent.
                    self.activated = true;
                    self.query = Some(spec);
                    self.parent = Some(from);
                    self.depth = hops + 1;
                    self.partial = Some(Partial::init_exact(spec.aggregate, self.value));
                    // Fallback at (2D̂ − depth)δ so partial subtrees still
                    // drain upward before the root declares.
                    let fallback_at = spec.deadline().saturating_sub(self.depth as u64);
                    let delay = fallback_at.saturating_sub(ctx.now().ticks()).max(1);
                    ctx.set_timer(delay, TIMER_FALLBACK);
                    ctx.broadcast_except(
                        Some(from),
                        StMsg::Query {
                            spec,
                            hops: self.depth,
                        },
                    );
                    self.check_completion(ctx); // leaf with 1 neighbour
                } else {
                    // Duplicate: `from` is someone else's child, not ours.
                    let expected = self.expected(ctx);
                    note_heard(&mut self.heard, from, expected);
                    self.check_completion(ctx);
                }
            }
            StMsg::Child { partial } => {
                if self.reported {
                    // Arrived after we reported upward — contribution lost
                    // (best-effort semantics).
                    return;
                }
                if let Some(p) = self.partial.as_mut() {
                    p.combine(&partial);
                }
                let expected = self.expected(ctx);
                note_heard(&mut self.heard, from, expected);
                self.check_completion(ctx);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, StMsg>, key: u64) {
        if key == TIMER_FALLBACK {
            self.report(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Aggregate;
    use pov_sim::{ChurnPlan, SimBuilder, Simulation};
    use pov_topology::generators::special;
    use pov_topology::Graph;

    fn run(
        graph: Graph,
        values: &[u64],
        aggregate: Aggregate,
        d_hat: u32,
        churn: ChurnPlan,
    ) -> Simulation<'static, SpanningTreeNode> {
        let spec = QuerySpec {
            aggregate,
            d_hat,
            c: 8,
        };
        let values = values.to_vec();
        let mut sim = SimBuilder::new(graph).churn(churn).seed(2).build(move |h| {
            if h == HostId(0) {
                SpanningTreeNode::query_host(values[h.index()], spec)
            } else {
                SpanningTreeNode::host(values[h.index()])
            }
        });
        sim.run_until(Time(spec.deadline() + 2));
        sim
    }

    #[test]
    fn exact_aggregates_failure_free() {
        let values = [5u64, 10, 15, 20, 25, 30];
        let cases = [
            (Aggregate::Count, 6.0),
            (Aggregate::Sum, 105.0),
            (Aggregate::Average, 17.5),
            (Aggregate::Min, 5.0),
            (Aggregate::Max, 30.0),
        ];
        for (agg, want) in cases {
            let sim = run(special::cycle(6), &values, agg, 3, ChurnPlan::none());
            let (v, _) = sim.logic(HostId(0)).result().expect("declared");
            assert_eq!(v, want, "{agg:?}");
        }
    }

    #[test]
    fn echo_completes_early() {
        // On a chain the echo finishes in ~2n ticks even with a huge D̂:
        // SPANNINGTREE has the least latency (Fig 13a).
        let n = 8;
        let sim = run(
            special::chain(n),
            &vec![1; n],
            Aggregate::Count,
            50,
            ChurnPlan::none(),
        );
        let (v, at) = sim.logic(HostId(0)).result().expect("declared");
        assert_eq!(v, n as f64);
        assert!(
            at.ticks() <= 2 * n as u64 + 2,
            "declared at {at}, echo should beat the 100-tick deadline"
        );
    }

    #[test]
    fn convergecast_message_budget() {
        // §4.4: Broadcast O(|E|) + Convergecast O(|H|). On a cycle of n:
        // flood = 2(n-1) point-to-point copies... bounded by 2|E|; child
        // reports = n-1.
        let n = 10;
        let sim = run(
            special::cycle(n),
            &vec![1; n],
            Aggregate::Count,
            (n / 2) as u32,
            ChurnPlan::none(),
        );
        let sent = sim.metrics().messages_sent as usize;
        let edges = n; // cycle has n edges
        assert!(
            sent <= 2 * edges + n,
            "sent {sent} > broadcast+convergecast budget"
        );
    }

    #[test]
    fn subtree_lost_on_failure() {
        // Chain 0-1-2-3-4-5: host 1 fails right after forwarding the
        // query... fail it at t=2 so the query got through but reports
        // (travelling back at t>=4) are lost. Count collapses to 1.
        let churn = ChurnPlan::none().with_failure(Time(2), HostId(1));
        let sim = run(special::chain(6), &[1; 6], Aggregate::Count, 6, churn);
        let (v, _) = sim.logic(HostId(0)).result().expect("declared");
        assert_eq!(v, 1.0, "entire subtree behind the failed host is lost");
    }

    #[test]
    fn theorem_4_4_cycle_with_spur() {
        // On the Thm 4.4 instance, failing h1 after broadcast costs the
        // root the longer chain: v ≤ |HC|/2 even though all those hosts
        // stayed alive and connected.
        let n = 6;
        let (g, hq, victim) = special::cycle_with_spur(n);
        assert_eq!(hq, HostId(0));
        let total = g.num_hosts(); // 2n + 3
                                   // Fail h1 once the broadcast has passed it but before its
                                   // subtree reports return: depth of the far side is ~n hops.
        let churn = ChurnPlan::none().with_failure(Time(3), victim);
        let sim = run(g, &vec![1; total], Aggregate::Count, (n + 2) as u32, churn);
        let (v, _) = sim.logic(HostId(0)).result().expect("declared");
        let hc = (total - 1) as f64; // everyone but the victim stayed reachable
        assert!(
            v <= hc / 2.0 + 1.0,
            "v = {v}, expected at most about half of HC = {hc}"
        );
    }

    #[test]
    fn parents_form_bfs_tree() {
        let sim = run(
            special::cycle(8),
            &[1; 8],
            Aggregate::Count,
            4,
            ChurnPlan::none(),
        );
        // Depth-1 hosts have hq as parent.
        assert_eq!(sim.logic(HostId(1)).parent(), Some(HostId(0)));
        assert_eq!(sim.logic(HostId(7)).parent(), Some(HostId(0)));
        // hq has no parent.
        assert_eq!(sim.logic(HostId(0)).parent(), None);
    }

    #[test]
    fn root_fallback_fires_when_children_die() {
        // All of hq's neighbours die instantly; the fallback deadline
        // still produces a (degenerate) answer.
        let churn = ChurnPlan::none()
            .with_failure(Time(0), HostId(1))
            .with_failure(Time(0), HostId(2));
        let mut b = pov_topology::GraphBuilder::with_hosts(3);
        b.add_edge(HostId(0), HostId(1));
        b.add_edge(HostId(0), HostId(2));
        let sim = run(b.build(), &[7, 8, 9], Aggregate::Sum, 2, churn);
        let (v, at) = sim.logic(HostId(0)).result().expect("declared");
        assert_eq!(v, 7.0);
        assert_eq!(at, Time(4)); // the 2·D̂ fallback
    }
}
