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
//!
//! **The radio rule.** A radio transmission reaches every neighbour, so
//! a child's onward flood reaches its own parent too. Each query copy
//! therefore names its sender's parent, and a copy that names the
//! receiver comes from the receiver's own child: it classifies nothing,
//! and the child's report still counts when it arrives.
//!
//! **Why a count suffices.** With the radio rule, every neighbour sends a
//! host at most one classifying message: its query copy if it chose
//! another parent, or its child report if it chose this host. The root
//! floods once — `on_start` does nothing for a root that has already
//! started, so a root that fails and rejoins neither floods again nor
//! resets its partial. A host therefore keeps *how many* neighbours it
//! has heard from, not which, and its whole record is a few words with
//! no heap allocation.

use crate::common::{deadline, fallback_at, summary_of, Aggregate, ExactPartial, QuerySpec};
use pov_sim::{Ctx, NodeLogic, StateSummary, Time};
use pov_topology::HostId;

/// Timer key for the per-host fallback deadline.
const TIMER_FALLBACK: u32 = 1;

/// The parent a host without one names: the root's query copies carry
/// it, and a host's record holds it until the query arrives.
pub const NO_PARENT: HostId = HostId(u32::MAX);

/// SPANNINGTREE messages, flat words carried by value.
#[derive(Clone, Copy, Debug)]
pub enum StMsg {
    /// The flooded query; receipt from `f` means `f` is not my child,
    /// unless `f`'s parent is me (the radio rule).
    Query {
        /// Which aggregate to compute.
        aggregate: Aggregate,
        /// Overestimate of the stable diameter; protocols run for `2·D̂·δ`.
        d_hat: u32,
        /// Hops travelled (sender's depth).
        hops: u32,
        /// The sender's parent ([`NO_PARENT`] from the root).
        parent: HostId,
    },
    /// A child's subtree aggregate, as the words of its partial. The
    /// parent already knows the aggregate: its own query copy named it.
    Child {
        /// The partial's accumulator.
        acc: u64,
        /// The partial's AVG host count.
        hosts: u32,
    },
}

/// Per-host SPANNINGTREE state.
#[derive(Debug)]
pub struct SpanningTreeNode {
    /// This host's subtree aggregate so far, as the words of an
    /// [`ExactPartial`] of `aggregate`. Until the query reaches a host
    /// they are the host's own value, [`ExactPartial::unnamed`]; the
    /// root's partial is named from the start.
    acc: u64,
    /// The root's word, unused elsewhere: its `D̂` until it floods,
    /// then the tick it declared at. The flood is the only reader of
    /// the first and comes before the second is written; one word keeps
    /// a declaration past tick 2³² exact.
    root_word: u64,
    /// The partial's AVG host count.
    hosts: u32,
    /// Tree parent; [`NO_PARENT`] at the root and before activation.
    parent: HostId,
    /// Neighbours classified so far: flooded past us or reported as
    /// child. A count is exact (see the module docs).
    heard: u32,
    aggregate: Aggregate,
    is_query_host: bool,
    activated: bool,
    reported: bool,
}

impl SpanningTreeNode {
    /// A passive host.
    pub fn host(value: u64) -> Self {
        Self::holding(ExactPartial::unnamed(value), 0, false)
    }

    /// The querying host (tree root).
    pub fn query_host(value: u64, spec: QuerySpec) -> Self {
        let partial = ExactPartial::init(spec.aggregate, value);
        Self::holding(partial, u64::from(spec.d_hat), true)
    }

    fn holding(partial: ExactPartial, root_word: u64, is_query_host: bool) -> Self {
        let (acc, hosts) = partial.words();
        SpanningTreeNode {
            acc,
            root_word,
            hosts,
            parent: NO_PARENT,
            heard: 0,
            aggregate: partial.aggregate(),
            is_query_host,
            activated: false,
            reported: false,
        }
    }

    /// The declared result at the root.
    pub fn result(&self) -> Option<(f64, Time)> {
        // A root that has reported drops every later child report, so
        // its partial is the declared one.
        (self.is_query_host && self.reported)
            .then(|| (self.partial().value(), Time(self.root_word)))
    }

    /// This host's parent in the tree (diagnostics).
    pub fn parent(&self) -> Option<HostId> {
        (self.parent != NO_PARENT).then_some(self.parent)
    }
}

impl SpanningTreeNode {
    fn partial(&self) -> ExactPartial {
        ExactPartial::from_words(self.aggregate, self.acc, self.hosts)
    }

    fn store(&mut self, partial: ExactPartial) {
        self.aggregate = partial.aggregate();
        (self.acc, self.hosts) = partial.words();
    }

    fn expected(&self, ctx: &Ctx<'_, StMsg>) -> usize {
        ctx.degree() - usize::from(self.parent != NO_PARENT)
    }

    fn check_completion(&mut self, ctx: &mut Ctx<'_, StMsg>) {
        if self.reported || !self.activated {
            return;
        }
        if self.heard as usize >= self.expected(ctx) {
            self.report(ctx);
        }
    }

    fn report(&mut self, ctx: &mut Ctx<'_, StMsg>) {
        if self.reported {
            return;
        }
        self.reported = true;
        if self.is_query_host {
            self.root_word = ctx.now().ticks();
        } else {
            ctx.send(
                self.parent,
                StMsg::Child {
                    acc: self.acc,
                    hosts: self.hosts,
                },
            );
        }
    }
}

impl NodeLogic for SpanningTreeNode {
    type Msg = StMsg;

    fn summary(&self) -> StateSummary {
        summary_of(self.activated.then(|| self.partial().sketch_weight()))
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_, StMsg>) {
        // A root that rejoins after a failure has already flooded.
        if !self.is_query_host || self.activated {
            return;
        }
        self.activated = true;
        let d_hat = u32::try_from(self.root_word).expect("the root holds D̂ until it floods");
        ctx.set_timer(deadline(d_hat), TIMER_FALLBACK);
        ctx.broadcast(StMsg::Query {
            aggregate: self.aggregate,
            d_hat,
            hops: 0,
            parent: NO_PARENT,
        });
        self.check_completion(ctx); // isolated root: degree 0
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, StMsg>, from: HostId, msg: StMsg) {
        match msg {
            StMsg::Query {
                aggregate,
                d_hat,
                hops,
                parent,
            } => {
                if !self.activated {
                    // First copy: `from` becomes our parent.
                    self.activated = true;
                    self.parent = from;
                    let depth = hops + 1;
                    self.store(self.partial().named(aggregate));
                    let now = ctx.now().ticks();
                    let fire_at = fallback_at(deadline(d_hat), depth, now);
                    ctx.set_timer(fire_at - now, TIMER_FALLBACK);
                    ctx.broadcast_except(
                        Some(from),
                        StMsg::Query {
                            aggregate,
                            d_hat,
                            hops: depth,
                            parent: from,
                        },
                    );
                    self.check_completion(ctx); // leaf with 1 neighbour
                } else if parent != ctx.me() {
                    // Duplicate: `from` is someone else's child, not ours.
                    // (A copy naming us is our own child's radio flood.)
                    self.heard += 1;
                    self.check_completion(ctx);
                }
            }
            StMsg::Child { acc, hosts } => {
                if self.reported {
                    // Arrived after we reported upward — contribution lost
                    // (best-effort semantics).
                    return;
                }
                debug_assert!(self.activated, "a child adopted us from our own copy");
                let mut partial = self.partial();
                partial.combine(ExactPartial::from_words(self.aggregate, acc, hosts));
                self.store(partial);
                self.heard += 1;
                self.check_completion(ctx);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, StMsg>, key: u32) {
        if key == TIMER_FALLBACK {
            self.report(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pov_sim::{ChurnPlan, Medium, SimBuilder, Simulation};
    use pov_topology::generators::special;
    use pov_topology::{Graph, GraphBuilder};

    fn run_on(
        medium: Medium,
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
        let mut sim = SimBuilder::new(graph)
            .medium(medium)
            .churn(churn)
            .seed(2)
            .build(move |h| {
                if h == HostId(0) {
                    SpanningTreeNode::query_host(values[h.index()], spec)
                } else {
                    SpanningTreeNode::host(values[h.index()])
                }
            });
        sim.run_until(Time(spec.deadline() + 2));
        sim
    }

    fn run(
        graph: Graph,
        values: &[u64],
        aggregate: Aggregate,
        d_hat: u32,
        churn: ChurnPlan,
    ) -> Simulation<'static, SpanningTreeNode> {
        run_on(Medium::PointToPoint, graph, values, aggregate, d_hat, churn)
    }

    /// The record and the message are flat words: 4·10⁵ hosts and every
    /// delivery in flight carry them on `scale_tree`, where the record
    /// was 144 bytes with a heap-allocated neighbour set and the message
    /// 56, then 48 and 24 with the aggregate in every child report. Both
    /// must stay `Send`, so the engine's parallel delivery can hand them
    /// to worker threads.
    #[test]
    fn record_and_message_layout_do_not_grow() {
        fn send<T: Send>() {}
        send::<SpanningTreeNode>();
        send::<StMsg>();
        let record = std::mem::size_of::<SpanningTreeNode>();
        assert!(record <= 32, "host record is {record} bytes");
        let msg = std::mem::size_of::<StMsg>();
        assert!(msg <= 16, "message is {msg} bytes");
        let queued = pov_sim::wire_entry_bytes::<StMsg>();
        assert!(
            queued <= 32,
            "a queued delivery or fanout is {queued} bytes"
        );
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
        // On a chain the echo finishes in 2(n − 1) ticks even with a huge
        // D̂: SPANNINGTREE has the least latency (Fig 13a). Under radio,
        // host 1's onward flood also reaches the root at tick 2; taking
        // it for an echo would declare 2 hosts there.
        let n = 8;
        for medium in [Medium::PointToPoint, Medium::Radio] {
            let sim = run_on(
                medium,
                special::chain(n),
                &vec![1; n],
                Aggregate::Count,
                50,
                ChurnPlan::none(),
            );
            let (v, at) = sim.logic(HostId(0)).result().expect("declared");
            assert_eq!((v, at), (n as f64, Time(2 * (n as u64 - 1))), "{medium:?}");
        }
    }

    #[test]
    fn a_rejoining_root_neither_floods_again_nor_resets_its_partial() {
        // 1 — 0 — 2 — 3 — 4: host 1's report reaches the root at tick 2;
        // the root fails at tick 3 and rejoins at tick 4, before host 2's
        // subtree reports at tick 6.
        let mut b = GraphBuilder::with_hosts(5);
        for (x, y) in [(0, 1), (0, 2), (2, 3), (3, 4)] {
            b.add_edge(HostId(x), HostId(y));
        }
        let g = b.build();
        let quiet = run(g.clone(), &[1; 5], Aggregate::Count, 4, ChurnPlan::none());
        let churn = ChurnPlan::none()
            .with_failure(Time(3), HostId(0))
            .with_join(Time(4), HostId(0));
        let sim = run(g, &[1; 5], Aggregate::Count, 4, churn);
        assert_eq!(sim.logic(HostId(0)).result(), Some((5.0, Time(6))));
        assert_eq!(
            sim.logic(HostId(0)).result(),
            quiet.logic(HostId(0)).result()
        );
        assert_eq!(sim.metrics().messages_sent, quiet.metrics().messages_sent);
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
        let mut b = GraphBuilder::with_hosts(3);
        b.add_edge(HostId(0), HostId(1));
        b.add_edge(HostId(0), HostId(2));
        let sim = run(b.build(), &[7, 8, 9], Aggregate::Sum, 2, churn);
        let (v, at) = sim.logic(HostId(0)).result().expect("declared");
        assert_eq!(v, 7.0);
        assert_eq!(at, Time(4)); // the 2·D̂ fallback
    }
}
