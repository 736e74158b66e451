//! The WILDFIRE protocol (§5.1, Figs 3–4).
//!
//! Broadcast: the query floods the network — *no* edge-subset structure
//! is built. Convergecast: every active host keeps a partial aggregate
//! `A_h`; whenever received partials change `A_h`, the host re-sends
//! `A_h` to its neighbours; a sender observed to lag behind gets a
//! targeted update. Because the combine operator is
//! duplicate-insensitive (min/max natively, count/sum/avg via FM
//! sketches), values survive along *every* live path — that is what buys
//! Single-Site Validity (Theorems 5.1, 5.3).
//!
//! Two faithful-to-the-paper implementation points:
//!
//! * **per-instant batching** — Example 5.1's hosts combine everything
//!   that arrived at time `t` and send one update at `t` (host `z`
//!   receives from both `x` and `y` at `t = 2` and answers once). Each
//!   receipt schedules an end-of-tick flush rather than replying
//!   immediately.
//! * **neighbour-knowledge cache** — a host skips neighbours already
//!   known to hold its exact partial (Example 5.1: *"Host y received its
//!   new `A_y` value from w, so it skips sending the value back to w"*).
//!
//! **Register rows.** With FM sketches (§5.2) both a host's partial and
//! its copy of each contact's are `c` register words, so an active host
//! keeps them all as rows of `u64` words in one allocation (the row
//! layout is `Partial::row_width`'s): row 0 is its own `A_h`, row
//! `i + 1` what its `i`-th contact is known to hold. A receipt ORs the
//! incoming partial into row 0 and into the sender's row; the skip rule
//! is a word compare of two rows; a send copies row 0 over the
//! receiver's row. `Partial` stays the type on the wire and at the API
//! boundary, decoded from row 0 only to send, declare or report.
//!
//! Both §5.3 engineering optimizations are implemented and toggleable
//! (ablation A1/A2, `pov_core::experiments::ablation`):
//!
//! * **early deadline** — a host at hop distance `l` participates only
//!   until `(2·D̂ − l + 1)·δ` instead of `2·D̂·δ`;
//! * **piggyback** — the first convergecast message rides on the
//!   broadcast message a host forwards.

use crate::common::{Operator, Partial, QuerySpec};
use crate::observer::{summary_of, ProtocolObserver};
use pov_sim::{Ctx, Medium, NodeLogic, StateSummary, Time};
use pov_topology::HostId;
use std::rc::Rc;

/// Timer key for the declaration deadline at `hq`.
const TIMER_DECLARE: u64 = 0;
/// Timer key for the end-of-tick flush.
const TIMER_FLUSH: u64 = 1;

/// Toggleable §5.3 optimizations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WildfireOpts {
    /// Host at depth `l` stops participating after `(2D̂ − l + 1)δ`.
    pub early_deadline: bool,
    /// Piggyback the first convergecast on the forwarded broadcast.
    pub piggyback: bool,
}

impl Default for WildfireOpts {
    fn default() -> Self {
        // The paper's evaluation runs with both optimizations on (§6).
        WildfireOpts {
            early_deadline: true,
            piggyback: true,
        }
    }
}

/// WILDFIRE messages.
///
/// Partials travel as `Rc<Partial>`: a fan-out to `d` neighbours is `d`
/// reference bumps on one sketch allocation instead of `d` deep clones
/// of the FM registers (the engine is single-threaded per simulation,
/// so `Rc` is safe). The sender decodes its row 0 into that `Rc` only
/// when the row has grown since the last send — in place when no
/// message still holds the previous one. Receivers only read it,
/// joining it into their own register rows.
#[derive(Clone, Debug)]
pub enum WfMsg {
    /// Phase-I flood: query spec, hop count so far, and (optionally)
    /// the sender's partial aggregate piggybacked on the flood.
    Broadcast {
        /// The query and its parameters.
        spec: QuerySpec,
        /// Hops travelled so far (sender's depth).
        hops: u32,
        /// Piggybacked partial aggregate of the sender.
        partial: Option<Rc<Partial>>,
    },
    /// Phase-II convergecast: the sender's current partial aggregate.
    Converge {
        /// Sender's partial aggregate `A_{h'}`.
        partial: Rc<Partial>,
    },
}

/// Active-phase state: the host's partial and what each contact is known
/// to hold (because it sent it to us, or we sent ours to it), as register
/// rows of `width` words in one allocation.
///
/// Contacts are keyed by `HostId` rather than by neighbour-slot index
/// because under an overlay ([`pov_sim::OverlayDriver`]) the neighbour
/// set can grow and reorder mid-run; rows of contacts that are no longer
/// neighbours simply stop being consulted. The ids sit in their own
/// sorted vec, packed, so the binary search touches a line or two; both
/// vecs are reserved at activation for every neighbour, and rows are
/// updated in place, so the steady state allocates nothing.
#[derive(Debug)]
struct Active {
    depth: u32,
    /// Last tick at which this host still participates (see
    /// [`WildfireNode::deadline_for`]).
    deadline: u64,
    /// Words per row ([`Partial::row_width`]).
    width: usize,
    /// Contact ids, ascending; `keys[i]` owns row `i + 1`.
    keys: Vec<HostId>,
    /// Row 0 is this host's partial `A_h`; row `i + 1` is what `keys[i]`
    /// is known to hold.
    rows: Vec<u64>,
    /// The partial last sent (shared with the messages carrying it), and
    /// the shape template row 0 decodes into.
    sent: Rc<Partial>,
    /// Whether row 0 has grown since `sent` was decoded from it.
    sent_stale: bool,
    flush_scheduled: bool,
}

impl Active {
    fn new(partial: Partial, depth: u32, deadline: u64, degree: usize) -> Active {
        let width = partial.row_width();
        let mut rows = Vec::with_capacity(width * (degree + 1));
        rows.resize(width, 0);
        partial.write_row(&mut rows);
        Active {
            depth,
            deadline,
            width,
            keys: Vec::with_capacity(degree),
            rows,
            sent: Rc::new(partial),
            sent_stale: false,
            flush_scheduled: false,
        }
    }

    fn row(&self, i: usize) -> &[u64] {
        &self.rows[i * self.width..][..self.width]
    }

    fn row_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.rows[i * self.width..][..self.width]
    }

    /// Whether neighbour `n` is known to already hold exactly the
    /// current partial (Example 5.1's skip rule).
    fn synced(&self, n: HostId) -> bool {
        self.keys
            .binary_search(&n)
            .is_ok_and(|i| self.row(i + 1) == self.row(0))
    }

    /// Fig 4's receipt: join `incoming` into our partial, and into what
    /// neighbour `n` is known to hold (don't overwrite — reliable links
    /// mean the sender still holds everything we sent it earlier, even
    /// if this message was in flight before ours arrived).
    fn absorb(&mut self, n: HostId, incoming: &Partial) {
        self.sent_stale |= incoming.join_row(self.row_mut(0));
        match self.keys.binary_search(&n) {
            Ok(i) => {
                incoming.join_row(self.row_mut(i + 1));
            }
            Err(i) => {
                let row = self.insert_row(i, n);
                incoming.write_row(self.row_mut(row));
            }
        }
    }

    /// Note that neighbour `n` now holds exactly the current partial
    /// (we just sent it to them).
    fn record(&mut self, n: HostId) {
        let row = match self.keys.binary_search(&n) {
            Ok(i) => i + 1,
            Err(i) => self.insert_row(i, n),
        };
        self.rows.copy_within(..self.width, row * self.width);
    }

    /// Make `n` contact `i`, with a zeroed row; returns that row's index.
    fn insert_row(&mut self, i: usize, n: HostId) -> usize {
        self.keys.insert(i, n);
        let at = (i + 1) * self.width;
        let end = self.rows.len();
        self.rows.resize(end + self.width, 0);
        self.rows.copy_within(at..end, at + self.width);
        i + 1
    }

    /// The current partial, shareable by one round of sends. Decoded
    /// only if row 0 grew since the last send, into the previous
    /// snapshot when no message holds it any more.
    fn snapshot(&mut self) -> Rc<Partial> {
        if self.sent_stale {
            self.sent_stale = false;
            let own = &self.rows[..self.width];
            match Rc::get_mut(&mut self.sent) {
                Some(sent) => sent.read_row(own),
                None => {
                    let mut fresh = Partial::clone(&self.sent);
                    fresh.read_row(own);
                    self.sent = Rc::new(fresh);
                }
            }
        }
        Rc::clone(&self.sent)
    }

    /// The current partial, decoded from row 0.
    fn partial(&self) -> Partial {
        let mut p = Partial::clone(&self.sent);
        p.read_row(self.row(0));
        p
    }
}

/// Per-host WILDFIRE state.
#[derive(Debug)]
pub struct WildfireNode {
    value: u64,
    query: Option<QuerySpec>,
    opts: WildfireOpts,
    operator: Operator,
    active: Option<Active>,
    result: Option<(f64, Time)>,
    is_query_host: bool,
}

impl WildfireNode {
    /// A passive (non-querying) host with the given attribute value.
    pub fn host(value: u64, opts: WildfireOpts) -> Self {
        Self::host_with_operator(value, opts, Operator::Standard)
    }

    /// The querying host `hq`: issues `spec` at time 0.
    pub fn query_host(value: u64, spec: QuerySpec, opts: WildfireOpts) -> Self {
        Self::query_host_with_operator(value, spec, opts, Operator::Standard)
    }

    /// A passive host using an extension operator (§7). Every host in a
    /// run must be built with the same operator.
    pub fn host_with_operator(value: u64, opts: WildfireOpts, operator: Operator) -> Self {
        WildfireNode {
            value,
            query: None,
            opts,
            operator,
            active: None,
            result: None,
            is_query_host: false,
        }
    }

    /// The querying host using an extension operator (§7).
    pub fn query_host_with_operator(
        value: u64,
        spec: QuerySpec,
        opts: WildfireOpts,
        operator: Operator,
    ) -> Self {
        WildfireNode {
            value,
            query: Some(spec),
            opts,
            operator,
            active: None,
            result: None,
            is_query_host: true,
        }
    }

    /// The declared result, if this host is `hq` and its deadline passed.
    pub fn result(&self) -> Option<(f64, Time)> {
        self.result
    }

    /// Current partial aggregate (diagnostics/tests), decoded from the
    /// host's register row.
    pub fn partial(&self) -> Option<Partial> {
        self.active.as_ref().map(Active::partial)
    }

    /// Hop depth at which this host was activated.
    pub fn depth(&self) -> Option<u32> {
        self.active.as_ref().map(|a| a.depth)
    }

    /// Participation deadline: `(2D̂ − l + 1)δ` with the early-deadline
    /// optimization, `2D̂δ` otherwise; `hq` always uses the full `2D̂δ`.
    fn deadline_for(&self, spec: &QuerySpec, depth: u32) -> u64 {
        if self.opts.early_deadline && !self.is_query_host {
            spec.deadline().saturating_sub(depth as u64) + 1
        } else {
            spec.deadline()
        }
    }

    fn activate(&mut self, ctx: &mut Ctx<'_, WfMsg>, spec: QuerySpec, depth: u32) {
        let partial = self
            .operator
            .init(spec.aggregate, self.value, spec.c, ctx.rng());
        let deadline = self.deadline_for(&spec, depth);
        let degree = ctx.neighbors().len();
        self.active = Some(Active::new(partial, depth, deadline, degree));
        self.query = Some(spec);
    }

    /// Fig 4's receive-a-partial step (batched: combine now, send at the
    /// end of the tick).
    fn receive_partial(&mut self, ctx: &mut Ctx<'_, WfMsg>, from: HostId, incoming: &Partial) {
        let Some(active) = self.active.as_mut() else {
            return;
        };
        if ctx.now().ticks() > active.deadline {
            return; // Fig 4: "else Terminate"
        }
        active.absorb(from, incoming);
        if !active.flush_scheduled {
            active.flush_scheduled = true;
            ctx.set_timer_at_tick_end(TIMER_FLUSH);
        }
    }

    /// End-of-tick flush: send the (possibly updated) partial to every
    /// neighbour not already known to hold it.
    fn flush(&mut self, ctx: &mut Ctx<'_, WfMsg>) {
        let Some(active) = self.active.as_mut() else {
            return;
        };
        active.flush_scheduled = false;
        if ctx.now().ticks() > active.deadline {
            return;
        }
        let neighbors = ctx.neighbors();
        if ctx.medium() == Medium::Radio {
            if neighbors.iter().all(|&n| active.synced(n)) {
                return;
            }
            // One transmission reaches everyone; all neighbours now know.
            ctx.broadcast(WfMsg::Converge {
                partial: active.snapshot(),
            });
            for &n in neighbors {
                active.record(n);
            }
        } else {
            // One update round to every neighbour that lags, queued as
            // one entry where the engine can.
            let msg = WfMsg::Converge {
                partial: active.snapshot(),
            };
            ctx.multicast_where(
                |n| {
                    let lags = !active.synced(n);
                    if lags {
                        active.record(n);
                    }
                    lags
                },
                msg,
            );
        }
    }
}

impl ProtocolObserver for WildfireNode {
    fn state_summary(&self) -> StateSummary {
        summary_of(self.partial().as_ref().map(Partial::sketch_weight))
    }
}

impl NodeLogic for WildfireNode {
    type Msg = WfMsg;

    fn summary(&self) -> StateSummary {
        self.state_summary()
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_, WfMsg>) {
        if !self.is_query_host {
            return;
        }
        let spec = self.query.expect("query host has a spec");
        self.activate(ctx, spec, 0);
        ctx.set_timer(spec.deadline(), TIMER_DECLARE);
        let active = self.active.as_mut().expect("just activated");
        let piggyback = self.opts.piggyback;
        let partial = piggyback.then(|| active.snapshot());
        ctx.broadcast(WfMsg::Broadcast {
            spec,
            hops: 0,
            partial,
        });
        if !piggyback {
            ctx.broadcast(WfMsg::Converge {
                partial: active.snapshot(),
            });
        }
        // Everyone we just reached has our current partial.
        for &n in ctx.neighbors() {
            active.record(n);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, WfMsg>, from: HostId, msg: WfMsg) {
        match msg {
            WfMsg::Broadcast {
                spec,
                hops,
                partial,
            } => {
                if self.active.is_none() {
                    // Fig 3: activate only strictly before 2D̂δ.
                    if ctx.now().ticks() >= spec.deadline() {
                        return;
                    }
                    let depth = hops + 1;
                    self.activate(ctx, spec, depth);
                    // Combine the piggybacked partial *before* forwarding
                    // (Example 5.1: x forwards A_x = 15, already combined).
                    if let Some(p) = partial {
                        let active = self.active.as_mut().expect("just activated");
                        active.absorb(from, &p);
                    }
                    let piggyback = self.opts.piggyback;
                    let active = self.active.as_mut().expect("just activated");
                    let fwd = WfMsg::Broadcast {
                        spec,
                        hops: depth,
                        partial: piggyback.then(|| active.snapshot()),
                    };
                    let radio = ctx.medium() == Medium::Radio;
                    ctx.broadcast_except(Some(from), fwd);
                    if piggyback {
                        for &n in ctx.neighbors() {
                            if n != from || radio {
                                active.record(n);
                            }
                        }
                    }
                    // Whether or not the flood carried our value, make
                    // sure laggards (e.g. the sender) get an update at
                    // the end of the tick.
                    if !active.flush_scheduled {
                        active.flush_scheduled = true;
                        ctx.set_timer_at_tick_end(TIMER_FLUSH);
                    }
                } else if let Some(p) = partial {
                    // Duplicate flood copy: its piggybacked partial is an
                    // ordinary convergecast contribution.
                    self.receive_partial(ctx, from, &p);
                }
            }
            WfMsg::Converge { partial } => {
                if self.query.is_none() {
                    // Convergecast before any broadcast reached us (only
                    // possible under jittered delays): we are not active,
                    // so drop it.
                    return;
                }
                self.receive_partial(ctx, from, &partial);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, WfMsg>, key: u64) {
        match key {
            TIMER_FLUSH => self.flush(ctx),
            TIMER_DECLARE if self.is_query_host => {
                if let Some(active) = &self.active {
                    self.result = Some((active.partial().value(), ctx.now()));
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
    use pov_topology::generators::special;
    use pov_topology::Graph;

    fn diamond() -> Graph {
        // Fig 5: w(0) - x(1), w - y(2), x - z(3), y - z(3).
        let mut b = pov_topology::GraphBuilder::with_hosts(4);
        b.add_edge(HostId(0), HostId(1));
        b.add_edge(HostId(0), HostId(2));
        b.add_edge(HostId(1), HostId(3));
        b.add_edge(HostId(2), HostId(3));
        b.build()
    }

    fn run(
        graph: Graph,
        values: &[u64],
        aggregate: Aggregate,
        d_hat: u32,
        churn: ChurnPlan,
    ) -> Simulation<'static, WildfireNode> {
        let spec = QuerySpec {
            aggregate,
            d_hat,
            c: 16,
        };
        let values = values.to_vec();
        let mut sim = SimBuilder::new(graph)
            .churn(churn)
            .seed(99)
            .build(move |h| {
                if h == HostId(0) {
                    WildfireNode::query_host(values[h.index()], spec, WildfireOpts::default())
                } else {
                    WildfireNode::host(values[h.index()], WildfireOpts::default())
                }
            });
        sim.run_until(Time(spec.deadline() + 1));
        sim
    }

    /// Sizes measured before the knowledge table went by-value; neither
    /// may grow. Inline FM registers (`[u64; 8]` + heap fallback) were
    /// tried and bought ~4 % on `wildfire_static`, but took `Partial` to
    /// 136 bytes — and SPANNINGTREE then carried `Partial` by value in
    /// every message and host, so `scale_tree` peak RSS went 338 → 579 MB
    /// (docs/BENCHMARKING.md, "WILDFIRE hot path"). SPANNINGTREE has
    /// carried the 16-byte `ExactPartial` since; the `Partial` pin now
    /// guards DAG's `DagMsg::Report` and `DagNode::partial`, which hold
    /// it by value, and the snapshot every `WfMsg` shares. Keep it.
    /// Nor row-form wire messages (`Rc<[u64]>` instead of `Rc<Partial>`):
    /// no gain, and `WfMsg` grows to 40 bytes ("round two").
    #[test]
    fn partial_and_message_layout_do_not_grow() {
        assert!(std::mem::size_of::<Partial>() <= 56);
        assert!(std::mem::size_of::<WfMsg>() <= 32);
    }

    #[test]
    fn example_5_1_max_on_diamond() {
        let sim = run(
            diamond(),
            &[5, 15, 1, 25],
            Aggregate::Max,
            3,
            ChurnPlan::none(),
        );
        let (v, at) = sim.logic(HostId(0)).result().expect("declared");
        assert_eq!(v, 25.0);
        assert_eq!(at, Time(6)); // 2·D̂·δ = 6, exactly as in the example
    }

    #[test]
    fn example_5_1_message_count_matches_paper() {
        // The walk-through sends exactly: t0: w→x, w→y (broadcast with
        // piggyback); t1: x→z, x→w, y→z; t2: z→x, z→y, w→y; t3: x→w,
        // y→w. Total 10 messages, none after t=3.
        let sim = run(
            diamond(),
            &[5, 15, 1, 25],
            Aggregate::Max,
            3,
            ChurnPlan::none(),
        );
        assert_eq!(sim.metrics().messages_sent, 10);
        assert_eq!(sim.metrics().last_active_tick(), Some(3));
    }

    #[test]
    fn example_5_1_survives_one_path_failure() {
        // If x fails, w still learns z's 25 via y.
        let churn = ChurnPlan::none().with_failure(Time(2), HostId(1));
        let sim = run(diamond(), &[5, 15, 1, 25], Aggregate::Max, 3, churn);
        let (v, _) = sim.logic(HostId(0)).result().expect("declared");
        assert_eq!(v, 25.0);
    }

    #[test]
    fn example_5_1_both_paths_fail() {
        // Both x and y fail: HC = {w}, so v = 5 is the valid answer.
        let churn = ChurnPlan::none()
            .with_failure(Time(1), HostId(1))
            .with_failure(Time(1), HostId(2));
        let sim = run(diamond(), &[5, 15, 1, 25], Aggregate::Max, 3, churn);
        let (v, _) = sim.logic(HostId(0)).result().expect("declared");
        assert_eq!(v, 5.0);
    }

    #[test]
    fn min_on_chain() {
        let sim = run(
            special::chain(10),
            &[50, 40, 30, 20, 10, 60, 70, 80, 90, 15],
            Aggregate::Min,
            9,
            ChurnPlan::none(),
        );
        let (v, _) = sim.logic(HostId(0)).result().expect("declared");
        assert_eq!(v, 10.0);
    }

    #[test]
    fn count_on_cycle_is_near_exact() {
        let n = 64;
        let values = vec![1u64; n];
        let sim = run(
            special::cycle(n),
            &values,
            Aggregate::Count,
            (n / 2) as u32,
            ChurnPlan::none(),
        );
        let (v, _) = sim.logic(HostId(0)).result().expect("declared");
        // FM with c=16: within a factor of ~3 of 64.
        assert!((20.0..200.0).contains(&v), "count estimate {v}");
    }

    #[test]
    fn quiesces_before_deadline_with_overestimated_dhat() {
        // §6.6.2: messages stop by ~2Dδ even when D̂ ≫ D.
        let g = special::cycle(8); // D = 4
        let spec = QuerySpec {
            aggregate: Aggregate::Max,
            d_hat: 40,
            c: 8,
        };
        let mut sim = SimBuilder::new(g).seed(1).build(move |h| {
            if h == HostId(0) {
                WildfireNode::query_host(7, spec, WildfireOpts::default())
            } else {
                WildfireNode::host(u64::from(h.0), WildfireOpts::default())
            }
        });
        sim.run_until(Time(spec.deadline() + 1));
        let last = sim.metrics().last_active_tick().unwrap();
        assert!(last <= 8, "still sending at tick {last}");
    }

    #[test]
    fn no_piggyback_still_correct() {
        let opts = WildfireOpts {
            early_deadline: false,
            piggyback: false,
        };
        let spec = QuerySpec {
            aggregate: Aggregate::Max,
            d_hat: 5,
            c: 8,
        };
        let g = special::chain(5);
        let mut sim = SimBuilder::new(g).seed(3).build(move |h| {
            if h == HostId(0) {
                WildfireNode::query_host(1, spec, opts)
            } else {
                WildfireNode::host(u64::from(h.0 * 10), opts)
            }
        });
        sim.run_until(Time(spec.deadline() + 1));
        let (v, _) = sim.logic(HostId(0)).result().expect("declared");
        assert_eq!(v, 40.0);
    }

    #[test]
    fn batching_sends_one_update_per_tick() {
        // Star centre receives from all leaves at the same tick; it must
        // answer with a single batched round of updates, not one per
        // receipt. Leaves hold the values; centre is hq.
        let g = special::star(9);
        let values: Vec<u64> = (0..9).map(|i| 10 * (i + 1)).collect();
        let sim = run(g, &values, Aggregate::Max, 2, ChurnPlan::none());
        let (v, _) = sim.logic(HostId(0)).result().expect("declared");
        assert_eq!(v, 90.0);
        // t0: hq broadcasts (8 msgs, piggybacked). t1: each leaf that has
        // a bigger value replies (≤8). t2: hq pushes the new max to stale
        // leaves (≤8). Upper bound 24; without batching this would blow
        // past it.
        assert!(
            sim.metrics().messages_sent <= 24,
            "sent {}",
            sim.metrics().messages_sent
        );
    }

    #[test]
    fn passive_host_never_declares() {
        let sim = run(
            special::chain(3),
            &[1, 2, 3],
            Aggregate::Max,
            3,
            ChurnPlan::none(),
        );
        assert!(sim.logic(HostId(1)).result().is_none());
        assert!(sim.logic(HostId(2)).result().is_none());
    }
}
