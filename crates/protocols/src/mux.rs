//! The multiplexed query engine: many concurrent one-shot queries over
//! one gossip substrate, with shared wave traffic.
//!
//! The paper prices validity for *one* query at a time; a production
//! aggregation service fields thousands of concurrent queries (mixed
//! aggregates, roots, deadlines) over the same overlay. Running them
//! back-to-back re-floods the same topology N times. This module runs
//! them *co-resident* in one simulation instead:
//!
//! * every per-query payload is tagged with a compact [`QueryId`];
//! * co-resident queries **piggyback** their payloads into shared wave
//!   messages — one engine message ([`MuxMsg`]) carries many
//!   `(QueryId, item)` pairs, so message cost is accounted both *raw*
//!   (engine messages) and *per query* (payload items);
//! * a per-host **partial cache** lets a newly arrived query whose
//!   `(aggregate, root)` matches a live wave at its root *join* that
//!   wave instead of launching a fresh flood (an alias: it is answered
//!   by the live wave's declaration, at ~zero payload cost).
//!
//! Per-query semantics are exactly SPANNINGTREE (§4.4): parent = first
//! query copy heard, echo completion, per-host fallback at
//! `(2·D̂ − depth)·δ` past the query's arrival. To keep each query's
//! answer independent of which other queries share its waves, the node
//! runs **synchronous rounds**: `on_message` only folds incoming items
//! into order-insensitive state (child partials combine commutatively,
//! classified neighbours form a set, a first-heard query keeps its
//! minimum `(hops, HostId)` candidate parent); every decision — adopt,
//! flood on, report — waits for a tick-end flush. Delivery order within
//! a tick therefore cannot perturb any query, and a query's trajectory
//! in a multiplexed run is byte-identical to its solo run over the same
//! churn realization — the property `it_mux.rs` asserts.

use crate::common::{Aggregate, ExactPartial};
use crate::observer::ProtocolObserver;
use pov_sim::{
    ChurnPlan, Ctx, Metrics, NodeLogic, PartitionPlan, SimBuilder, Simulation, StateSummary, Time,
    Trace,
};
use pov_topology::{Graph, HostId};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashSet};
use std::rc::Rc;

/// Compact identity of one query within a workload. Wire payloads carry
/// this tag so one [`MuxMsg`] can interleave many queries' traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(pub u32);

impl QueryId {
    fn index(self) -> u32 {
        self.0
    }
}

/// One query of a multiplexed workload: an aggregate rooted at `root`,
/// injected at tick `arrival`, judged (and bounded by a fallback) over
/// the `2·D̂` ticks that follow.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MuxQuery {
    /// Workload-unique identity.
    pub id: QueryId,
    /// The aggregate function this query computes.
    pub aggregate: Aggregate,
    /// The querying host (tree root) — `hq` of this query.
    pub root: HostId,
    /// Injection tick (must be ≥ 1 so tick 0 stays quiescent).
    pub arrival: u64,
    /// Network-diameter estimate; the deadline is `arrival + 2·D̂`.
    pub d_hat: u32,
    /// Sliding-window width `W` in ticks: when set, the ORACLE judges
    /// this query over `[end − W, end]` (§4.2) instead of
    /// `[arrival, end]`. Purely a judging concern — execution is
    /// identical.
    pub window: Option<u64>,
}

impl MuxQuery {
    /// Absolute declare-by tick: `arrival + 2·D̂` (unit hop delay).
    pub fn deadline(&self) -> u64 {
        self.arrival + 2 * self.d_hat as u64
    }
}

/// One query's payload inside a shared wave message.
#[derive(Clone, Copy, Debug)]
pub enum MuxItem {
    /// The flooded query; receipt from `f` means `f` is not my child.
    Query {
        /// The aggregate being computed.
        aggregate: Aggregate,
        /// Hops travelled (sender's depth).
        hops: u32,
        /// Absolute declare-by tick (hosts derive their fallback from it).
        deadline: u64,
    },
    /// A child's subtree aggregate.
    Child {
        /// The child's combined partial.
        partial: ExactPartial,
    },
}

/// A shared wave message: one engine message carrying many queries'
/// payload items, in ascending [`QueryId`] order.
#[derive(Clone, Debug)]
pub struct MuxMsg {
    /// The piggybacked `(query, item)` pairs.
    pub items: Vec<(QueryId, MuxItem)>,
}

/// Timer key: the tick-end flush (adopt this tick's first hearings,
/// report the echo-complete).
const KEY_FLUSH: u64 = 0;
/// Timer key class: query arrivals at this root (one timer per distinct
/// arrival tick serves every query due then).
const KEY_ARRIVAL: u64 = 1 << 32;
/// Timer key class: fallback deadlines. One firing serves *every* query
/// whose fallback tick has passed, so co-resident queries hitting their
/// deadline on the same tick batch their reports into shared messages.
const KEY_FALLBACK: u64 = 2 << 32;
const KEY_CLASS: u64 = !0u64 << 32;

/// Which neighbours a query has classified at this host. Every open
/// query carries one, so the common case must not touch the heap: a
/// bitmask over the host's neighbour *indices* covers degree ≤ 128
/// inline (two words, not a `u128`, so the state keeps 8-byte
/// alignment); hub hosts beyond that spill to a deduplicated vector.
#[derive(Debug)]
enum Heard {
    /// Bit `i` = neighbour `neighbors[i]` classified.
    Mask([u64; 2]),
    /// Degree > 128: the classified neighbours themselves.
    Spill(Vec<HostId>),
}

impl Heard {
    fn for_degree(degree: usize) -> Heard {
        if degree <= 128 {
            Heard::Mask([0; 2])
        } else {
            Heard::Spill(Vec::new())
        }
    }

    /// Classify neighbour `h`; whether it was new. Senders are always
    /// neighbours on the static substrate the engine runs over, and CSR
    /// neighbour lists are sorted ascending — binary search keeps this
    /// `O(log d)` on the per-item hot path.
    fn note(&mut self, neighbors: &[HostId], h: HostId) -> bool {
        match self {
            Heard::Mask(m) => {
                let i = neighbors.binary_search(&h).expect("sender is a neighbor");
                let bit = 1u64 << (i % 64);
                let new = m[i / 64] & bit == 0;
                m[i / 64] |= bit;
                new
            }
            Heard::Spill(v) => {
                let new = !v.contains(&h);
                if new {
                    v.push(h);
                }
                new
            }
        }
    }

    /// Unclassify neighbour `h` (the adopted parent is nobody's child).
    fn forget(&mut self, neighbors: &[HostId], h: HostId) {
        match self {
            Heard::Mask(m) => {
                let i = neighbors.binary_search(&h).expect("parent is a neighbor");
                m[i / 64] &= !(1u64 << (i % 64));
            }
            Heard::Spill(v) => v.retain(|&x| x != h),
        }
    }

    fn count(&self) -> usize {
        match self {
            Heard::Mask(m) => (m[0].count_ones() + m[1].count_ones()) as usize,
            Heard::Spill(v) => v.len(),
        }
    }
}

/// Tree state of one query at one host while the query is *open* there
/// — from first hearing (or launch, at the root) until the host reports
/// upward (or declares). The SPANNINGTREE fields, minus what retirement
/// makes moot: a retired query needs no state at all.
///
/// A query first heard during the current tick is *fresh*: its items
/// are folded in as they arrive, and the tick-end flush adopts it —
/// the minimum `(hops, sender)` candidate becomes the parent, exactly
/// the choice a synchronous round over the whole tick makes.
#[derive(Debug)]
struct QState {
    /// Neighbours classified so far: flooded past us or reported as
    /// child (while fresh: every query sender, the parent-to-be too).
    heard: Heard,
    /// This host's subtree aggregate so far; it carries the query's
    /// aggregate function.
    partial: ExactPartial,
    /// Tick the forced report fires at: `deadline − depth`, clamped to
    /// the tick after first hearing (the timer's own fire tick). While
    /// fresh: the query's absolute deadline.
    fallback_at: u64,
    /// Tree parent (while fresh: the best candidate so far); `None` at
    /// the query's root.
    parent: Option<HostId>,
    /// Hops from the root.
    depth: u32,
    /// First heard this tick, not yet adopted.
    fresh: bool,
}

/// The per-neighbour outgoing buffers of one timer firing, slot `i` =
/// neighbour `neighbors[i]`.
type OutBufs = [Vec<(QueryId, MuxItem)>];

/// What the hosts of one multiplexed run share. `simulate` creates one
/// per run, so it is freed with the run.
#[derive(Debug, Default)]
struct MuxRun {
    /// Payload items sent per query (slot = [`QueryId`]).
    payload: Box<[Cell<u64>]>,
    /// The outgoing buffers of the timer firing in progress: empty
    /// between firings, so one set serves every host of the run.
    out: RefCell<Vec<Vec<(QueryId, MuxItem)>>>,
}

/// Per-host logic of the multiplexed engine.
///
/// A host keeps per-query state only while the query is open here: a
/// slab of `QState`s behind `open`, a table of `(qid, slot)` pairs in
/// ascending query order. Wave messages carry their items in ascending
/// query order too, so a delivery folds each item into its state with
/// one search over the rest of the table, and no per-host buffer holds
/// a tick's traffic until the flush. Once the host reports, the slot is
/// freed and a single *retired* bit remains, enough to drop late
/// traffic exactly as SPANNINGTREE does. The per-neighbour outgoing
/// buffers and the payload ledger belong to the run, shared by its
/// hosts, so a host's memory follows its open queries, not the number
/// of queries it ever heard.
#[derive(Debug, Default)]
pub struct MuxNode {
    value: u64,
    /// Guards against `on_start` re-firing on rejoin.
    started: bool,
    /// Queries rooted at this host, ascending arrival then id.
    rooted: Vec<MuxQuery>,
    /// Open queries at this host, ascending qid: `(qid, slot in states)`.
    open: Vec<(u32, u32)>,
    /// Slab of open-query states; the slots in `free` are vacant.
    states: Vec<QState>,
    /// Vacant slots of `states`, reused before the slab grows.
    free: Vec<u32>,
    /// Bit `q` set = query `q` reported (or declared) here; any later
    /// item for it is dropped.
    retired: Vec<u64>,
    /// Queries the tick-end flush must act on: first heard this tick
    /// (adopt) or echo-complete since the last flush (report).
    due: Vec<u32>,
    /// Tick the flush timer was last armed at (a stamp, not a flag: a
    /// bool would wedge if this host died between arming and firing).
    flush_armed_at: Option<u64>,
    /// Declared results of queries rooted here.
    results: BTreeMap<u32, (f64, Time)>,
    /// Partial-cache joins recorded here: `(live target, alias)`.
    aliases: Vec<(u32, u32)>,
    /// Number of queries that joined a live wave instead of flooding.
    cache_joins: u64,
    /// Fire ticks of the [`KEY_FALLBACK`] timers in flight, so
    /// co-resident queries sharing a fire tick share one timer.
    fallback_armed: Vec<u64>,
    /// The run's shared ledger and outgoing buffers.
    run: Rc<MuxRun>,
}

impl MuxNode {
    /// A host with attribute `value` rooting the given queries, sharing
    /// `run` with the other hosts (its ledger is long enough for every
    /// query).
    fn new(value: u64, mut rooted: Vec<MuxQuery>, run: Rc<MuxRun>) -> Self {
        rooted.sort_by_key(|q| (q.arrival, q.id));
        MuxNode {
            value,
            rooted,
            run,
            ..MuxNode::default()
        }
    }

    /// Declared `(value, time)` of query `id`, if it was rooted here
    /// and declared (directly or through the partial cache).
    pub fn result(&self, id: QueryId) -> Option<(f64, Time)> {
        self.results.get(&id.index()).copied()
    }

    /// All declared results rooted at this host, ascending `QueryId`.
    pub fn results(&self) -> &BTreeMap<u32, (f64, Time)> {
        &self.results
    }

    /// Queries that joined a live wave here instead of flooding.
    pub fn cache_joins(&self) -> u64 {
        self.cache_joins
    }

    /// Partial-cache joins recorded here, as `(live target, alias)`.
    pub fn aliases(&self) -> &[(u32, u32)] {
        &self.aliases
    }

    fn is_retired(&self, qid: u32) -> bool {
        self.retired
            .get(qid as usize / 64)
            .is_some_and(|w| w >> (qid % 64) & 1 == 1)
    }

    fn retire(&mut self, qid: u32) {
        let word = qid as usize / 64;
        if self.retired.len() <= word {
            self.retired.resize(word + 1, 0);
        }
        self.retired[word] |= 1 << (qid % 64);
    }

    /// Open `qid` at position `pos` of the `open` table.
    fn open_at(&mut self, pos: usize, qid: u32, state: QState) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.states[slot as usize] = state;
                slot
            }
            None => {
                self.states.push(state);
                (self.states.len() - 1) as u32
            }
        };
        self.open.insert(pos, (qid, slot));
    }

    fn launched(&self, qid: u32) -> bool {
        self.is_retired(qid)
            || self.open.binary_search_by_key(&qid, |&(q, _)| q).is_ok()
            || self.aliases.iter().any(|&(_, alias)| alias == qid)
    }

    /// Arm the forced report due at tick `fallback_at` (clamped to the
    /// next tick if already past), sharing one engine timer among every
    /// query due at the same fire tick. Returns the fire tick, which is
    /// what the query is filed under: a firing reports every open query
    /// whose fire tick has come.
    fn arm_fallback(&mut self, ctx: &mut Ctx<'_, MuxMsg>, fallback_at: u64) -> u64 {
        let now = ctx.now().ticks();
        let fire_at = fallback_at.max(now + 1);
        self.fallback_armed.retain(|&t| t > now);
        if !self.fallback_armed.contains(&fire_at) {
            self.fallback_armed.push(fire_at);
            ctx.set_timer(fire_at - now, KEY_FALLBACK);
        }
        fire_at
    }

    /// Handle every rooted query due by now: join a live matching wave
    /// (partial cache) or launch a fresh flood.
    fn arrivals(&mut self, ctx: &mut Ctx<'_, MuxMsg>, out: &mut OutBufs) {
        let now = ctx.now().ticks();
        let due: Vec<MuxQuery> = self
            .rooted
            .iter()
            .filter(|q| q.arrival <= now && !self.launched(q.id.index()))
            .copied()
            .collect();
        for q in due {
            let qid = q.id.index();
            // Partial cache: a live (unreported) wave rooted here with
            // the same aggregate computes the same answer — join the
            // lowest-numbered one.
            let target = self.open.iter().find(|&&(_, slot)| {
                let s = &self.states[slot as usize];
                s.parent.is_none() && s.partial.aggregate() == q.aggregate
            });
            if let Some(&(target, _)) = target {
                self.aliases.push((target, qid));
                self.cache_joins += 1;
                continue;
            }
            let deadline = q.deadline();
            let fallback_at = self.arm_fallback(ctx, deadline);
            for buf in out.iter_mut() {
                buf.push((
                    q.id,
                    MuxItem::Query {
                        aggregate: q.aggregate,
                        hops: 0,
                        deadline,
                    },
                ));
            }
            let partial = ExactPartial::init(q.aggregate, self.value);
            if ctx.degree() == 0 {
                // Isolated root: nothing to wait for.
                self.retire(qid);
                self.declare(qid, partial.value(), ctx.now());
                continue;
            }
            let pos = self.open.partition_point(|&(open, _)| open < qid);
            let state = QState {
                heard: Heard::for_degree(ctx.degree()),
                partial,
                fallback_at,
                parent: None,
                depth: 0,
                fresh: false,
            };
            self.open_at(pos, qid, state);
        }
    }

    /// Fold one delivered item into query `qid`'s state; `pos` is where
    /// `qid` sits in the `open` table, or would be inserted.
    fn receive(
        &mut self,
        ctx: &Ctx<'_, MuxMsg>,
        pos: usize,
        qid: u32,
        from: HostId,
        item: MuxItem,
    ) {
        let Some(&(_, slot)) = self.open.get(pos).filter(|&&(q, _)| q == qid) else {
            if self.is_retired(qid) {
                // Late traffic after we reported upward — contribution
                // lost (best-effort semantics, exactly as SPANNINGTREE).
                return;
            }
            // First hearing. Only a query copy opens the query: a child
            // report for a query never held here is dropped
            // (unreachable — a child adopted us from our own copy, so
            // none reaches a query that is still fresh either).
            let MuxItem::Query {
                aggregate,
                hops,
                deadline,
            } = item
            else {
                return;
            };
            let mut heard = Heard::for_degree(ctx.degree());
            heard.note(ctx.neighbors(), from);
            let state = QState {
                heard,
                partial: ExactPartial::init(aggregate, self.value),
                fallback_at: deadline,
                parent: Some(from),
                depth: hops + 1,
                fresh: true,
            };
            self.open_at(pos, qid, state);
            self.due.push(qid);
            return;
        };
        let state = &mut self.states[slot as usize];
        let new = match item {
            MuxItem::Query { hops, .. } => {
                // Parent = minimum `(hops, sender)` among the tick's
                // query copies — independent of intra-tick delivery
                // order, so co-resident queries cannot perturb each
                // other's trees.
                if state.fresh && (hops + 1, Some(from)) < (state.depth, state.parent) {
                    state.depth = hops + 1;
                    state.parent = Some(from);
                }
                state.heard.note(ctx.neighbors(), from)
            }
            MuxItem::Child { partial } => {
                state.partial.combine(partial);
                state.heard.note(ctx.neighbors(), from)
            }
        };
        // Echo completion: the flush reports once every non-parent
        // neighbour is classified (a fresh query is checked on adoption).
        if new && !state.fresh && state.heard.count() == self.expected(ctx, slot) {
            self.due.push(qid);
        }
    }

    /// Non-parent neighbours query state `slot` waits on.
    fn expected(&self, ctx: &Ctx<'_, MuxMsg>, slot: u32) -> usize {
        ctx.degree() - usize::from(self.states[slot as usize].parent.is_some())
    }

    /// Adopt the fresh query at position `pos` of the `open` table: fix
    /// its parent, arm its fallback, flood it onward, and report at
    /// once if every other neighbour already sent a copy.
    fn adopt(&mut self, ctx: &mut Ctx<'_, MuxMsg>, out: &mut OutBufs, pos: usize) {
        let (qid, slot) = self.open[pos];
        let state = &mut self.states[slot as usize];
        state.fresh = false;
        let parent = state.parent.expect("a copy opened the query");
        // Every same-tick co-sender is someone else's child.
        state.heard.forget(ctx.neighbors(), parent);
        let (aggregate, deadline, depth) =
            (state.partial.aggregate(), state.fallback_at, state.depth);
        // Fallback at (deadline − depth)·δ so partial subtrees still
        // drain upward before the root declares.
        let fallback_at = self.arm_fallback(ctx, deadline.saturating_sub(depth as u64));
        self.states[slot as usize].fallback_at = fallback_at;
        let parent_idx = ctx
            .neighbors()
            .binary_search(&parent)
            .expect("parent is a neighbor");
        for (i, buf) in out.iter_mut().enumerate() {
            if i != parent_idx {
                buf.push((
                    QueryId(qid),
                    MuxItem::Query {
                        aggregate,
                        hops: depth,
                        deadline,
                    },
                ));
            }
        }
        if self.states[slot as usize].heard.count() >= self.expected(ctx, slot) {
            self.report(ctx, out, pos);
        }
    }

    /// Report the query at position `pos` of the `open` table upward
    /// (or declare, at the root), and retire it here.
    fn report(&mut self, ctx: &mut Ctx<'_, MuxMsg>, out: &mut OutBufs, pos: usize) {
        let (qid, slot) = self.open.remove(pos);
        self.free.push(slot);
        self.retire(qid);
        let state = &self.states[slot as usize];
        let partial = state.partial;
        match state.parent {
            None => self.declare(qid, partial.value(), ctx.now()),
            Some(parent) => {
                let idx = ctx
                    .neighbors()
                    .binary_search(&parent)
                    .expect("parent is a neighbor");
                out[idx].push((QueryId(qid), MuxItem::Child { partial }));
            }
        }
    }

    /// Record a root declaration and satisfy every alias joined to it.
    fn declare(&mut self, qid: u32, value: f64, at: Time) {
        self.results.insert(qid, (value, at));
        for &(target, alias) in &self.aliases {
            if target == qid {
                self.results.insert(alias, (value, at));
            }
        }
    }

    /// The synchronous round, after every delivery of the tick: adopt
    /// the queries first heard this tick and report the echo-complete
    /// ones, in ascending qid order.
    fn flush(&mut self, ctx: &mut Ctx<'_, MuxMsg>, out: &mut OutBufs) {
        let mut due = std::mem::take(&mut self.due);
        due.sort_unstable();
        let mut pos = 0;
        for &qid in &due {
            pos += self.open[pos..].partition_point(|&(q, _)| q < qid);
            match self.open.get(pos) {
                Some(&(q, slot)) if q == qid => {
                    if self.states[slot as usize].fresh {
                        self.adopt(ctx, out, pos);
                    } else {
                        self.report(ctx, out, pos);
                    }
                }
                // Reported by this tick's fallback already.
                _ => {}
            }
        }
        due.clear();
        self.due = due;
    }

    /// The fallback orders after this tick's deliveries (already folded
    /// in, so same-tick child reports still count) but before the
    /// flush: force the report of every open query whose fire tick has
    /// come. One firing reports every due query, so their reports ship
    /// batched.
    fn fallbacks(&mut self, ctx: &mut Ctx<'_, MuxMsg>, out: &mut OutBufs) {
        let now = ctx.now().ticks();
        let mut pos = 0;
        while let Some(&(_, slot)) = self.open.get(pos) {
            let state = &self.states[slot as usize];
            if state.fresh || state.fallback_at > now {
                pos += 1;
            } else {
                self.report(ctx, out, pos);
            }
        }
    }

    /// Drain this firing's per-neighbour buffers: one engine message per
    /// neighbour with traffic, items in ascending `QueryId` order. Each
    /// message takes an exact-size copy, and the buffers keep their
    /// capacity for the run's next firing.
    fn ship(&self, ctx: &mut Ctx<'_, MuxMsg>, out: &mut OutBufs) {
        for (i, buf) in out.iter_mut().enumerate() {
            if buf.is_empty() {
                continue;
            }
            buf.sort_unstable_by_key(|&(qid, _)| qid);
            for &(qid, _) in buf.iter() {
                let sent = &self.run.payload[qid.index() as usize];
                sent.set(sent.get() + 1);
            }
            let items = buf.clone();
            buf.clear();
            let nb = ctx.neighbors()[i];
            ctx.send(nb, MuxMsg { items });
        }
    }
}

impl ProtocolObserver for MuxNode {
    fn state_summary(&self) -> StateSummary {
        StateSummary {
            active: !self.open.is_empty(),
            sketch_weight: None,
        }
    }
}

impl NodeLogic for MuxNode {
    type Msg = MuxMsg;

    fn summary(&self) -> StateSummary {
        self.state_summary()
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_, MuxMsg>) {
        if self.started {
            // Rejoin after a failure: state (and timers' meaning) kept.
            return;
        }
        self.started = true;
        let now = ctx.now().ticks();
        let mut ticks: Vec<u64> = self
            .rooted
            .iter()
            .map(|q| q.arrival.saturating_sub(now).max(1))
            .collect();
        ticks.dedup();
        for delay in ticks {
            ctx.set_timer(delay, KEY_ARRIVAL);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, MuxMsg>, from: HostId, msg: MuxMsg) {
        // Items arrive in ascending qid order: each search resumes where
        // the previous item's left off.
        let mut pos = 0;
        for &(qid, item) in &msg.items {
            let qid = qid.index();
            pos += self.open[pos..].partition_point(|&(q, _)| q < qid);
            self.receive(ctx, pos, qid, from, item);
        }
        // Adoption and reports run at the tick-end flush, after every
        // delivery of this instant — the synchronous round.
        let now = ctx.now().ticks();
        if self.flush_armed_at != Some(now) {
            self.flush_armed_at = Some(now);
            ctx.set_timer_at_tick_end(KEY_FLUSH);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, MuxMsg>, key: u64) {
        let mut bufs = self.run.out.take();
        if bufs.len() < ctx.degree() {
            bufs.resize_with(ctx.degree(), Vec::new);
        }
        let out = &mut bufs[..ctx.degree()];
        match key & KEY_CLASS {
            _ if key == KEY_FLUSH => self.flush(ctx, out),
            KEY_ARRIVAL => self.arrivals(ctx, out),
            KEY_FALLBACK => self.fallbacks(ctx, out),
            _ => unreachable!("unknown timer key {key:#x}"),
        }
        self.ship(ctx, out);
        debug_assert!(bufs.iter().all(Vec::is_empty), "unshipped mux items");
        self.run.out.replace(bufs);
    }
}

/// Environment one multiplexed run executes in: the cell's churn and
/// partition realization plus the engine seed. The substrate is the
/// unit-delay point-to-point medium (the paper's default).
#[derive(Clone, Debug, Default)]
pub struct MuxPlan {
    /// Scripted churn realization.
    pub churn: ChurnPlan,
    /// Optional partition overlay.
    pub partition: Option<PartitionPlan>,
    /// Engine seed (delivery jitter streams; the node logic draws none).
    pub seed: u64,
}

/// What one multiplexed run produced, per query and raw.
#[derive(Clone, Debug)]
pub struct MuxOutcome {
    /// Declared `(value, time)` per query index (absent = never declared,
    /// e.g. the root died).
    pub results: BTreeMap<u32, (f64, Time)>,
    /// Payload items charged to each query, summed over all hosts.
    pub per_query_payload: BTreeMap<u32, u64>,
    /// Raw engine messages (shared wave messages actually sent).
    pub raw_messages: u64,
    /// Total payload items across all queries (`Σ per_query_payload`).
    pub payload_items: u64,
    /// Queries that joined a live wave through the partial cache.
    pub cache_joins: u64,
    /// The joined queries' indices, ascending (`len == cache_joins`).
    pub aliased: Vec<u32>,
    /// Engine metrics of the whole multiplexed run.
    pub metrics: Metrics,
    /// Ground-truth membership trace (for per-query judging).
    pub trace: Trace,
    /// The tick the run was driven to.
    pub horizon: Time,
}

/// Execute `queries` co-resident over one simulation of `graph`.
///
/// # Panics
/// Panics if a query's `arrival` is 0, its root is out of range, or two
/// queries share a `QueryId`.
pub fn run_mux(graph: &Graph, values: &[u64], queries: &[MuxQuery], plan: &MuxPlan) -> MuxOutcome {
    let (sim, horizon, run) = simulate(graph, values, queries, plan);
    let mut results = BTreeMap::new();
    let mut cache_joins = 0u64;
    let mut aliased = Vec::new();
    for i in 0..graph.num_hosts() {
        // Logic is retained across death, so dead hosts still account.
        let node = sim.logic(HostId(i as u32));
        results.extend(node.results().iter().map(|(&q, &r)| (q, r)));
        cache_joins += node.cache_joins();
        aliased.extend(node.aliases().iter().map(|&(_, alias)| alias));
    }
    aliased.sort_unstable();
    let per_query_payload: BTreeMap<u32, u64> = run
        .payload
        .iter()
        .enumerate()
        .filter(|(_, c)| c.get() > 0)
        .map(|(q, c)| (q as u32, c.get()))
        .collect();
    let payload_items = per_query_payload.values().sum();
    MuxOutcome {
        results,
        per_query_payload,
        raw_messages: sim.metrics().messages_sent,
        payload_items,
        cache_joins,
        aliased,
        metrics: sim.metrics().clone(),
        trace: sim.trace().clone(),
        horizon,
    }
}

/// Build the multiplexed simulation of `queries` and drive it to its
/// horizon (`max deadline + 2`). Returns the finished simulation, the
/// horizon and the state its hosts shared (the payload ledger).
fn simulate<'g>(
    graph: &'g Graph,
    values: &[u64],
    queries: &[MuxQuery],
    plan: &MuxPlan,
) -> (Simulation<'g, MuxNode>, Time, Rc<MuxRun>) {
    let n = graph.num_hosts();
    let mut rooted: BTreeMap<u32, Vec<MuxQuery>> = BTreeMap::new();
    let mut seen = HashSet::new();
    let mut horizon = 0u64;
    for q in queries {
        assert!(q.arrival >= 1, "query {:?} arrives before tick 1", q.id);
        assert!(
            q.root.index() < n,
            "query {:?} rooted at out-of-range host {:?}",
            q.id,
            q.root
        );
        assert!(seen.insert(q.id), "duplicate {:?}", q.id);
        horizon = horizon.max(q.deadline());
        rooted.entry(q.root.0).or_default().push(*q);
    }
    let horizon = Time(horizon + 2);
    let ledger_len = queries.iter().map(|q| q.id.index() as usize + 1).max();
    let run = Rc::new(MuxRun {
        payload: (0..ledger_len.unwrap_or(0)).map(|_| Cell::new(0)).collect(),
        out: RefCell::default(),
    });
    let mut builder = SimBuilder::over(graph)
        .churn(plan.churn.clone())
        .seed(plan.seed);
    if let Some(p) = &plan.partition {
        builder = builder.partition(p.clone());
    }
    let mut sim = builder.build(|h| {
        MuxNode::new(
            values[h.index()],
            rooted.get(&h.0).cloned().unwrap_or_default(),
            Rc::clone(&run),
        )
    });
    sim.run_until(horizon);
    (sim, horizon, run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pov_topology::generators::special;

    fn q(id: u32, aggregate: Aggregate, root: u32, arrival: u64, d_hat: u32) -> MuxQuery {
        MuxQuery {
            id: QueryId(id),
            aggregate,
            root: HostId(root),
            arrival,
            d_hat,
            window: None,
        }
    }

    #[test]
    fn exact_aggregates_failure_free() {
        let values = [5u64, 10, 15, 20, 25, 30];
        let g = special::cycle(6);
        let queries = [
            q(0, Aggregate::Count, 0, 1, 3),
            q(1, Aggregate::Sum, 2, 1, 3),
            q(2, Aggregate::Average, 4, 2, 3),
            q(3, Aggregate::Min, 1, 3, 3),
            q(4, Aggregate::Max, 5, 3, 3),
        ];
        let out = run_mux(&g, &values, &queries, &MuxPlan::default());
        let want = [6.0, 105.0, 17.5, 5.0, 30.0];
        for (i, w) in want.iter().enumerate() {
            let (v, _) = out.results[&(i as u32)];
            assert_eq!(v, *w, "query {i}");
        }
    }

    #[test]
    fn solo_matches_spanning_tree_semantics() {
        // A single multiplexed query on a chain echo-completes early,
        // like SPANNINGTREE does.
        let n = 8;
        let g = special::chain(n);
        let queries = [q(0, Aggregate::Count, 0, 1, 50)];
        let out = run_mux(&g, &vec![1; n], &queries, &MuxPlan::default());
        let (v, at) = out.results[&0];
        assert_eq!(v, n as f64);
        assert!(
            at.ticks() <= 1 + 2 * n as u64 + 2,
            "declared at {at}, echo should beat the 100-tick deadline"
        );
    }

    #[test]
    fn piggyback_shares_wave_messages() {
        // k co-resident queries from the same root and tick: the flood
        // travels once per edge per tick, carrying k payloads — raw
        // engine messages stay at the 1-query level while payload items
        // scale with k.
        let n = 12;
        let g = special::cycle(n);
        let solo = run_mux(
            &g,
            &vec![1; n],
            &[q(0, Aggregate::Count, 0, 1, 6)],
            &MuxPlan::default(),
        );
        let queries: Vec<MuxQuery> = (0..4)
            .map(|i| {
                // Distinct aggregates defeat the partial cache: this
                // test isolates the piggyback saving.
                let agg = [
                    Aggregate::Count,
                    Aggregate::Sum,
                    Aggregate::Min,
                    Aggregate::Max,
                ][i as usize];
                q(i, agg, 0, 1, 6)
            })
            .collect();
        let mux = run_mux(&g, &vec![1; n], &queries, &MuxPlan::default());
        assert_eq!(mux.results.len(), 4);
        assert_eq!(
            mux.raw_messages, solo.raw_messages,
            "perfectly aligned waves share every engine message"
        );
        assert_eq!(mux.payload_items, 4 * solo.payload_items);
        assert_eq!(mux.per_query_payload[&0], solo.payload_items);
    }

    #[test]
    fn partial_cache_joins_matching_wave() {
        let n = 10;
        let g = special::cycle(n);
        let queries = [
            q(0, Aggregate::Count, 3, 1, 5),
            // Same (aggregate, root), arrives while query 0's wave is
            // live → joins it instead of flooding.
            q(1, Aggregate::Count, 3, 2, 5),
            // Different aggregate: floods on its own.
            q(2, Aggregate::Sum, 3, 2, 5),
        ];
        let out = run_mux(&g, &vec![1; n], &queries, &MuxPlan::default());
        assert_eq!(out.cache_joins, 1);
        let (v0, t0) = out.results[&0];
        let (v1, t1) = out.results[&1];
        assert_eq!((v0, t0), (v1, t1), "alias inherits the wave's answer");
        assert_eq!(v0, n as f64);
        assert_eq!(
            out.per_query_payload.get(&1),
            None,
            "an aliased query pays no payload items"
        );
    }

    #[test]
    fn subtree_lost_on_failure() {
        // Chain 0-1-2-3-4-5, host 1 fails after forwarding the query:
        // the count collapses to 1 — exactly SPANNINGTREE's best-effort
        // loss (§4.4), per query.
        let plan = MuxPlan {
            churn: ChurnPlan::none().with_failure(Time(3), HostId(1)),
            ..MuxPlan::default()
        };
        let g = special::chain(6);
        let out = run_mux(&g, &[1; 6], &[q(0, Aggregate::Count, 0, 1, 6)], &plan);
        let (v, _) = out.results[&0];
        assert_eq!(v, 1.0, "entire subtree behind the failed host is lost");
    }

    #[test]
    fn dead_root_never_declares() {
        let plan = MuxPlan {
            churn: ChurnPlan::none().with_failure(Time(2), HostId(0)),
            ..MuxPlan::default()
        };
        let g = special::cycle(6);
        let out = run_mux(&g, &[1; 6], &[q(0, Aggregate::Count, 0, 1, 3)], &plan);
        assert!(out.results.is_empty(), "a dead root cannot declare");
    }

    #[test]
    fn root_fallback_fires_when_children_die() {
        let plan = MuxPlan {
            churn: ChurnPlan::none()
                .with_failure(Time(1), HostId(1))
                .with_failure(Time(1), HostId(2)),
            ..MuxPlan::default()
        };
        let mut b = pov_topology::GraphBuilder::with_hosts(3);
        b.add_edge(HostId(0), HostId(1));
        b.add_edge(HostId(0), HostId(2));
        let g = b.build();
        let out = run_mux(&g, &[7, 8, 9], &[q(0, Aggregate::Sum, 0, 1, 2)], &plan);
        let (v, at) = out.results[&0];
        assert_eq!(v, 7.0);
        assert_eq!(at, Time(5), "the arrival + 2·D̂ fallback");
    }

    #[test]
    fn no_host_holds_state_once_every_query_has_reported() {
        // On a static graph every host reports every query it heard, so
        // at the horizon nothing is open anywhere: what is left per host
        // is one retired bit per query, not a table of states.
        let n = 30;
        let g = special::cycle(n);
        let queries: Vec<MuxQuery> = (0..50)
            .map(|i| {
                let agg = [Aggregate::Count, Aggregate::Sum, Aggregate::Max][i as usize % 3];
                q(i, agg, (i * 7) % n as u32, 1 + u64::from(i % 9), 16)
            })
            .collect();
        let (sim, _, _) = simulate(&g, &vec![1; n], &queries, &MuxPlan::default());
        let aliased: Vec<u32> = (0..n)
            .flat_map(|h| sim.logic(HostId(h as u32)).aliases().to_vec())
            .map(|(_, alias)| alias)
            .collect();
        for h in 0..n {
            let node = sim.logic(HostId(h as u32));
            assert!(node.open.is_empty(), "host {h} still holds {:?}", node.open);
            assert!(!node.summary().active);
            for qid in (0..50).filter(|qid| !aliased.contains(qid)) {
                assert!(node.is_retired(qid), "host {h} never retired query {qid}");
            }
        }
    }

    #[test]
    fn retired_bit_drops_a_late_query_copy() {
        //     0 — 1 — 2
        //          \    \
        //           3 — 4
        // D̂ = 2, COUNT from 0 at tick 1 (deadline 5). Hosts 2 and 3
        // hear at tick 3 and are forced to report at tick 4; host 4
        // hears both at tick 4, adopts 2 (the lower id) and floods on to
        // 3, whose copy arrives at tick 5 — after 3 retired the query.
        let mut b = pov_topology::GraphBuilder::with_hosts(5);
        for (x, y) in [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)] {
            b.add_edge(HostId(x), HostId(y));
        }
        let g = b.build();
        let queries = [q(0, Aggregate::Count, 0, 1, 2)];
        let (sim, _, run) = simulate(&g, &[1; 5], &queries, &MuxPlan::default());
        let host3 = sim.logic(HostId(3));
        assert!(host3.is_retired(0) && host3.open.is_empty());
        // 1 (root) + 3 (host 1) + 2 each for hosts 2, 3 and 4. Had host
        // 3 re-opened the query on the late copy, it would have flooded
        // it back to host 1.
        assert_eq!(run.payload[0].get(), 10);
        assert_eq!(
            sim.logic(HostId(0)).result(QueryId(0)),
            Some((2.0, Time(5)))
        );
    }

    #[test]
    fn determinism_across_reruns() {
        let n = 40;
        let g = special::cycle(n);
        let queries: Vec<MuxQuery> = (0..10)
            .map(|i| {
                q(
                    i,
                    Aggregate::Sum,
                    (i * 3) % n as u32,
                    1 + (i as u64 % 4),
                    20,
                )
            })
            .collect();
        let plan = MuxPlan {
            churn: ChurnPlan::none().with_failure(Time(5), HostId(7)),
            seed: 9,
            ..MuxPlan::default()
        };
        let values: Vec<u64> = (0..n as u64).collect();
        let a = run_mux(&g, &values, &queries, &plan);
        let b = run_mux(&g, &values, &queries, &plan);
        assert_eq!(a.results, b.results);
        assert_eq!(a.per_query_payload, b.per_query_payload);
        assert_eq!(a.raw_messages, b.raw_messages);
    }

    #[test]
    fn rejects_bad_queries() {
        let g = special::cycle(4);
        let r = std::panic::catch_unwind(|| {
            run_mux(
                &g,
                &[1; 4],
                &[q(0, Aggregate::Count, 0, 0, 2)],
                &MuxPlan::default(),
            )
        });
        assert!(r.is_err(), "arrival 0 must be rejected");
        let r = std::panic::catch_unwind(|| {
            run_mux(
                &g,
                &[1; 4],
                &[
                    q(0, Aggregate::Count, 0, 1, 2),
                    q(0, Aggregate::Sum, 1, 1, 2),
                ],
                &MuxPlan::default(),
            )
        });
        assert!(r.is_err(), "duplicate ids must be rejected");
    }
}
