//! The multiplexed query engine: many concurrent one-shot queries over
//! one gossip substrate, with shared wave traffic.
//!
//! The paper prices validity for *one* query at a time; a production
//! aggregation service fields thousands of concurrent queries (mixed
//! aggregates, roots, deadlines) over the same overlay. Running them
//! back-to-back re-floods the same topology N times. This module runs
//! them *co-resident* in one simulation instead:
//!
//! * every per-query payload is tagged with the query's *rank* — its
//!   place among the workload's [`QueryId`]s, ascending — so one engine
//!   message carries many queries' items, and message cost is accounted
//!   both *raw* (engine messages) and *per query* (payload items);
//! * a per-host **partial cache** lets a newly arrived query whose
//!   `(aggregate, root)` matches a live wave at its root *join* that
//!   wave instead of launching a fresh flood (an alias: it is answered
//!   by the live wave's declaration, at ~zero payload cost).
//!
//! Per-query semantics are exactly SPANNINGTREE (§4.4): parent = first
//! query copy heard, echo completion, per-host fallback at
//! `(2·D̂ − depth)·δ` past the query's arrival. To keep each query's
//! answer independent of which other queries share its waves, the node
//! runs **synchronous rounds**: incoming items only fold into
//! order-insensitive state (child partials combine commutatively,
//! classified neighbours are counted, a first-heard query keeps its
//! minimum `(hops, HostId)` candidate parent); every decision — adopt,
//! flood on, report — waits for a tick-end flush. Delivery order within
//! a tick therefore cannot perturb any query, and a query's trajectory
//! in a multiplexed run is byte-identical to its solo run over the same
//! churn realization — the property `it_mux.rs` asserts.
//!
//! **The inbox fold.** A delivery does not touch the host's query
//! state: `on_message` appends `(sender, message)` to the host's inbox
//! and arms the tick-end flush. The host's first timer of the tick — a
//! fallback, an arrival or that flush — folds the whole inbox into its
//! open table at once. Timers order after every delivery of their
//! instant, so the fold sees exactly what per-delivery folding would
//! have seen by then (a fallback still counts same-tick child reports),
//! and by the synchronous-round argument above the order the fold walks
//! the inbox in cannot matter.
//!
//! **Flat words the run owns.** What is per query — aggregate,
//! deadline, payload ledger, declared result — sits in run-wide tables
//! indexed by rank, and so do the per-host *retired* bits. A host keeps
//! the queries open there in two columns, sorted by rank: the packed
//! ranks (4 bytes each), which every lookup searches, and beside them
//! the 32-byte states, the parent held as its neighbour slot. That is
//! 36 bytes per open query. A timer that removes states compacts both
//! columns together, copying nothing before the first removal, and a
//! host's fallback fire ticks stay sorted, so arming one is a search
//! and an insert. A message is a slice of the run's wire arena: items
//! shipped at tick `t` sit in segment `t mod 2`, which the first ship at
//! `t + 2` clears. That is sound because the engine runs over the
//! unit-delay medium, so every message is read (folded) the tick after
//! it was shipped; `simulate` pins the delay and the fold asserts it.
//!
//! **Why a count suffices.** On the point-to-point medium the engine
//! runs over, each neighbour classifies a query at a host at most once:
//! by its query copy if it chose another parent, or by its child report
//! if it chose this host — never both, because a child floods to every
//! neighbour except its parent. A host floods a query at most once (a
//! first hearing needs the query neither open nor retired, and a
//! rejoining host's `on_start` does nothing), a root floods only at
//! launch, and an alias never floods. So a host keeps *how many*
//! neighbours have classified a query, not which, as SPANNINGTREE does.

use crate::common::{fallback_at, Aggregate, ExactPartial};
use pov_sim::{
    ChurnPlan, Ctx, DelayModel, Medium, Metrics, NodeLogic, PartitionPlan, SimBuilder, Simulation,
    StateSummary, Time, Trace,
};
use pov_topology::{Graph, HostId};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::ops::Range;
use std::rc::Rc;

/// Compact identity of one query within a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(pub u32);

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

/// One query's payload inside a shared wave message: a query copy or a
/// child report, in two words. The query's aggregate and deadline are
/// the run's to look up by rank.
#[derive(Clone, Copy, Debug)]
struct MuxItem {
    /// `rank << 1 | child`.
    tag: u32,
    /// A query copy's hops travelled (the sender's depth), or a child
    /// report's AVG host count.
    small: u32,
    /// A child report's accumulator word (0 in a query copy).
    word: u64,
}

impl MuxItem {
    fn query(rank: u32, hops: u32) -> MuxItem {
        MuxItem {
            tag: rank << 1,
            small: hops,
            word: 0,
        }
    }

    fn child(rank: u32, partial: ExactPartial) -> MuxItem {
        let (word, small) = partial.words();
        MuxItem {
            tag: rank << 1 | 1,
            small,
            word,
        }
    }

    fn rank(self) -> u32 {
        self.tag >> 1
    }

    fn is_child(self) -> bool {
        self.tag & 1 == 1
    }
}

/// A shared wave message: `len` items from `start` in segment `segment`
/// of the run's wire arena, in ascending rank order.
#[derive(Clone, Copy, Debug)]
struct MuxMsg {
    segment: u32,
    start: u32,
    len: u32,
}

/// Timer key: the tick-end flush (adopt this tick's first hearings,
/// report the echo-complete).
const KEY_FLUSH: u32 = 0;
/// Timer key class: query arrivals at this root (one timer per distinct
/// arrival tick serves every query due then).
const KEY_ARRIVAL: u32 = 1 << 30;
/// Timer key class: fallback deadlines. One firing serves *every* query
/// whose fallback tick has passed, so co-resident queries hitting their
/// deadline on the same tick batch their reports into shared messages.
const KEY_FALLBACK: u32 = 2 << 30;
/// The class bits of a timer key: its top two.
const KEY_CLASS: u32 = !0u32 << 30;

/// Tree state of one query at one host while the query is *open* there
/// — from first hearing (or launch, at the root) until the host reports
/// upward (or declares). The SPANNINGTREE fields in four flat words,
/// minus what retirement makes moot: a retired query needs no state at
/// all. The query's rank is not here but in the host's rank column,
/// at the same index.
///
/// A query first heard during the current tick is *fresh*: the
/// tick-end flush adopts it, and the minimum `(hops, sender)` candidate
/// becomes the parent — exactly the choice a synchronous round over the
/// whole tick makes.
#[derive(Clone, Copy, Debug)]
struct Open {
    /// The tree parent's slot in this host's neighbour list (while
    /// fresh: the best candidate's); [`ROOT`] at the query's root.
    /// Neighbour lists are sorted by id, so slots order as ids do.
    parent: u32,
    /// The partial's AVG host count.
    hosts: u32,
    /// Hops from the root.
    depth: u32,
    /// Neighbours classified so far: flooded past us or reported as
    /// child (while fresh: every query sender, the parent-to-be too).
    heard: u32,
    /// This host's subtree aggregate so far, as the words of an
    /// [`ExactPartial`] of the query's aggregate.
    acc: u64,
    /// Tick the forced report fires at: `deadline − depth`, clamped to
    /// the tick after adoption or launch (the timer's own fire tick).
    /// [`FRESH`] until adopted.
    fallback_at: u64,
}

/// [`Open::parent`] of the state at the query's root.
const ROOT: u32 = u32::MAX;
/// [`Open::fallback_at`] of a state first heard this tick: no fallback
/// is armed yet, and none ever forces it.
const FRESH: u64 = u64::MAX;

impl Open {
    fn is_fresh(&self) -> bool {
        self.fallback_at == FRESH
    }

    /// Neighbours this state waits on: every one but the parent.
    fn expected(&self, degree: usize) -> u32 {
        (degree - usize::from(self.parent != ROOT)) as u32
    }

    /// The flush must act on it: adopt it (fresh) or report it (every
    /// non-parent neighbour classified).
    fn is_due(&self, degree: usize) -> bool {
        self.is_fresh() || self.heard >= self.expected(degree)
    }
}

/// What the run knows of one query, by rank.
#[derive(Clone, Copy, Debug)]
struct QueryInfo {
    aggregate: Aggregate,
    deadline: u64,
}

/// What the hosts of one multiplexed run share. `simulate` creates one
/// per run, so it is freed with the run.
#[derive(Debug)]
struct MuxRun {
    /// Aggregate and deadline per rank.
    queries: Box<[QueryInfo]>,
    /// Every query's `(arrival, rank)`, grouped by root host in
    /// ascending host order, each group ascending.
    rooted: Box<[(u64, u32)]>,
    /// Host `h`'s group is `rooted[rooted_at[h]..rooted_at[h + 1]]`.
    rooted_at: Box<[u32]>,
    /// Each host's attribute value.
    values: Box<[u64]>,
    /// Retired words per host: `⌈queries / 64⌉`.
    words: usize,
    /// Payload items sent per rank.
    payload: Vec<u64>,
    /// Declared `(value, time)` per rank (aliases are filled in from
    /// their live wave when the run ends).
    results: Vec<Option<(f64, Time)>>,
    /// Per rank: the rank of the live wave the query joined through the
    /// partial cache.
    joined: Vec<Option<u32>>,
    /// Bit `r` of host `h`'s row (`words` words from `h · words`) set =
    /// query rank `r` reported (or declared) at `h`; any later item for
    /// it is dropped there.
    retired: Vec<u64>,
    /// The per-neighbour outgoing items of the timer firing in
    /// progress, slot `i` = neighbour `neighbors[i]`: empty between
    /// firings, so one set serves every host of the run.
    out: Vec<Vec<MuxItem>>,
    /// The wire arena: items shipped at tick `t` sit in segment `t % 2`.
    wire: [Vec<MuxItem>; 2],
    /// Tick each segment was last shipped into.
    filled_at: [u64; 2],
}

impl MuxRun {
    /// Indices into `rooted` of the queries rooted at `h`.
    fn rooted_at(&self, h: HostId) -> Range<usize> {
        self.rooted_at[h.index()] as usize..self.rooted_at[h.index() + 1] as usize
    }

    fn is_retired(&self, row: usize, rank: u32) -> bool {
        self.retired[row + rank as usize / 64] >> (rank % 64) & 1 == 1
    }

    fn retire(&mut self, row: usize, rank: u32) {
        self.retired[row + rank as usize / 64] |= 1 << (rank % 64);
    }
}

/// Per-host logic of the multiplexed engine.
///
/// A host keeps per-query state only while the query is open here, in
/// two columns: the ranks of its open queries, ascending, and their
/// states, index for index. Every lookup searches the packed rank
/// column. Once the host reports, the state goes and the host's retired
/// bit in the run's table remains, enough to drop late traffic exactly
/// as SPANNINGTREE does. A host's memory follows its open queries, not
/// the number of queries it ever heard.
#[derive(Debug)]
struct MuxNode {
    /// Ranks of the queries open at this host, ascending.
    ranks: Vec<u32>,
    /// Their states: `open[i]` is the state of `ranks[i]`.
    open: Vec<Open>,
    /// This tick's deliveries, folded by the host's first timer.
    inbox: Vec<(HostId, MuxMsg)>,
    /// Fire ticks of the [`KEY_FALLBACK`] timers in flight, ascending,
    /// so co-resident queries sharing a fire tick share one timer.
    fallback_armed: Vec<u64>,
    /// The run's shared tables.
    run: Rc<RefCell<MuxRun>>,
    /// Tick the flush timer was last armed at, [`NEVER`] before the
    /// first delivery (a stamp, not a flag: a bool would wedge if this
    /// host died between arming and firing).
    flush_armed_at: u64,
    /// Guards against `on_start` re-firing on rejoin.
    started: bool,
}

/// [`MuxNode::flush_armed_at`] of a host that never had a delivery.
const NEVER: u64 = u64::MAX;

impl MuxNode {
    /// Whether the query of `rank` rooted here was launched or joined a
    /// live wave already.
    fn launched(&self, run: &MuxRun, row: usize, rank: u32) -> bool {
        run.is_retired(row, rank)
            || self.ranks.binary_search(&rank).is_ok()
            || run.joined[rank as usize].is_some()
    }

    /// The rank column mirrors the states: one rank per state, strictly
    /// ascending, none of them retired at this host.
    fn check_columns(&self, run: &MuxRun, row: usize) {
        debug_assert_eq!(self.ranks.len(), self.open.len(), "rank column out of step");
        debug_assert!(
            self.ranks.windows(2).all(|w| w[0] < w[1]),
            "rank column out of order: {:?}",
            self.ranks
        );
        debug_assert!(
            self.ranks.iter().all(|&r| !run.is_retired(row, r)),
            "a retired query is still open"
        );
    }

    /// Fold this tick's inbox into the open table: child partials
    /// combine, classified neighbours are counted, and a first hearing
    /// opens a fresh state.
    fn fold(&mut self, ctx: &Ctx<'_, MuxMsg>, run: &MuxRun) {
        if self.inbox.is_empty() {
            return;
        }
        let now = ctx.now().ticks();
        debug_assert_eq!(
            self.flush_armed_at, now,
            "an inbox outlived the tick that filled it"
        );
        let row = ctx.me().index() * run.words;
        let value = run.values[ctx.me().index()];
        let MuxNode {
            ranks, open, inbox, ..
        } = self;
        for &(from, msg) in inbox.iter() {
            debug_assert_eq!(
                run.filled_at[msg.segment as usize] + 1,
                now,
                "a wire slice is read the tick after it was shipped"
            );
            let start = msg.start as usize;
            let items = &run.wire[msg.segment as usize][start..start + msg.len as usize];
            // The sender's slot, searched for once a query copy needs it.
            let mut slot = None;
            let mut sender = || *slot.get_or_insert_with(|| neighbor_slot(ctx, from));
            // Items arrive in ascending rank order: each search resumes
            // where the previous item's left off.
            let mut pos = 0;
            for &item in items {
                let rank = item.rank();
                pos += ranks[pos..].partition_point(|&r| r < rank);
                if ranks.get(pos) != Some(&rank) {
                    // Late traffic after we reported upward is lost
                    // (best-effort semantics, exactly as SPANNINGTREE),
                    // and only a query copy opens a query: no child
                    // adopted us from a copy we never sent.
                    if item.is_child() || run.is_retired(row, rank) {
                        continue;
                    }
                    let aggregate = run.queries[rank as usize].aggregate;
                    let (acc, hosts) = ExactPartial::init(aggregate, value).words();
                    ranks.insert(pos, rank);
                    open.insert(
                        pos,
                        Open {
                            parent: sender(),
                            hosts,
                            depth: item.small + 1,
                            heard: 1,
                            acc,
                            fallback_at: FRESH,
                        },
                    );
                    continue;
                }
                let s = &mut open[pos];
                if item.is_child() {
                    let aggregate = run.queries[rank as usize].aggregate;
                    let mut partial = ExactPartial::from_words(aggregate, s.acc, s.hosts);
                    partial.combine(ExactPartial::from_words(aggregate, item.word, item.small));
                    (s.acc, s.hosts) = partial.words();
                } else if s.is_fresh() && item.small < s.depth {
                    // Parent = minimum `(hops, sender)` among the tick's
                    // query copies — independent of delivery order.
                    let from = sender();
                    if (item.small + 1, from) < (s.depth, s.parent) {
                        s.depth = item.small + 1;
                        s.parent = from;
                    }
                }
                // Echo completion — every non-parent neighbour
                // classified — makes the state due for the flush.
                s.heard += 1;
            }
        }
        inbox.clear();
    }

    /// Handle every rooted query due by now: join a live matching wave
    /// (partial cache) or launch a fresh flood.
    fn arrivals(&mut self, ctx: &mut Ctx<'_, MuxMsg>, run: &mut MuxRun) {
        let now = ctx.now().ticks();
        let row = ctx.me().index() * run.words;
        for i in run.rooted_at(ctx.me()) {
            let (arrival, rank) = run.rooted[i];
            if arrival > now || self.launched(run, row, rank) {
                continue;
            }
            let QueryInfo {
                aggregate,
                deadline,
            } = run.queries[rank as usize];
            // Partial cache: a live (unreported) wave rooted here with
            // the same aggregate computes the same answer — join the
            // lowest-ranked one.
            let target = self.ranks.iter().zip(&self.open).find(|&(&r, s)| {
                s.parent == ROOT && run.queries[r as usize].aggregate == aggregate
            });
            if let Some((&target, _)) = target {
                run.joined[rank as usize] = Some(target);
                continue;
            }
            let fallback_at = arm_fallback(&mut self.fallback_armed, ctx, deadline, 0);
            for buf in &mut run.out[..ctx.degree()] {
                buf.push(MuxItem::query(rank, 0));
            }
            let partial = ExactPartial::init(aggregate, run.values[ctx.me().index()]);
            if ctx.degree() == 0 {
                // Isolated root: nothing to wait for.
                run.retire(row, rank);
                run.results[rank as usize] = Some((partial.value(), ctx.now()));
                continue;
            }
            let (acc, hosts) = partial.words();
            let pos = self.ranks.partition_point(|&r| r < rank);
            self.ranks.insert(pos, rank);
            self.open.insert(
                pos,
                Open {
                    parent: ROOT,
                    hosts,
                    depth: 0,
                    heard: 0,
                    acc,
                    fallback_at,
                },
            );
        }
        // A firing that catches up on arrivals of several ticks pushed
        // them in arrival order; a message carries ascending ranks.
        for buf in &mut run.out[..ctx.degree()] {
            buf.sort_unstable_by_key(|item| item.tag);
        }
    }

    /// Adopt the fresh state `s` of `rank`: fix its parent, arm its
    /// fallback and flood it onward. Every same-tick co-sender is
    /// someone else's child, so only the parent's copy stops counting.
    fn adopt(
        armed: &mut Vec<u64>,
        ctx: &mut Ctx<'_, MuxMsg>,
        run: &mut MuxRun,
        rank: u32,
        s: &mut Open,
    ) {
        s.heard -= 1;
        let deadline = run.queries[rank as usize].deadline;
        s.fallback_at = arm_fallback(armed, ctx, deadline, s.depth);
        let parent = s.parent as usize;
        for (i, buf) in run.out[..ctx.degree()].iter_mut().enumerate() {
            if i != parent {
                buf.push(MuxItem::query(rank, s.depth));
            }
        }
    }

    /// Report `s` of `rank` upward (or declare, at the root) and retire
    /// it here.
    fn report(ctx: &Ctx<'_, MuxMsg>, run: &mut MuxRun, rank: u32, s: &Open) {
        run.retire(ctx.me().index() * run.words, rank);
        let partial =
            ExactPartial::from_words(run.queries[rank as usize].aggregate, s.acc, s.hosts);
        if s.parent == ROOT {
            run.results[rank as usize] = Some((partial.value(), ctx.now()));
        } else {
            run.out[s.parent as usize].push(MuxItem::child(rank, partial));
        }
    }

    /// The synchronous round, after every delivery of the tick: adopt
    /// the queries first heard this tick and report the echo-complete
    /// ones, in ascending rank order.
    fn flush(&mut self, ctx: &mut Ctx<'_, MuxMsg>, run: &mut MuxRun) {
        let degree = ctx.degree();
        let armed = &mut self.fallback_armed;
        retain_open(&mut self.ranks, &mut self.open, |rank, s| {
            if !s.is_due(degree) {
                return true;
            }
            if s.is_fresh() {
                Self::adopt(armed, ctx, run, rank, s);
                // Adoption reports at once if every other neighbour
                // already sent a copy.
                if s.heard < s.expected(degree) {
                    return true;
                }
            }
            Self::report(ctx, run, rank, s);
            false
        });
    }

    /// The fallback orders after this tick's deliveries (already folded
    /// in, so same-tick child reports still count) but before the
    /// flush: force the report of every open query whose fire tick has
    /// come (never a fresh one). One firing reports every due query, so
    /// their reports ship batched.
    fn fallbacks(&mut self, ctx: &Ctx<'_, MuxMsg>, run: &mut MuxRun) {
        let now = ctx.now().ticks();
        retain_open(&mut self.ranks, &mut self.open, |rank, s| {
            let force = s.fallback_at <= now;
            if force {
                Self::report(ctx, run, rank, s);
            }
            !force
        });
    }
}

/// Keep the open states `keep` accepts — it may update them in place —
/// in order, moving each rank with its state. Nothing is copied before
/// the first state that goes.
fn retain_open(
    ranks: &mut Vec<u32>,
    open: &mut Vec<Open>,
    mut keep: impl FnMut(u32, &mut Open) -> bool,
) {
    let len = open.len();
    let mut kept = 0;
    while kept < len && keep(ranks[kept], &mut open[kept]) {
        kept += 1;
    }
    for i in kept + 1..len {
        if keep(ranks[i], &mut open[i]) {
            ranks[kept] = ranks[i];
            open[kept] = open[i];
            kept += 1;
        }
    }
    ranks.truncate(kept);
    open.truncate(kept);
}

/// Arm the forced report of a state `depth` hops below the root of a
/// query due at `deadline`, at its [`fallback_at`] tick, sharing one
/// engine timer among every query due at the same fire tick. `armed`
/// holds the fire ticks in flight, ascending: the ones already past
/// are dropped from its front, and a new one is inserted in place.
/// Returns the fire tick, which is what the query is filed under: a
/// firing reports every open query whose fire tick has come.
fn arm_fallback(armed: &mut Vec<u64>, ctx: &mut Ctx<'_, MuxMsg>, deadline: u64, depth: u32) -> u64 {
    let now = ctx.now().ticks();
    let fire_at = fallback_at(deadline, depth, now);
    let expired = armed.iter().take_while(|&&t| t <= now).count();
    armed.drain(..expired);
    if let Err(pos) = armed.binary_search(&fire_at) {
        armed.insert(pos, fire_at);
        ctx.set_timer(fire_at - now, KEY_FALLBACK);
    }
    fire_at
}

/// Slot of neighbour `h` in the host's sorted neighbour list.
fn neighbor_slot(ctx: &Ctx<'_, MuxMsg>, h: HostId) -> u32 {
    ctx.neighbors()
        .binary_search(&h)
        .expect("a sender is a neighbor") as u32
}

/// Ship this firing's outgoing items: one engine message per neighbour
/// with traffic, a slice of this tick's wire segment. The per-neighbour
/// buffers keep their capacity for the run's next firing.
fn ship(ctx: &mut Ctx<'_, MuxMsg>, run: &mut MuxRun) {
    let now = ctx.now().ticks();
    let segment = (now % 2) as usize;
    let MuxRun {
        payload,
        out,
        wire,
        filled_at,
        ..
    } = run;
    if filled_at[segment] != now {
        // Everything in it was shipped two ticks ago and folded last
        // tick.
        wire[segment].clear();
        filled_at[segment] = now;
    }
    let wire = &mut wire[segment];
    for (i, buf) in out[..ctx.degree()].iter_mut().enumerate() {
        if buf.is_empty() {
            continue;
        }
        debug_assert!(buf.windows(2).all(|w| w[0].tag < w[1].tag));
        for item in buf.iter() {
            payload[item.rank() as usize] += 1;
        }
        let msg = MuxMsg {
            segment: segment as u32,
            start: wire.len() as u32,
            len: buf.len() as u32,
        };
        wire.extend_from_slice(buf);
        buf.clear();
        ctx.send(ctx.neighbors()[i], msg);
    }
}

impl NodeLogic for MuxNode {
    type Msg = MuxMsg;

    fn summary(&self) -> StateSummary {
        StateSummary {
            active: !self.open.is_empty(),
            sketch_weight: None,
        }
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_, MuxMsg>) {
        if self.started {
            // Rejoin after a failure: state (and timers' meaning) kept.
            return;
        }
        self.started = true;
        let now = ctx.now().ticks();
        let run = self.run.borrow();
        let mut last = None;
        for &(arrival, _) in &run.rooted[run.rooted_at(ctx.me())] {
            let delay = arrival.saturating_sub(now).max(1);
            if last != Some(delay) {
                last = Some(delay);
                ctx.set_timer(delay, KEY_ARRIVAL);
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, MuxMsg>, from: HostId, msg: MuxMsg) {
        // The fold, adoption and reports run at the host's timers, after
        // every delivery of this instant — the synchronous round.
        let now = ctx.now().ticks();
        if self.flush_armed_at != now {
            debug_assert!(
                self.inbox.is_empty(),
                "an inbox outlived the tick that filled it"
            );
            self.flush_armed_at = now;
            ctx.set_timer_at_tick_end(KEY_FLUSH);
        }
        self.inbox.push((from, msg));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, MuxMsg>, key: u32) {
        let shared = Rc::clone(&self.run);
        let mut run = shared.borrow_mut();
        let row = ctx.me().index() * run.words;
        self.fold(ctx, &run);
        self.check_columns(&run, row);
        let degree = ctx.degree();
        if run.out.len() < degree {
            run.out.resize_with(degree, Vec::new);
        }
        match key & KEY_CLASS {
            _ if key == KEY_FLUSH => self.flush(ctx, &mut run),
            KEY_ARRIVAL => self.arrivals(ctx, &mut run),
            KEY_FALLBACK => self.fallbacks(ctx, &mut run),
            _ => unreachable!("unknown timer key {key:#x}"),
        }
        self.check_columns(&run, row);
        ship(ctx, &mut run);
        debug_assert!(run.out.iter().all(Vec::is_empty), "unshipped mux items");
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
}

/// Execute `queries` co-resident over one simulation of `graph`.
///
/// # Panics
/// Panics if a query's `arrival` is 0, its root is out of range, or two
/// queries share a `QueryId`.
pub fn run_mux(graph: &Graph, values: &[u64], queries: &[MuxQuery], plan: &MuxPlan) -> MuxOutcome {
    let (sim, run, ids) = simulate(graph, values, queries, plan);
    let run = run.borrow();
    let mut results = BTreeMap::new();
    let mut aliased = Vec::new();
    for (rank, id) in ids.iter().enumerate() {
        // An alias is answered by its live wave's declaration.
        let declared = match run.joined[rank] {
            Some(target) => {
                aliased.push(id.0);
                run.results[target as usize]
            }
            None => run.results[rank],
        };
        if let Some(declared) = declared {
            results.insert(id.0, declared);
        }
    }
    let per_query_payload: BTreeMap<u32, u64> = ids
        .iter()
        .zip(&run.payload)
        .filter(|&(_, &sent)| sent > 0)
        .map(|(id, &sent)| (id.0, sent))
        .collect();
    let payload_items = per_query_payload.values().sum();
    let (metrics, trace, _) = sim.into_record();
    MuxOutcome {
        results,
        per_query_payload,
        raw_messages: metrics.messages_sent,
        payload_items,
        cache_joins: aliased.len() as u64,
        aliased,
        metrics,
        trace,
    }
}

/// Build the multiplexed simulation of `queries` and drive it to its
/// horizon (`max deadline + 2`). Returns the finished simulation, the
/// tables its hosts shared and the workload's ids in rank order.
fn simulate<'g>(
    graph: &'g Graph,
    values: &[u64],
    queries: &[MuxQuery],
    plan: &MuxPlan,
) -> (Simulation<'g, MuxNode>, Rc<RefCell<MuxRun>>, Vec<QueryId>) {
    let n = graph.num_hosts();
    let mut horizon = 0u64;
    for q in queries {
        assert!(q.arrival >= 1, "query {:?} arrives before tick 1", q.id);
        assert!(
            q.root.index() < n,
            "query {:?} rooted at out-of-range host {:?}",
            q.id,
            q.root
        );
        horizon = horizon.max(q.deadline());
    }
    let horizon = Time(horizon + 2);
    // Tables are indexed by rank, so their size follows the number of
    // queries, whatever their ids.
    let mut ids: Vec<QueryId> = queries.iter().map(|q| q.id).collect();
    ids.sort_unstable();
    if let Some(w) = ids.windows(2).find(|w| w[0] == w[1]) {
        panic!("duplicate {:?}", w[0]);
    }
    let rank_of = |id: QueryId| ids.binary_search(&id).expect("an id of the workload") as u32;
    let mut info = vec![
        QueryInfo {
            aggregate: Aggregate::Count,
            deadline: 0,
        };
        ids.len()
    ];
    let mut rooted: Vec<(u32, u64, u32)> = Vec::with_capacity(queries.len());
    for q in queries {
        let rank = rank_of(q.id);
        info[rank as usize] = QueryInfo {
            aggregate: q.aggregate,
            deadline: q.deadline(),
        };
        rooted.push((q.root.0, q.arrival, rank));
    }
    rooted.sort_unstable();
    let mut rooted_at = vec![0; n + 1];
    for &(root, ..) in &rooted {
        rooted_at[root as usize + 1] += 1;
    }
    for h in 0..n {
        rooted_at[h + 1] += rooted_at[h];
    }
    let words = ids.len().div_ceil(64);
    let run = Rc::new(RefCell::new(MuxRun {
        queries: info.into(),
        rooted: rooted
            .iter()
            .map(|&(_, arrival, rank)| (arrival, rank))
            .collect(),
        rooted_at: rooted_at.into(),
        values: values[..n].into(),
        words,
        payload: vec![0; ids.len()],
        results: vec![None; ids.len()],
        joined: vec![None; ids.len()],
        retired: vec![0; n * words],
        out: Vec::new(),
        wire: Default::default(),
        filled_at: [u64::MAX; 2],
    }));
    // The wire arena keeps two segments, so a message must be read the
    // tick after it was shipped; the neighbour count is exact on the
    // point-to-point medium.
    let mut builder = SimBuilder::over(graph)
        .medium(Medium::PointToPoint)
        .delay(DelayModel::Fixed(1))
        .churn(plan.churn.clone())
        .seed(plan.seed);
    if let Some(p) = &plan.partition {
        builder = builder.partition(p.clone());
    }
    let mut sim = builder.build(|_| MuxNode {
        ranks: Vec::new(),
        open: Vec::new(),
        inbox: Vec::new(),
        fallback_armed: Vec::new(),
        run: Rc::clone(&run),
        flush_armed_at: NEVER,
        started: false,
    });
    sim.run_until(horizon);
    (sim, run, ids)
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
        let (sim, run, _) = simulate(&g, &vec![1; n], &queries, &MuxPlan::default());
        let st = run.borrow();
        for h in 0..n {
            let node = sim.logic(HostId(h as u32));
            assert!(node.open.is_empty(), "host {h} still holds {:?}", node.open);
            assert!(node.inbox.is_empty(), "host {h} never folded its inbox");
            assert!(!node.summary().active);
            for rank in (0..50).filter(|&r| st.joined[r as usize].is_none()) {
                assert!(
                    st.is_retired(h * st.words, rank),
                    "host {h} never retired query {rank}"
                );
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
        let (sim, run, _) = simulate(&g, &[1; 5], &queries, &MuxPlan::default());
        let st = run.borrow();
        assert!(st.is_retired(3 * st.words, 0) && sim.logic(HostId(3)).open.is_empty());
        // 1 (root) + 3 (host 1) + 2 each for hosts 2, 3 and 4. Had host
        // 3 re-opened the query on the late copy, it would have flooded
        // it back to host 1.
        assert_eq!(st.payload[0], 10);
        assert_eq!(st.results[0], Some((2.0, Time(5))));
    }

    #[test]
    fn tables_follow_the_number_of_queries_not_their_ids() {
        // The ledger and the retired bits are indexed by rank: a
        // workload whose largest id is u32::MAX sizes them for two
        // queries, and both declare.
        let g = special::cycle(6);
        let queries = [
            q(u32::MAX, Aggregate::Sum, 4, 2, 3),
            q(3, Aggregate::Count, 0, 1, 3),
        ];
        let out = run_mux(&g, &[1; 6], &queries, &MuxPlan::default());
        assert_eq!(out.results[&3].0, 6.0);
        assert_eq!(out.results[&u32::MAX].0, 6.0);
        assert_eq!(
            out.per_query_payload.keys().copied().collect::<Vec<_>>(),
            [3, u32::MAX]
        );
        let (_, run, ids) = simulate(&g, &[1; 6], &queries, &MuxPlan::default());
        assert_eq!(ids, [QueryId(3), QueryId(u32::MAX)]);
        let run = run.borrow();
        assert_eq!((run.words, run.retired.len()), (1, 6));
    }

    /// The flat layout's budget: a wire item is two words, a message a
    /// slice of the arena, an open query a 4-byte rank beside a 32-byte
    /// state, and a host's record four column headers and three words.
    #[test]
    fn item_message_and_state_layout_do_not_grow() {
        let item = std::mem::size_of::<MuxItem>();
        assert!(item <= 16, "wire item is {item} bytes");
        let msg = std::mem::size_of::<MuxMsg>();
        assert!(msg <= 16, "message is {msg} bytes");
        let state = std::mem::size_of::<Open>();
        assert!(state <= 32, "open state is {state} bytes");
        let per_open = state + std::mem::size_of::<u32>();
        assert!(per_open <= 36, "an open query costs {per_open} bytes");
        assert_eq!(std::mem::size_of::<MuxNode>(), 120);
    }

    #[test]
    fn fallback_fire_ticks_arm_one_timer_each() {
        // A star: hub 0, leaves 1..=3. Five queries rooted at the hub
        // (one per aggregate, so none joins another's wave) and two at
        // leaf 1. Leaves 2 and 3 hear the hub's at depth 1 and leaf 1's
        // at depth 2, and report at once. A fire tick is
        // `deadline − depth`, clamped to the tick after adoption:
        //
        //   id  aggregate root  arrival  D̂  leaves 2, 3 adopt  fire tick
        //   0   COUNT     0     2        3   3                  7
        //   1   SUM       0     2        2   3                  5
        //   2   MIN       0     2        1   3                  4 (clamped)
        //   3   COUNT     1     1        2   3                  4 (clamped)
        //   4   SUM       1     1        3   3                  5
        //   5   MAX       0     1        2   2                  4
        //   6   AVG       0     3        1   4                  5 (clamped)
        //
        // So leaves 2 and 3 arm 4 at tick 2, ask for 7, 5, 4, 4, 5 in
        // rank order at tick 3 and for 5 again at tick 4: ticks {4, 5,
        // 7}, three timers each. A list kept in arrival order, [4, 7,
        // 5], would miss the second 5 in a binary search. Leaf 1 arms
        // its launches' deadlines {5, 7}, then 4, 7, 5, 4 and 5 for the
        // hub's queries: three. The hub arms 5, then 8, 6, 4 for its
        // launches and 4, 6 for leaf 1's queries, then 5: four.
        let g = special::star(4);
        let queries = [
            q(0, Aggregate::Count, 0, 2, 3),
            q(1, Aggregate::Sum, 0, 2, 2),
            q(2, Aggregate::Min, 0, 2, 1),
            q(3, Aggregate::Count, 1, 1, 2),
            q(4, Aggregate::Sum, 1, 1, 3),
            q(5, Aggregate::Max, 0, 1, 2),
            q(6, Aggregate::Average, 0, 3, 1),
        ];
        let out = run_mux(&g, &[3, 1, 4, 1], &queries, &MuxPlan::default());
        assert_eq!(out.cache_joins, 0);
        let want = [4.0, 9.0, 1.0, 4.0, 9.0, 4.0, 2.25];
        for (id, w) in want.iter().enumerate() {
            assert_eq!(out.results[&(id as u32)].0, *w, "query {id}");
        }
        // Arrival timers: the hub's three arrival ticks and leaf 1's
        // one. Flush timers, one per tick with deliveries: leaf 1 hears
        // at 2, 3, 4 and 5, leaves 2 and 3 at 2, 3 and 4, the hub at 2,
        // 3, 4 and 5.
        let arrivals = 3 + 1;
        let flushes = 4 + 2 * 3 + 4;
        let fallbacks = 4 + 3 + 2 * 3;
        assert_eq!(out.metrics.timers_fired, arrivals + flushes + fallbacks);
    }

    #[test]
    fn same_tick_arrival_fallback_and_flush_reach_their_own_handlers() {
        // Hosts 0–1–2 in a chain and a spur 0–3 whose end is down from
        // the start, so host 0 never hears from every neighbour. At tick
        // 5 host 0 fires three timers, in the order they were armed:
        //
        // * B's arrival (armed at start): only the arrival handler
        //   launches B, which then counts 0, 1 and 2 at its fallback.
        // * A's root fallback (armed at A's launch, tick 1): A waits on
        //   the dead spur, so only the fallback handler declares it —
        //   with 1's report, which arrives at tick 5, folded in.
        // * the flush of that delivery, whose wave message also carries
        //   C's first copy from root 1: only the flush adopts C, and
        //   only an adopted host 0 reports its value, C's maximum, at
        //   its own fallback.
        let mut b = pov_topology::GraphBuilder::with_hosts(4);
        for (x, y) in [(0, 1), (1, 2), (0, 3)] {
            b.add_edge(HostId(x), HostId(y));
        }
        let plan = MuxPlan {
            churn: ChurnPlan::none().with_failure(Time(0), HostId(3)),
            ..MuxPlan::default()
        };
        let queries = [
            q(0, Aggregate::Sum, 0, 1, 2),
            q(1, Aggregate::Count, 0, 5, 3),
            q(2, Aggregate::Max, 1, 4, 3),
        ];
        let out = run_mux(&b.build(), &[9, 2, 5, 1], &queries, &plan);
        assert_eq!(out.results[&0], (16.0, Time(5)), "A, by the fallback");
        assert_eq!(
            out.results[&1],
            (3.0, Time(11)),
            "B, launched by the arrival"
        );
        assert_eq!(out.results[&2], (9.0, Time(10)), "C, adopted by the flush");
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
